"""Self-describing certification reports shared by every module and the CLI.

Reports are plain data: a kind, the input descriptor, a verdict, exact
values rendered as decimal/fraction strings, explicit witnesses for any
failure, and per-stage timings.  JSON output sorts keys, so two runs on
the same input are byte-identical except for the timings field.
"""

from __future__ import annotations

from typing import Any

from .plain import Plain

ARTIFACT_VERSION = "0.1.0"
REPORT_SCHEMA = "darcais-report/1"


class CertReport(Plain):
    """Outcome of one certification task.

    kind        one of "identity", "roots", "pf", "shape", "poly"
    target      what was examined, e.g. {"n": 10} or {"coeffs": "2 2 1"}
    verdict     "pass" or "fail" (commands map this to exit codes)
    details     kind-specific exact values, everything big as strings
    witnesses   machine-readable evidence for a failure (never empty on fail
                unless a search was explicitly exhausted, which the details
                then say)
    timings     seconds per stage, and for pf the counts minors and
                minors_by_pivoting (see pf_tnn.PFVerdict); excluded from
                determinism comparisons
    """

    __slots__ = ("kind", "target", "verdict", "details", "witnesses", "timings",
                 "schema", "version")

    def __init__(
        self,
        kind: str,
        target: dict[str, Any],
        verdict: str,
        details: dict[str, Any] | None = None,
        witnesses: list[dict[str, Any]] | None = None,
        timings: dict[str, float] | None = None,
        schema: str = REPORT_SCHEMA,
        version: str = ARTIFACT_VERSION,
    ):
        self.kind = kind
        self.target = target
        self.verdict = verdict
        self.details = {} if details is None else details
        self.witnesses = [] if witnesses is None else witnesses
        self.timings = {} if timings is None else timings
        self.schema = schema
        self.version = version

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        # imported here, where it is used: a shape table printed as CSV
        # renders no report as JSON and so never loads json
        import json

        return json.dumps(
            {
                "schema": self.schema,
                "version": self.version,
                "kind": self.kind,
                "target": self.target,
                "verdict": self.verdict,
                "details": self.details,
                "witnesses": self.witnesses,
                "timings": self.timings,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
