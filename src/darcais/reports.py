"""Self-describing certification reports shared by every module and the CLI.

Reports are plain data: a kind, the input descriptor, a verdict, exact
values rendered as decimal/fraction strings, explicit witnesses for any
failure, and per-stage timings.  JSON output sorts keys, so two runs on
the same input are byte-identical except for the timings field.
"""

from __future__ import annotations

from .plain import Plain

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from typing import Any

ARTIFACT_VERSION = "0.1.0"
REPORT_SCHEMA = "darcais-report/1"

_INFINITY = float("inf")
# the escapes json writes in place of a character, where it has a short one
_SHORT_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t",
}


def encode_json(value: Any) -> str:
    """value as json.dumps(value, sort_keys=True, separators=(",", ":"))
    writes it, for the values a report holds: dicts, lists and tuples of
    str, int, float, bool and None, nested.  With json's other defaults,
    every character outside " " to "~" is escaped (ensure_ascii), and the
    floats nan and +-inf are written NaN and +-Infinity.  A dict key may
    be a str, int, float, bool or None, as json allows.  Any other value
    raises TypeError.  Importing json would cost every job more than a
    report takes to write."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple)):
        return f"[{','.join(map(encode_json, value))}]"
    if isinstance(value, dict):
        # sorted as json sorts them: by key, before keys are written
        return "{" + ",".join(
            f"{_key(k)}:{encode_json(v)}" for k, v in sorted(value.items())
        ) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key: object) -> str:
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{encode_json(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _string(text: str) -> str:
    """text as a JSON string with json's ASCII escapes."""
    if text.isascii() and text.isprintable():  # all of " " to "~"
        if '"' in text or "\\" in text:
            text = text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{text}"'
    return f'"{"".join(map(_char, text))}"'


def _char(char: str) -> str:
    escape = _SHORT_ESCAPES.get(char)
    if escape is not None:
        return escape
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    # outside the basic plane: a UTF-16 surrogate pair, as json writes it
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


class InternalConsistencyError(AssertionError):
    """Two computations of one fact disagree: the ULC => log-concave =>
    unimodal chain of a shape verdict, or a PF minor witness and the
    real-rootedness verdict.  Something is broken."""


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
        return encode_json(
            {
                "schema": self.schema,
                "version": self.version,
                "kind": self.kind,
                "target": self.target,
                "verdict": self.verdict,
                "details": self.details,
                "witnesses": self.witnesses,
                "timings": self.timings,
            }
        )
