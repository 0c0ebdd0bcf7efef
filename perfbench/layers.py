"""Per-layer metrics from the trace files of one traced run.

Times (unit s) and counts are summed over every traced job of the run;
chain_length, chain_max_bits and witness_order are the largest seen; the
ratios are ratios of those sums.  Counts and sizes depend only on the
jobs, so two traced runs of one seed give them exactly.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from harness import JobResult

ROUTES = ("recursion", "full_hooks", "trivial_legs", "trivial_arms", "binomials")

# (metric, unit) in print order; BENCHMARK.json lists the same names.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("process.startup_s", "s"),
    ("cli.main.self_s", "s"),
    ("reports.to_json.self_s", "s"),
    ("polynomials.recursion.self_s", "s"),
    ("polynomials.records_computed", "count"),
    ("polynomials.records_loaded", "count"),
    ("polynomials.q_scaled_coeffs.self_s", "s"),
    ("shape.is_unimodal.self_s", "s"),
    ("shape.is_log_concave.self_s", "s"),
    ("shape.is_ultra_log_concave.self_s", "s"),
    ("polynomials.verify_identity.self_s", "s"),
    *((f"polynomials.route.{route}_s", "s") for route in ROUTES),
    ("partitions.enumerate_partitions.count", "count"),
    ("partitions.enumerate_partitions.self_s", "s"),
    ("partitions.hooks.calls", "count"),
    ("partitions.hooks.self_s", "s"),
    ("rootcert.sturm_build.calls", "count"),
    ("rootcert.sturm_build.self_s", "s"),
    ("rootcert.chain_length", "count"),
    ("rootcert.chain_max_bits", "bits"),
    ("rootcert.sturm_builds_per_poly", "ratio"),
    ("rootcert.variations_at.calls", "count"),
    ("rootcert.variations_at.self_s", "s"),
    ("rootcert.isolate_real_roots.self_s", "s"),
    ("rootcert.is_square_free.self_s", "s"),
    ("rootcert.square_free_part.self_s", "s"),
    ("rootcert.count_real_roots.self_s", "s"),
    ("rootcert.all_real_roots_negative.self_s", "s"),
    ("rootcert.hurwitz_stable.self_s", "s"),
    ("exactnum.poly_gcd.self_s", "s"),
    ("exactnum.poly_divmod.self_s", "s"),
    ("exactnum.ExactPoly.__call__.calls", "count"),
    ("exactnum.ExactPoly.__call__.s", "s"),
    ("pf_tnn.pf_test.self_s", "s"),
    ("pf_tnn.toeplitz_minor.calls", "count"),
    ("pf_tnn.toeplitz_minor.self_s", "s"),
    ("pf_tnn.witness_order", "count"),
    ("pf_tnn.minor_yield", "ratio"),
    ("cache.read_cache.self_s", "s"),
    ("cache.read_bytes", "bytes"),
    ("cache.load_into_memo.self_s", "s"),
    ("cache.write_cache.self_s", "s"),
    ("cache.write_bytes", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Totals:
    """Spans and aggregates of several trace files, summed by name."""

    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    total_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    maxima: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    main_s: float = 0.0

    def add(self, trace_file: Path) -> None:
        data = json.loads(Path(trace_file).read_text(encoding="utf-8"))
        self.main_s += data["main_s"]
        for name, start, end, _parent, own in data["spans"]:
            self.self_s[name] += own
            self.total_s[name] += end - start
            self.calls[name] += 1
        for name, (count, total, own) in data["aggregates"].items():
            self.calls[name] += count
            self.total_s[name] += total
            self.self_s[name] += own
        for name, value in data["counters"].items():
            self.counters[name] += value
        for name, value in data["maxima"].items():
            self.maxima[name] = max(self.maxima[name], value)


def summarize(traced: list[JobResult], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from every traced job of a run (probe jobs
    included), plus the tracing overhead the caller measured."""
    t = Totals()
    for result in traced:
        t.add(result.trace_file)
    calls, counters, maxima = t.calls, t.counters, t.maxima
    startup = sum(r.wall_s for r in traced) - t.main_s

    polys = sum(1 for r in traced if r.job[0] in ("roots", "pf"))
    loaded = counters["polynomials.records_loaded"]
    computed = counters["polynomials.records_computed"]
    metrics = {
        "process.startup_s": startup,
        "polynomials.records_computed": computed,
        "polynomials.records_loaded": loaded,
        "partitions.enumerate_partitions.count": counters["partitions.enumerate_partitions"],
        "partitions.hooks.calls": calls["partitions.hooks"],
        "rootcert.sturm_build.calls": calls["rootcert.sturm_build"],
        "rootcert.chain_length": maxima["chain_length"],
        "rootcert.chain_max_bits": maxima["chain_max_bits"],
        "rootcert.sturm_builds_per_poly": _ratio(calls["rootcert.sturm_build"], polys),
        "rootcert.variations_at.calls": calls["rootcert.variations_at"],
        "exactnum.ExactPoly.__call__.calls": calls["exactnum.ExactPoly.__call__"],
        "exactnum.ExactPoly.__call__.s": t.total_s["exactnum.ExactPoly.__call__"],
        "pf_tnn.toeplitz_minor.calls": calls["pf_tnn.toeplitz_minor"],
        "pf_tnn.witness_order": maxima["witness_order"],
        "pf_tnn.minor_yield": _ratio(counters["pf.witnesses"], calls["pf_tnn.toeplitz_minor"]),
        "cache.read_bytes": counters["cache.read_bytes"],
        "cache.write_bytes": counters["cache.write_bytes"],
        "cache.hit_ratio": _ratio(loaded, loaded + computed),
        "trace.overhead_frac": overhead_frac,
    }
    for route in ROUTES:
        metrics[f"polynomials.route.{route}_s"] = counters[f"route.{route}_s"]
    for name, _unit in PER_LAYER:
        if name.endswith(".self_s") and name not in metrics:
            metrics[name] = t.self_s[name[: -len(".self_s")]]
    return {name: metrics[name] for name, _unit in PER_LAYER}


if __name__ == "__main__":
    # python3 perfbench/layers.py TRACE_FILE...: self time, total time and
    # calls per traced name, summed over the files, as JSON.
    totals = Totals()
    for path in sys.argv[1:]:
        totals.add(Path(path))
    print(json.dumps({
        "cli.main_s": totals.main_s,
        "layers": {name: {"calls": totals.calls[name], "self_s": totals.self_s[name],
                          "total_s": totals.total_s[name]}
                   for name in sorted(totals.calls)},
        "counters": totals.counters,
        "maxima": totals.maxima,
    }, indent=1, sort_keys=True))
