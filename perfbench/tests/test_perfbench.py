"""The benchmark's own checks.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

They run the benchmark itself, so they take a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from harness import REFERENCE_S, isolation_problem, tail_percentile  # noqa: E402
from run import to_reference_s  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_list_is_a_function_of_workload_and_seed(workload):
    jobs = workloads.job_list(workload, 3)
    assert jobs == workloads.job_list(workload, 3)
    assert jobs != workloads.job_list(workload, 4)
    assert set(jobs) <= set(workloads.domain(workload))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_round_draws_each_stratum_once(workload):
    size = workloads.round_size(workload)
    jobs = workloads.job_list(workload, 7, rounds=3)
    for first in range(0, len(jobs), size):
        strata = sorted(workloads.stratum_index(workload, job) for job in jobs[first:first + size])
        assert strata == list(range(size))


def test_strip_linear_sizes_are_not_pentagonal():
    assert workloads._not_pentagonal(32, 42) == (32, 42)
    with pytest.raises(ValueError):
        workloads._not_pentagonal(35)


def test_every_drawable_job_has_an_expected_output():
    drawable = [job for name in workloads.WORKLOADS for job in workloads.domain(name)]
    drawable += workloads.PROBE_JOBS
    missing = [workloads.key(job) for job in drawable
               if workloads.key(job) not in EXPECTED["jobs"]]
    assert not missing


def test_tail_percentile_does_not_move_with_the_number_of_rounds():
    values = [float(v) for v in range(1, 51)]
    value, pct, beyond = tail_percentile(values)
    assert (round(value, 9), pct, beyond) == (45.1, 90, 5)
    # Ten job kinds of distinct cost, three or four rounds of each.
    kinds = [float(k) for k in range(1, 11)]
    assert round(tail_percentile(kinds * 3)[0], 9) == round(tail_percentile(kinds * 4)[0], 9) == 9.1


def test_reference_seconds_follow_the_nearest_reference_times():
    walls = [1.0] * 8
    assert to_reference_s(walls, [REFERENCE_S] * 8) == walls
    # The machine runs at half speed for the last four jobs.
    slow = to_reference_s(walls, [REFERENCE_S] * 4 + [2 * REFERENCE_S] * 4, half=1)
    assert slow[:3] == [1.0] * 3 and slow[5:] == [0.5] * 3


def test_isolation_check_rejects_overlap_and_width():
    def report(intervals, count):
        return json.dumps({"details": {"real_root_count": count, "intervals": [
            {"lower": lo, "upper": hi, "count": 1} for lo, hi in intervals]}}).encode()

    job = ("roots", "--n", "5", "--isolate", "--max-width", "1/4")
    assert isolation_problem(job, report([("-1", "-3/4"), ("-1/2", "-1/4")], 2)) is None
    assert "overlap" in isolation_problem(job, report([("-1", "-3/4"), ("-7/8", "-5/8")], 2))
    assert "wider" in isolation_problem(job, report([("-1", "0")], 1))
    assert "intervals for" in isolation_problem(job, report([("-1", "-3/4")], 2))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, seed=1, seconds=1, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_exactly(workload):
    first = bench(workload, seed=5, seconds=1, trace=1)
    second = bench(workload, seed=5, seconds=1, trace=1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    counters = [name for name, unit in want.items()
                if unit != "s" and name != "trace.overhead_frac"]
    assert counters
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name
