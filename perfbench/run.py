"""The darcais benchmark: CLI jobs in fresh processes, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is
``src/darcais``, started as ``python3 -m darcais.cli`` with only ``src``
on its path.  One client runs jobs in a closed loop: the next job starts
when the previous one has exited.

--trace 0 runs the workload's job list for S seconds and reports the
end-to-end metrics, their times in reference seconds (see
to_reference_s).  --trace 1 runs a fixed set of jobs instead (the
probe jobs, then the first round of the job list, each round job once
untraced and once traced) and reports the per-layer metrics, so its
counters repeat exactly for a seed.

Every job's exit code and stdout are compared with the outputs recorded
in expected.json after the run, outside the timed loop.  The last line
of stdout is the result as one JSON object; the line before it records
the job list digest, the source hash, the Python version and the tail
percentile behind job_tail_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from harness import (REFERENCE_S, ROOT, SRC, JobResult, check, file_sha256, last_line,
                     reference_s, run_job, tail_percentile)
from layers import PER_LAYER, summarize
from workloads import CACHE, COPY, PROBE

EXPECTED = Path(__file__).resolve().parent / "expected.json"
RUN_DIR = ROOT / ".bench_run"

# Set-up is repeated and its median reported, so one slow repeat (such as
# the first, which compiles the .pyc files) does not set setup_s.
SETUP_REPEATS = 5
WARM_UP_JOB = ("poly", "--n", "1")
BUILD_CACHE_JOB = ("poly", "--n", str(workloads.CACHE_MAX_N), "--normalized",
                   "--cache", CACHE)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Prepared:
    jobs: list[tuple[str, ...]]
    paths: dict[str, str]
    expected: dict[str, dict]  # job key -> {"exit": ..., "sha256": ...}
    cache_sha256: str  # of the record cache BUILD_CACHE_JOB writes
    setup_results: list[JobResult]


def prepare(workload: str, seed: int, tmp: Path) -> Prepared:
    """One set-up: the job list, a warm-up job, the record cache for
    the `shape` workload, and the expected outputs."""
    jobs = workloads.job_list(workload, seed)
    paths = run_paths(tmp)
    setup_jobs = [WARM_UP_JOB]
    if any(CACHE in job or COPY in job for job in jobs):
        Path(paths[CACHE]).unlink(missing_ok=True)
        setup_jobs.append(BUILD_CACHE_JOB)
    setup_results = [run_job(job, paths, tmp) for job in setup_jobs]
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return Prepared(jobs, paths, expected["jobs"], expected["cache_sha256"], setup_results)


def check_setup(prep: Prepared) -> None:
    """Set-up outputs must be right before anything is timed against them."""
    for result in prep.setup_results:
        why = check(result, prep.expected)
        if why is not None:
            raise BenchError(f"set-up job {' '.join(result.job)!r}: {why}")
    if any(r.job == BUILD_CACHE_JOB for r in prep.setup_results):
        if file_sha256(Path(prep.paths[CACHE])) != prep.cache_sha256:
            raise BenchError("the record cache built in set-up differs from the expected one")


def run_one(job: tuple[str, ...], paths: dict[str, str], tmp: Path,
            trace_file: Path | None = None) -> JobResult:
    """Run a job; a cache writer gets a fresh copy of the set-up cache."""
    if COPY in job:
        shutil.copyfile(paths[CACHE], paths[COPY])
    result = run_job(job, paths, tmp, trace_file)
    if COPY in job:
        result.cache_tail = last_line(Path(paths[COPY]))
    return result


def run_paths(tmp: Path) -> dict[str, str]:
    return {CACHE: str(tmp / "records.txt"), COPY: str(tmp / "records-copy.txt"),
            PROBE: str(tmp / "probe-records.txt")}


def timed_run(prep: Prepared, seconds: float, tmp: Path,
              size: int) -> tuple[list[list[JobResult]], list[float], list[float]]:
    """Whole rounds of the job list, in order, ending at the round boundary
    nearest to `seconds`.  Whole rounds keep the job mix of a run the same
    for every seed.  After each job the reference loop is timed once.
    Returns the results, the wall time of each round and the reference
    times."""
    rounds: list[list[JobResult]] = []
    walls: list[float] = []
    references: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.mean(walls) / 2 < seconds:
        first = len(rounds) * size % len(prep.jobs)
        round_start = time.perf_counter()
        batch = []
        for job in prep.jobs[first:first + size]:
            batch.append(run_one(job, prep.paths, tmp))
            references.append(reference_s())
        rounds.append(batch)
        walls.append(time.perf_counter() - round_start)
    return rounds, walls, references


def traced_run(prep: Prepared, workload: str, tmp: Path) -> tuple[list[JobResult], list[JobResult]]:
    """Probe jobs traced, then the first round twice: untraced and traced,
    alternating which goes first.  Returns (traced, untraced)."""
    Path(prep.paths[PROBE]).unlink(missing_ok=True)
    traced = [run_one(job, prep.paths, tmp, tmp / f"trace-probe{k}.json")
              for k, job in enumerate(workloads.PROBE_JOBS)]
    untraced: list[JobResult] = []
    for k, job in enumerate(prep.jobs[: workloads.round_size(workload)]):
        for trace in ((False, True) if k % 2 == 0 else (True, False)):
            if trace:
                traced.append(run_one(job, prep.paths, tmp, tmp / f"trace-{k}.json"))
            else:
                untraced.append(run_one(job, prep.paths, tmp))
    return traced, untraced


def source_identity() -> dict[str, str | None]:
    """Commit hash when the checkout is a git repository, and a hash of
    the source tree either way."""
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": tree.hexdigest()}


def to_reference_s(walls: list[float], references: list[float], half: int = 2) -> list[float]:
    """Wall times in reference seconds.  references[i] is the reference
    loop timed just after walls[i]; each wall time is scaled by REFERENCE_S
    over the median reference time of the 2 * half + 1 measured nearest it.

    The machine this runs on changes speed by 20-50% from one spell of
    seconds or minutes to the next; the reference loop changes with it and
    the program under test cannot move it, so times in reference seconds
    compare across spells where wall times do not."""
    return [wall * REFERENCE_S / statistics.median(references[max(0, i - half):i + half + 1])
            for i, wall in enumerate(walls)]


def job_metrics(workload: str, results: list[JobResult], times: list[float],
                failed: set[int]) -> tuple[dict[str, float], dict]:
    """jobs_per_s is the jobs of one round over the time of a typical round,
    scaled by the share of jobs with correct output.  A typical round takes,
    for each stratum, the median time of its jobs over the run, so a job
    slowed by something outside the benchmark does not set it; the
    harness's own time between jobs is left out."""
    tail, pct, beyond = tail_percentile(times)
    by_stratum: dict[int, list[float]] = {}
    for r, t in zip(results, times):
        by_stratum.setdefault(workloads.stratum_index(workload, r.job), []).append(t)
    typical_round = sum(statistics.median(t) for t in by_stratum.values())
    correct_share = 1 - sum(1 for r in results if id(r) in failed) / len(results)
    metrics = {
        "jobs_per_s": len(by_stratum) / typical_round * correct_share,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
    }
    return metrics, {"percentile": pct, "samples": len(times), "beyond": beyond}


def end_to_end(workload: str, rounds: list[list[JobResult]], round_walls: list[float],
               references: list[float], failed: set[int], setup_times: list[float],
               setup_references: list[float]) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics, every time in reference seconds; the same
    metrics from wall-clock times go into the detail record."""
    results = [r for batch in rounds for r in batch]
    walls = [r.wall_s for r in results]
    metrics, tail = job_metrics(workload, results, to_reference_s(walls, references), failed)
    metrics["peak_rss_mb"] = max(r.maxrss_kb for r in results) / 1024
    metrics["setup_s"] = statistics.median(to_reference_s(setup_times, setup_references,
                                                          half=len(setup_times)))
    wall_metrics, _ = job_metrics(workload, results, walls, failed)
    wall_metrics["setup_s"] = statistics.median(setup_times)
    detail = {"job_tail": tail, "rounds": len(rounds), "round_walls_s": round_walls,
              "reference_s": {"median": statistics.median(references),
                              "min": min(references), "max": max(references)},
              "wall_clock_metrics": wall_metrics}
    return metrics, detail


UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s", **dict(PER_LAYER)}


def bench(workload: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    setup_times, setup_references = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prep = prepare(workload, seed, tmp)
        setup_times.append(time.perf_counter() - start)
        setup_references.append(reference_s())
    check_setup(prep)

    if trace:
        traced, untraced = traced_run(prep, workload, tmp)
        results = traced + untraced
    else:
        rounds, round_walls, references = timed_run(prep, seconds, tmp,
                                                    workloads.round_size(workload))
        results = [r for batch in rounds for r in batch]

    failures = [(r, why) for r in results if (why := check(r, prep.expected)) is not None]
    for result, why in failures[:5]:
        sys.stderr.write(f"wrong output: {' '.join(result.job)}: {why}\n")

    if trace:
        round_traced = traced[len(workloads.PROBE_JOBS):]
        overhead = (sum(r.wall_s for r in round_traced)
                    / sum(r.wall_s for r in untraced)) - 1.0
        metrics, detail = summarize(traced, overhead), {}
    else:
        metrics, detail = end_to_end(workload, rounds, round_walls, references,
                                     {id(r) for r, _ in failures}, setup_times,
                                     setup_references)

    detail.update({
        "workload": workload, "seed": seed, "trace": int(trace),
        **source_identity(),
        "python": platform.python_version(),
        "job_list_sha256": workloads.job_list_digest(prep.jobs),
        "jobs_run": len(results),
        "error_rate": len(failures) / len(results),
        "setup_s_repeats": setup_times,
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "darcais" / "cli.py").is_file():
        sys.stderr.write(f"no darcais sources under {SRC}; run from a source checkout\n")
        return 2
    if not EXPECTED.is_file():
        sys.stderr.write(f"missing {EXPECTED}\n")
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = RUN_DIR / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        sys.stderr.write(f"benchmark set-up failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
