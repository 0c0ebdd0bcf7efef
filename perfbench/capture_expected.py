"""Record the expected output of every job the benchmark can run.

    python3 perfbench/capture_expected.py

Runs, once each and untraced, every job any workload's generator can
draw, the probe jobs and the set-up jobs, on the source tree of the
current checkout, and writes expected.json: per job its exit code and the
SHA-256 of its stdout with timings and isolation intervals removed, plus
the SHA-256 of the record cache that set-up builds.  Run it on the commit
whose behaviour is the reference, never on a change under test.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

import workloads
from harness import digest, file_sha256, is_isolation, isolation_problem
from run import (BUILD_CACHE_JOB, EXPECTED, RUN_DIR, WARM_UP_JOB, run_one, run_paths,
                 source_identity)
from workloads import CACHE


def main() -> int:
    jobs = [WARM_UP_JOB, BUILD_CACHE_JOB]
    for name in workloads.WORKLOADS:
        jobs.extend(workloads.domain(name))
    jobs.extend(workloads.PROBE_JOBS)  # in order: they share one cache file

    table: dict[str, dict] = {}
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as scratch:
        tmp = Path(scratch)
        paths = run_paths(tmp)
        for index, job in enumerate(jobs, start=1):
            result = run_one(job, paths, tmp)
            if is_isolation(job) and (why := isolation_problem(job, result.stdout)):
                sys.stderr.write(f"invalid reference isolation for {' '.join(job)}: {why}\n")
                return 1
            table[workloads.key(job)] = {"exit": result.exit_code,
                                         "sha256": digest(result.stdout)}
            print(f"[{index}/{len(jobs)}] exit {result.exit_code} "
                  f"{result.wall_s:6.2f}s {' '.join(job)}", flush=True)
            if job == BUILD_CACHE_JOB:
                cache_sha256 = file_sha256(Path(paths[CACHE]))

    EXPECTED.write_text(json.dumps({
        "captured_from": {**source_identity(), "python": platform.python_version()},
        "cache_sha256": cache_sha256,
        "jobs": table,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} expected outputs to {EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
