"""Running one CLI job in a fresh process and checking what it printed."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_ENTRY = Path(__file__).resolve().parent / "trace_job.py"


@dataclass
class JobResult:
    job: tuple[str, ...]  # template argv, placeholders kept
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stdout: bytes
    trace_file: Path | None = None
    cache_tail: str | None = None  # last line of a cache the job may extend


def job_env(tmp: Path) -> dict[str, str]:
    """A controlled environment: only the source tree on the path, no
    DARCAIS_CACHE, home and temp inside the run's directory."""
    return {
        "PATH": os.defpath,
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C",
        "HOME": str(tmp),
        "TMPDIR": str(tmp),
    }


def run_job(job: tuple[str, ...], paths: dict[str, str], tmp: Path,
            trace_file: Path | None = None) -> JobResult:
    """Spawn one job, wait for it, and return its wall time, exit code,
    peak RSS and stdout.  With trace_file the job runs under the tracing
    entry script, which writes its spans there."""
    argv = [paths.get(tok, tok) for tok in job]
    if trace_file is None:
        cmd = [sys.executable, "-m", "darcais.cli", *argv]
    else:
        cmd = [sys.executable, str(TRACE_ENTRY), str(trace_file), "--", *argv]
    out_path = tmp / "job.stdout"
    err_path = tmp / "job.stderr"
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, job_env(tmp), file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return JobResult(
        job=job,
        wall_s=wall,
        exit_code=os.waitstatus_to_exitcode(status),
        maxrss_kb=usage.ru_maxrss,
        stdout=out_path.read_bytes(),
        trace_file=trace_file,
    )


# The reference loop's typical time on the two-vCPU machine the benchmark
# was built on.  It only sets the scale of the reported times.
REFERENCE_S = 0.025


def reference_s() -> float:
    """Time one pass of a fixed loop in this process: big-integer modular
    arithmetic, list and dict work, the kind of work darcais does.  It
    imports nothing from darcais, so no change to the program moves it;
    it moves only with the speed of the machine."""
    start = time.perf_counter()
    x = 7 ** 300
    acc, low = 1, []
    for i in range(6000):
        acc = (acc * x + i) % (x + 12345)
        low.append(acc & 0xFFFF)
    low.sort()
    {v: i for i, v in enumerate(low)}
    return time.perf_counter() - start


def is_isolation(job: tuple[str, ...]) -> bool:
    return job[0] == "roots" and "--isolate" in job


def normalize(stdout: bytes) -> str:
    """Stdout with the timings field and the isolation intervals removed.

    Report lines are JSON objects; they are re-serialized with sorted keys
    after dropping `timings` (which legitimately differs run to run) and
    `details.intervals` (checked for validity instead, since a faster
    isolation may pick other intervals).  Other lines are kept as printed.
    """
    lines = []
    for line in stdout.decode().splitlines():
        try:
            report = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        if isinstance(report, dict):
            report.pop("timings", None)
            details = report.get("details")
            if isinstance(details, dict):
                details.pop("intervals", None)
            line = json.dumps(report, sort_keys=True, separators=(",", ":"))
        lines.append(line)
    return "\n".join(lines)


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest(stdout: bytes) -> str:
    return hashlib.sha256(normalize(stdout).encode()).hexdigest()


def isolation_problem(job: tuple[str, ...], stdout: bytes) -> str | None:
    """Why the isolating intervals of a roots job are invalid, or None.

    Valid means: one interval per counted real root, each of count 1 and
    width at most --max-width, sorted and pairwise disjoint.
    """
    max_width = Fraction(job[job.index("--max-width") + 1]) if "--max-width" in job else Fraction(1)
    try:
        details = json.loads(stdout.decode().splitlines()[0])["details"]
        intervals = [
            (Fraction(iv["lower"]), Fraction(iv["upper"]), iv["count"])
            for iv in details["intervals"]
        ]
        expected_count = details["real_root_count"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable isolation report: {exc!r}"
    if len(intervals) != expected_count:
        return f"{len(intervals)} intervals for {expected_count} real roots"
    for lower, upper, count in intervals:
        if count != 1:
            return f"interval ({lower}, {upper}] has count {count}"
        if not 0 < upper - lower <= max_width:
            return f"interval ({lower}, {upper}] is wider than {max_width}"
    for (_, upper, _), (lower, _, _) in zip(intervals, intervals[1:]):
        if upper > lower:
            return f"intervals overlap or are unsorted at {upper} > {lower}"
    return None


def check(result: JobResult, expected: dict[str, dict]) -> str | None:
    """Compare one job with its expected exit code and stdout; returns the
    reason it failed, or None when it is correct."""
    want = expected.get(key(result.job))
    if want is None:
        return "no expected output recorded for this job"
    if result.exit_code != want["exit"]:
        return f"exit code {result.exit_code}, expected {want['exit']}"
    if digest(result.stdout) != want["sha256"]:
        return "stdout differs from the expected output"
    if is_isolation(result.job):
        return isolation_problem(result.job, result.stdout)
    if result.cache_tail is not None:
        record = f"{result.job[2]}: {result.stdout.decode().strip()}"
        if result.cache_tail != record:
            return "the cache copy does not end with the printed record"
    return None


def last_line(path: Path, window: int = 1 << 20) -> str:
    """The last line of a text file, reading at most its final `window` bytes."""
    with open(path, "rb") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - window))
        return fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]


def tail_percentile(values: list[float], pct: int = 90) -> tuple[float, int, int]:
    """The pct-th percentile, interpolated between the two nearest samples
    (``statistics.quantiles``, inclusive method).

    Returns (value, percentile, samples beyond).  The percentile is fixed,
    not the highest one with ten samples beyond it: that one moves with the
    number of jobs a run completes, which follows the machine's speed, and
    in a job mix of kinds with distinct costs it then jumps from one kind
    to the next.  The 90th has ten samples beyond it from 100 jobs on.
    """
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return value, pct, sum(1 for v in values if v > value)
