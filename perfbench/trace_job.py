"""Run one darcais CLI job with the layer tracer installed.

    python3 perfbench/trace_job.py TRACE_FILE -- <darcais arguments>

Behaves like ``python3 -m darcais.cli <darcais arguments>`` (same stdout,
stderr and exit code) and writes the job's spans, aggregates and counters
to TRACE_FILE as JSON when the job ends.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from tracer import Tracer, install


def run(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: trace_job.py TRACE_FILE -- <darcais arguments>\n")
        return 2
    trace_file, job_args = argv[0], argv[2:]
    tracer = Tracer(job_id=Path(trace_file).stem)
    install(tracer)
    from darcais import cli

    main = tracer.span("cli.main", cli.main)
    start = time.perf_counter()
    try:
        return main(job_args)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_file, time.perf_counter() - start)


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
