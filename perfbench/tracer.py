"""In-process tracing of the darcais layers, installed from outside.

The tracing entry script (trace_job.py) calls install() and then runs
``darcais.cli.main``.  install() replaces each traced function with a
wrapper under the name its caller looks it up by: a module attribute
such as ``rootcert.poly_gcd``, or a class attribute such as
``SturmChain.variations_at``.  Nothing under src/ is edited.

Two kinds of wrapper:

* a span records name, start, end, parent span and the job id; its self
  time is its duration minus the time covered by what it called that was
  traced;
* an aggregate, for callees inside hot loops, records only a call count,
  total time and self time, so the trace does not grow with every call.

Spans, aggregates and counters stay in memory and are written once, as
JSON, when the job ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from functools import wraps

_clock = time.perf_counter


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        # [name, start, end, parent span index, self seconds]
        self.spans: list[list] = []
        # open frames: [span index or -1, seconds covered by traced callees]
        self.stack: list[list] = []
        self.aggregates: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def _parent_span(self) -> int:
        for index, _ in reversed(self.stack):
            if index >= 0:
                return index
        return -1

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(result, *args) may record counters."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._parent_span(), 0.0]
            self.spans.append(record)
            frame = [index, 0.0]
            self.stack.append(frame)
            start = _clock()
            record[1] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self.stack.pop()
                record[2] = end
                record[4] = end - start - frame[1]
                if self.stack:
                    self.stack[-1][1] += end - start
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def _enter(self) -> list:
        frame = [-1, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, start: float) -> None:
        elapsed = _clock() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += elapsed
        agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - frame[1]

    def aggregate(self, name: str, fn):
        """Wrap a hot-loop callee: count, total and self time only."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, frame, start)

        return wrapper

    def aggregate_generator(self, name: str, fn):
        """Wrap a generator function: each step of it is one aggregated
        call, timed while the generator computes its next item; the items
        themselves are counted under `name`."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame = self._enter()
                start = _clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._leave(name, frame, start)
                self.counters[name] += 1
                yield item

        return wrapper

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, -1):
            self.maxima[name] = value

    def dump(self, path: str, main_s: float) -> None:
        data = {
            "job": self.job_id,
            "main_s": main_s,
            "spans": self.spans,
            "aggregates": self.aggregates,
            "counters": dict(self.counters),
            "maxima": self.maxima,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced darcais function where its caller looks it up."""
    from darcais import cache, cli, exactnum, partitions, pf_tnn, polynomials
    from darcais import reports, rootcert, shape

    span, agg = tracer.span, tracer.aggregate

    # reports: JSON rendering of every report line
    reports.CertReport.to_json = span("reports.to_json", reports.CertReport.to_json)

    # polynomials: the divisor-sum recursion and the Taylor shift
    def count_records(key):
        def wrap(fn):
            def counted(*args, **kwargs):
                before = len(polynomials._SCALED)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.counters[key] += len(polynomials._SCALED) - before
            return counted
        return wrap

    polynomials._ensure_scaled = span(
        "polynomials.recursion",
        count_records("polynomials.records_computed")(polynomials._ensure_scaled),
    )
    polynomials.seed_records = span(
        "polynomials.seed_records",
        count_records("polynomials.records_loaded")(polynomials.seed_records),
    )
    polynomials.q_scaled_coeffs = span("polynomials.q_scaled_coeffs",
                                       polynomials.q_scaled_coeffs)

    def route_times(report, *args):
        for route, seconds in report.timings.items():
            tracer.counters[f"route.{route}_s"] += seconds

    polynomials.verify_identity = span("polynomials.verify_identity",
                                       polynomials.verify_identity, after=route_times)

    # partitions, as the identity routes call them
    polynomials.enumerate_partitions = tracer.aggregate_generator(
        "partitions.enumerate_partitions", partitions.enumerate_partitions)
    partitions.Partition.hooks = agg("partitions.hooks", partitions.Partition.hooks)

    # shape predicates, as shape_summary calls them
    for name in ("is_unimodal", "is_log_concave", "is_ultra_log_concave"):
        setattr(shape, name, span(f"shape.{name}", getattr(shape, name)))

    # rootcert
    def chain_sizes(chain, *args):
        tracer.note_max("chain_length", len(chain.members))
        tracer.note_max("chain_max_bits", max(
            abs(c.numerator).bit_length() for m in chain.members for c in m.coeffs))

    rootcert.SturmChain.build = staticmethod(
        span("rootcert.sturm_build", rootcert.SturmChain.build, after=chain_sizes))
    rootcert.SturmChain.variations_at = agg("rootcert.variations_at",
                                            rootcert.SturmChain.variations_at)
    for name in ("isolate_real_roots", "is_square_free", "square_free_part",
                 "count_real_roots", "all_real_roots_negative", "hurwitz_stable",
                 "is_real_rooted"):
        setattr(rootcert, name, span(f"rootcert.{name}", getattr(rootcert, name)))

    # exactnum, under the names rootcert and cli imported
    rootcert.poly_gcd = span("exactnum.poly_gcd", exactnum.poly_gcd)
    divmod_span = span("exactnum.poly_divmod", exactnum.poly_divmod)
    rootcert.poly_divmod = divmod_span
    cli.poly_divmod = divmod_span
    exactnum.ExactPoly.__call__ = agg("exactnum.ExactPoly.__call__",
                                      exactnum.ExactPoly.__call__)

    # pf_tnn
    def witness(verdict, *args):
        if verdict.witness is not None:
            tracer.counters["pf.witnesses"] += 1
            tracer.note_max("witness_order", verdict.witness.spec.order)

    pf_tnn.pf_test = span("pf_tnn.pf_test", pf_tnn.pf_test, after=witness)
    pf_tnn.toeplitz_minor = span("pf_tnn.toeplitz_minor", pf_tnn.toeplitz_minor)

    # cache, as cli and load_into_memo call it
    def bytes_read(result, path, *args):
        tracer.counters["cache.read_bytes"] += os.path.getsize(path)

    def bytes_written(result, path, *args):
        tracer.counters["cache.write_bytes"] += os.path.getsize(path)

    cache.read_cache = span("cache.read_cache", cache.read_cache, after=bytes_read)
    cache.load_into_memo = span("cache.load_into_memo", cache.load_into_memo)
    cache.write_cache = span("cache.write_cache", cache.write_cache, after=bytes_written)
