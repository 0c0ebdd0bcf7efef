"""Job lists for the two benchmark workloads.

A job is the argv of one ``darcais`` CLI invocation, as a tuple of
strings.  Placeholders stand for paths that only exist at run time:
``{cache}`` is the record cache built during set-up, ``{copy}`` is a
fresh copy of it that a job may extend, and ``{probe}`` is the cache the
probe jobs build and read.  The job template with the
placeholders left in is the key of the expected-output table.

Each workload is a list of strata.  A round draws one job from every
stratum (one size from its range) and shuffles them; the job list is a
run of rounds.  Every seed therefore gets the same mix of job kinds and
sizes, which keeps the end-to-end numbers steady across seeds, while the
order, and the exact sizes of the shape sweeps, change.  The job list is
a pure function of (workload, seed).

Why each workload exists and which layer it isolates is written up in
README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

# Largest n in the record cache built during set-up for `shape`.
CACHE_MAX_N = 215

# Rounds per job list.  At the parent commit one timed run uses four to
# seven rounds, so the list leaves room for a tenfold speed-up before it
# wraps.
ROUNDS = 100

CACHE = "{cache}"
COPY = "{copy}"
PROBE = "{probe}"  # the cache file the probe jobs share


@dataclass(frozen=True)
class Stratum:
    """One job template and the sizes one draw may pick from."""

    template: tuple[str, ...]  # "{n}" marks the size
    sizes: tuple[int, ...]

    def job(self, n: int) -> tuple[str, ...]:
        return tuple(str(n) if tok == "{n}" else tok for tok in self.template)


def _pentagonal_numbers(limit: int) -> set[int]:
    """Generalized pentagonal numbers k(3k-1)/2, k = 0, +-1, +-2, ..."""
    out: set[int] = set()
    k = 0
    while k * (3 * k - 1) // 2 <= limit:
        out.add(k * (3 * k - 1) // 2)
        out.add(k * (3 * k + 1) // 2)
        k += 1
    return out


# pf jobs bound the minor search at order 12: at these n, a sequence with
# no small negative minor exhausts the default search (order 32) in 4-12 s,
# which would let a few jobs set the whole workload's numbers.
#
# By Euler's pentagonal theorem P_n(-1) = [q^n] prod (1 - q^m), which is
# nonzero exactly at generalized pentagonal n; there --strip-linear=-1
# refuses the non-root and exits 2, so those n are never drawn.
_PENTAGONAL = _pentagonal_numbers(1000)


def _not_pentagonal(*sizes: int) -> tuple[int, ...]:
    bad = [n for n in sizes if n in _PENTAGONAL]
    if bad:
        raise ValueError(f"-1 is not a root of P_n at n = {bad}")
    return sizes


def _bands(lo: int, hi: int, count: int, width: int) -> list[tuple[int, ...]]:
    """`count` bands of `width` consecutive sizes, spread evenly from lo to hi.

    Narrow bands keep the cost of a round nearly the same for every seed,
    so the seed changes sizes and order without changing the load.
    """
    starts = [lo + round(i * (hi - width + 1 - lo) / (count - 1)) for i in range(count)]
    return [tuple(range(start, start + width)) for start in starts]


def _strata(template: tuple[str, ...], lo: int, hi: int, count: int,
            width: int = 3) -> list[Stratum]:
    return [Stratum(template, band) for band in _bands(lo, hi, count, width)]


def _fixed(template: tuple[str, ...], *sizes: int) -> list[Stratum]:
    """One stratum per size.  Used where one step in n changes a job's cost
    by 10-50% (the partition and root-isolation jobs) or unevenly (pf,
    whose witness order jumps with n): a band there would let the seed
    move a round's cost, so the seed only orders these jobs."""
    return [Stratum(template, (n,)) for n in sizes]


# Two workloads, so that each run can be long (see README.md): `certify`
# runs the exact certificates (Sturm chains, gcds, Routh tables, Toeplitz
# minors, partition routes) and never reaches the recursion beyond n = 67
# or the cache; `shape` runs the recursion, the Taylor shift, the shape
# predicates and the cache, and never reaches `rootcert`, `pf_tnn` or
# `partitions`.  Only the shape sweeps, whose cost grows smoothly (about
# n^3, 3% a step), draw their sizes from bands.
WORKLOADS: dict[str, list[Stratum]] = {
    "certify": [
        *_fixed(("roots", "--n", "{n}", "--hurwitz"), 41, 49, 58, 66),
        *_fixed(("roots", "--n", "{n}", "--isolate", "--max-width", "1/64"), 12, 15, 18),
        *_fixed(("pf", "--n", "{n}", "--max-order", "12"), 31, 41, 50, 60),
        *_fixed(("pf", "--n", "{n}", "--max-order", "12", "--strip-linear=-1"),
                *_not_pentagonal(32, 42, 50, 60)),
        *_fixed(("verify", "--conjecture", "1", "--max-n", "{n}", "--force"), 18, 22, 26),
        *_fixed(("verify", "--conjecture", "no", "--max-n", "{n}", "--force"), 14, 18, 22),
        *_fixed(("verify", "--conjecture", "corollary", "--max-n", "{n}", "--force"),
                18, 22, 26),
    ],
    "shape": [
        *_strata(("shape", "--max-n", "{n}"), 120, 215, 5),
        *_strata(("shape", "--max-n", "{n}", "--cache", CACHE), 120, 215, 5),
        # Four cache writers per round; each extends a fresh copy of the
        # set-up cache by one to four records.
        *_fixed(("poly", "--n", "{n}", "--normalized", "--cache", COPY),
                *range(CACHE_MAX_N + 1, CACHE_MAX_N + 5)),
    ],
}

# Tiny jobs that run at the start of every traced run, whatever the
# workload.  Together they reach every traced layer, so no per-layer
# metric reads as an exact zero; their share is fixed and small.
PROBE_JOBS: tuple[tuple[str, ...], ...] = (
    ("roots", "--n", "8", "--isolate", "--max-width", "1/4", "--hurwitz"),
    ("pf", "--n", "8", "--strip-linear=-1"),
    ("verify", "--conjecture", "1", "--max-n", "4"),
    ("verify", "--conjecture", "no", "--max-n", "4"),
    ("verify", "--conjecture", "corollary", "--max-n", "4"),
    ("poly", "--n", "6", "--normalized", "--cache", PROBE),
    ("shape", "--max-n", "6", "--cache", PROBE),
    ("poly", "--n", "7", "--normalized", "--cache", PROBE),
)


def round_size(workload: str) -> int:
    return len(WORKLOADS[workload])


def stratum_index(workload: str, job: tuple[str, ...]) -> int:
    """The stratum of the workload that a job of its list was drawn from."""
    for index, stratum in enumerate(WORKLOADS[workload]):
        if any(stratum.job(n) == job for n in stratum.sizes):
            return index
    raise ValueError(f"{' '.join(job)!r} is not a job of {workload}")


def job_list(workload: str, seed: int, rounds: int = ROUNDS) -> list[tuple[str, ...]]:
    """The jobs of one run, in order: a pure function of (workload, seed)."""
    strata = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[tuple[str, ...]] = []
    for _ in range(rounds):
        batch = [s.job(rng.choice(s.sizes)) for s in strata]
        rng.shuffle(batch)
        jobs.extend(batch)
    return jobs


def job_list_digest(jobs: list[tuple[str, ...]]) -> str:
    return hashlib.sha256(json.dumps(jobs).encode()).hexdigest()


def domain(workload: str) -> list[tuple[str, ...]]:
    """Every job the generator can draw for the workload, without repeats."""
    seen: dict[tuple[str, ...], None] = {}
    for stratum in WORKLOADS[workload]:
        for n in stratum.sizes:
            seen[stratum.job(n)] = None
    return list(seen)


def key(job: tuple[str, ...]) -> str:
    """Expected-output table key: the template argv, placeholders kept."""
    return " ".join(job)
