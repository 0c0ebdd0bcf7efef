"""On-disk store for integer-normalized polynomial records.

Plain text, deliberately simple:

    DARCAIS-CACHE v1
    1: 1
    2: 3 1
    3: 8 9 1
    ...

One record per line, n strictly increasing from 1 with no gaps, each
carrying the n positive integers a_0..a_{n-1} of the normalized record
(leading coefficient always 1).  The reader validates all of that and
refuses a malformed file outright - a corrupt cache is an error to
surface, not something to silently recompute around.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import polynomials

CACHE_HEADER = "DARCAIS-CACHE v1"
CACHE_ENV_VAR = "DARCAIS_CACHE"


class CacheError(ValueError):
    """The cache file is missing, malformed, or inconsistent."""


def read_cache(path: str | Path) -> dict[int, tuple[int, ...]]:
    """Parse and validate a cache file; returns {n: (a_0..a_{n-1})}."""
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CacheError(f"cache file {path} is not ASCII text") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != CACHE_HEADER:
        raise CacheError(
            f"bad cache header in {path}: expected {CACHE_HEADER!r}, "
            f"got {lines[0].strip()!r}" if lines else f"empty cache file {path}"
        )
    records: dict[int, tuple[int, ...]] = {}
    expected = 1
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise CacheError(f"{path}:{lineno}: record missing ':' separator")
        try:
            n = int(head.strip())
            coeffs = tuple(map(int, tail.split()))
        except ValueError as exc:
            raise CacheError(f"{path}:{lineno}: unparsable record: {line!r}") from exc
        if n != expected:
            raise CacheError(
                f"{path}:{lineno}: record index {n} out of order (expected {expected})"
            )
        if len(coeffs) != n:
            raise CacheError(
                f"{path}:{lineno}: record {n} has {len(coeffs)} coefficients, needs {n}"
            )
        if coeffs[-1] != 1:
            raise CacheError(f"{path}:{lineno}: record {n} is not monic-normalized")
        if min(coeffs) <= 0:
            raise CacheError(f"{path}:{lineno}: record {n} has a non-positive entry")
        records[n] = coeffs
        expected += 1
    return records


def write_cache(path: str | Path, max_n: int) -> None:
    """Write records for n = 1..max_n (computing any that are missing).

    The records go to a temporary file beside the cache, which then
    replaces it in one step: a writer that fails or dies midway leaves
    the old cache untouched, never a truncated one.
    """
    if max_n < 1:
        raise ValueError("cache needs max_n >= 1")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(CACHE_HEADER + "\n")
            for n in range(1, max_n + 1):
                record = polynomials.darcais_record(n)
                fh.write(f"{n}: {' '.join(str(c) for c in record.numer_coeffs)}\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_into_memo(path: str | Path) -> int:
    """Read a cache file and seed the in-process memo; returns the number
    of records loaded, which is also the largest n (records run from 1 with
    no gaps).  Raises CacheError on any validation or consistency failure."""
    records = read_cache(path)
    try:
        polynomials.seed_records(records)
    except ValueError as exc:
        raise CacheError(f"cache {path} rejected: {exc}") from exc
    return len(records)


def default_cache_path() -> str | None:
    """Cache location from the environment, if configured."""
    return os.environ.get(CACHE_ENV_VAR)
