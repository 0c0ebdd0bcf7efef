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

Canonical files.  write_cache writes the header line, then for
n = 1, 2, ..., L the line "n: t_1 t_2 ... t_n": single spaces, each t_i
the decimal str() of a positive int (so no leading zero, and at most D
digits, where D = sys.get_int_max_str_digits() when it is nonzero, since
str() refuses longer ones), t_n = "1", and every line ends in "\\n".
read_cache first decides with bulk byte operations whether a file is
exactly that (_canonical_texts); if so it keeps each record as its text
and converts nothing.  Every other file goes to the line parser
(_parse_lines), the only code that accepts a non-canonical file or
raises an error, so a file is accepted or refused, with the same
message, exactly as if the parser read it.  The check requires:

  (a) the file starts with the header line;
  (b) deleting every byte of "0123456789 \\n" from it leaves the header's
      other bytes followed by colons only, k of them;
  (c) after the header it splits into exactly k lines, each ending in
      "\\n", where line n starts with "n: ";
  (d) the rest of line n, its tail, split at every space, gives n
      tokens t_1..t_n, none empty, none starting with "0", none longer
      than D bytes, and t_n = "1".

Proof that such a file is canonical and that the parser accepts it with
the same ints.  By (b) every byte after the header line is a digit, a
space, a newline or one of k colons; each of the k lines of (c) has a
colon in its prefix "n: ", so there is no other colon.  So the tail of
line n holds digits and spaces only, and by (d) it is n nonempty runs of
digits t_1..t_n separated by single spaces, none starting with "0" and
none longer than D, the last being "1".  The parser then decodes the
file (all bytes are ASCII) and splits it into the header and the k
lines, since "\\n" is the only line break present.  A line has no
surrounding whitespace; it partitions at the prefix's colon into n and
the tail, int(head) = n is the expected index, and tail.split() gives
t_1..t_n.  int() takes each (at most D digits) to a positive int,
because its first digit is 1-9, and t_n to 1.  So the parser accepts
the file with n coefficients per record, the last 1 and all positive,
and they are the ints of the tokens.  Since no
token has a leading zero, str() of each int gives back its token, so
write_cache writing a record's text as it was read writes exactly the
bytes it would format from its ints.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Mapping

from . import polynomials

CACHE_HEADER = "DARCAIS-CACHE v1"

_HEADER_LINE = CACHE_HEADER.encode("ascii") + b"\n"
_RECORD_BYTES = b"0123456789 \n"  # with the colons, all a record line holds
_HEADER_REST = _HEADER_LINE.translate(None, _RECORD_BYTES)


class CacheError(ValueError):
    """The cache file is missing, malformed, or inconsistent."""


def clean_path(path: str | os.PathLike) -> str:
    """path as pathlib.Path prints it, and so as read_cache and write_cache
    name it in their errors: no empty or "." components and no trailing
    slash ("./d//f" is "d/f"), "." if nothing is left.  The operating
    system resolves the clean path to the same file as pathlib does."""
    path = os.fspath(path)
    root = "/" if path.startswith("/") else ""
    if path.startswith("//") and not path.startswith("///"):
        root = "//"
    return root + "/".join(part for part in path.split("/") if part not in ("", ".")) or "."


class _TextRecords(Mapping):
    """The records of a canonical cache file as {n: (a_0..a_{n-1})}.

    Each is kept as its text, a view into the file's bytes, and converted
    on lookup; load_into_memo hands the texts themselves to the memo."""

    def __init__(self, texts: dict[int, memoryview]):
        self.texts = texts

    def __getitem__(self, n: int) -> tuple[int, ...]:
        return polynomials.parse_record(self.texts[n])

    def __iter__(self):
        return iter(self.texts)

    def __len__(self) -> int:
        return len(self.texts)


def _canonical_texts(data: bytes) -> dict[int, memoryview] | None:
    """{n: text of record n} if data is a canonical cache file (checks
    (a)-(d) of the module docstring), else None."""
    if not data.startswith(_HEADER_LINE):
        return None
    rest = data.translate(None, _RECORD_BYTES)
    colons = len(rest) - len(_HEADER_REST)
    if rest != _HEADER_REST + b":" * colons:
        return None
    # int() refuses more digits than this (Python 3.10.7 on; 0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    view = memoryview(data)
    texts: dict[int, memoryview] = {}
    start = len(_HEADER_LINE)
    n = 0
    while start < len(data):
        n += 1
        end = data.find(b"\n", start)
        prefix = b"%d: " % n
        tail = start + len(prefix)
        if end < 0 or not data.startswith(prefix, start):
            return None
        tokens = data[tail:end].split(b" ")
        # the tail holds digits and spaces only, so a token below "1" is
        # empty or starts with "0"
        if (
            len(tokens) != n
            or min(tokens) < b"1"
            or tokens[-1] != b"1"
            or (limit and max(map(len, tokens)) > limit)
        ):
            return None
        texts[n] = view[tail:end]
        start = end + 1
    return texts if n == colons else None


def read_cache(path: str | os.PathLike) -> Mapping[int, tuple[int, ...]]:
    """Parse and validate a cache file; returns {n: (a_0..a_{n-1})}.

    A canonical file is checked without converting a number, and its
    records stay text until looked up (module docstring)."""
    path = clean_path(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    texts = _canonical_texts(data)
    if texts is not None:
        return _TextRecords(texts)
    return _parse_lines(path, data)


def _parse_lines(path: str, data: bytes) -> dict[int, tuple[int, ...]]:
    """The line parser: accepts any valid cache file, refuses the rest."""
    try:
        # splitlines() breaks at "\r\n" and "\r" as at "\n", so the lines
        # are those of the file read with universal newlines
        text = data.decode("ascii")
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


def _format_record(n: int) -> bytes:
    """The text of record n, formatted from its ints."""
    record = polynomials.darcais_record(n)
    return " ".join(map(str, record.numer_coeffs)).encode("ascii")


def write_cache(path: str | os.PathLike, max_n: int) -> None:
    """Write records for n = 1..max_n (computing any that are missing).

    A record loaded from a canonical file is written as the bytes it was
    read as (polynomials.loaded_text), whether or not a computation has
    converted it since; the others are formatted from their ints, which
    gives the same bytes (module docstring).  The records go to a
    temporary file beside the cache, which then replaces it in one step:
    a writer that fails or dies midway leaves the old cache untouched,
    never a truncated one.
    """
    if max_n < 1:
        raise ValueError("cache needs max_n >= 1")
    path = clean_path(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER_LINE)
            for n in range(1, max_n + 1):
                text = polynomials.loaded_text(n)
                if text is None:
                    text = _format_record(n)
                fh.write(b"%d: " % n)
                fh.write(text)
                fh.write(b"\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def load_into_memo(path: str | os.PathLike) -> int:
    """Read a cache file and seed the in-process memo; returns the number
    of records loaded, which is also the largest n (records run from 1 with
    no gaps).  The records of a canonical file go in as their text.
    Raises CacheError on any validation or consistency failure."""
    records = read_cache(path)
    try:
        polynomials.seed_records(
            records.texts if isinstance(records, _TextRecords) else records
        )
    except ValueError as exc:
        raise CacheError(f"cache {path} rejected: {exc}") from exc
    return len(records)

