"""Polya frequency testing for finite nonnegative sequences.

A finite sequence (a_0, ..., a_d), padded with zeros, is a Polya
frequency sequence when every minor of its infinite Toeplitz matrix
A[i][j] = a_{i-j} is nonnegative.  By the Aissen-Schoenberg-Whitney
theorem this happens exactly when the attached polynomial
a_0 + a_1 x + ... + a_d x^d has only real roots.

pf_test decides PF through that equivalence (delegating real-rootedness
to the root counts in rootcert) and, for a failing sequence, also
hunts down an explicit negative contiguous minor - a matrix-side
certificate independent of the root count.  Minors are exact integers,
those of rational sequences after scaling to integers.

The search needs no elimination per window.  Write D_k(s) for the
determinant of the order-k window at row shift s.  The Desnanot-Jacobi
identity on the window of order k + 1 relates it to three windows of
order k and one of order k - 1 (the Pade-table identity; Gragg, SIAM Review 14, 1972),
so the windows form a table that is built one order at a time with one
exact division per cell, order first, then shift, and the witness is the
first negative window in that order.  A window with a zero row is zero,
which the lengths of the zero runs in the sequence show at once.  Only
another cell whose divisor is zero is evaluated afresh, by Bareiss
elimination with row exchanges in toeplitz_minor, in O(k^3).

A sequence of ints is kept and searched in ints, fresh cells included.
fractions is loaded only for a rational sequence.
"""

from __future__ import annotations

import math
import time
from itertools import groupby

from . import rootcert
from .plain import Frozen

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from collections.abc import Iterator, Sequence
    from fractions import Fraction


class ToeplitzSeq(Frozen):
    """A finite nonnegative sequence viewed as an infinite Toeplitz matrix.

    Entry (i, j) is entries[i - j], with zero outside the stored range
    (in particular the whole matrix above the main diagonal shifted by
    the sequence is zero, so only windows at or below the diagonal are
    interesting).  The entries are stored as a tuple: of ints when every
    entry is an int, else of Fractions.  They are stored once more as
    `ints`, the entries times `scale`, the lcm of their denominators
    (1 for ints): minors and the root count run on those.
    """

    __slots__ = ("entries", "scale", "ints")
    derived = ("scale", "ints")

    def __init__(self, entries: Sequence[Fraction | int]):
        entries = tuple(entries)
        scale, ints = 1, entries
        if not all(type(e) is int for e in entries):
            from fractions import Fraction

            entries = tuple(e if isinstance(e, Fraction) else Fraction(e) for e in entries)
            scale = math.lcm(*(e.denominator for e in entries))
            ints = tuple(int(e * scale) for e in entries)
        if not entries:
            raise ValueError("a Toeplitz sequence needs at least one entry")
        for k, e in enumerate(entries):
            if e < 0:
                raise ValueError(
                    f"entry {k} is negative ({e}); Polya frequency sequences "
                    "are nonnegative by definition"
                )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", ints)


class MinorSpec(Frozen):
    """Row and column index sets (0-based, strictly increasing, equal size),
    stored as tuples of ints."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: Sequence[int], cols: Sequence[int]):
        rows = tuple(int(r) for r in rows)
        cols = tuple(int(c) for c in cols)
        if len(rows) != len(cols):
            raise ValueError("minor must be square: row and column counts differ")
        if not rows:
            raise ValueError("minor must have at least one row")
        for axis, idx in (("row", rows), ("col", cols)):
            if any(i < 0 for i in idx):
                raise ValueError(f"{axis} indices must be nonnegative")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{axis} indices must be strictly increasing")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def order(self) -> int:
        return len(self.rows)


def contiguous_minor_spec(order: int, row_start: int, col_start: int = 0) -> MinorSpec:
    """The order x order window with consecutive rows/columns."""
    return MinorSpec(
        rows=tuple(range(row_start, row_start + order)),
        cols=tuple(range(col_start, col_start + order)),
    )


class MinorWitness(Frozen):
    """A specific minor together with its exactly computed determinant: an
    int for a sequence of integers, else a Fraction."""

    __slots__ = ("spec", "determinant")

    def __init__(self, spec: MinorSpec, determinant: int | Fraction):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "determinant", determinant)

    def to_dict(self) -> dict:
        return {
            "order": self.spec.order,
            "row_start": self.spec.rows[0],
            "col_start": self.spec.cols[0],
            "rows": list(self.spec.rows),
            "cols": list(self.spec.cols),
            "determinant": str(self.determinant),
        }


class PFVerdict(Frozen):
    """is_pf           the ASW verdict (attached polynomial real-rooted)
    witness          a negative minor when one was found (not PF only)
    cross_check      the real-rootedness answer used for is_pf
    search_exhausted True when not PF but no negative contiguous minor
                     turned up within the search bounds
    timings          seconds per stage (real_rootedness, minor_search),
                     and for a search the counts minors (windows
                     swept) and minors_by_pivoting (cells of the minor
                     table evaluated afresh by toeplitz_minor, because
                     their divisor was zero; these include cells past
                     max_shift that later orders need); not part of
                     equality or the hash"""

    __slots__ = ("is_pf", "witness", "cross_check", "search_exhausted", "timings")
    uncompared = ("timings",)

    def __init__(
        self,
        is_pf: bool,
        witness: MinorWitness | None,
        cross_check: bool,
        search_exhausted: bool,
        timings: dict[str, float] | None = None,
    ):
        object.__setattr__(self, "is_pf", is_pf)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "cross_check", cross_check)
        object.__setattr__(self, "search_exhausted", search_exhausted)
        object.__setattr__(self, "timings", {} if timings is None else timings)


def _det_bareiss(matrix: list[list[int]]) -> int:
    """Fraction-free determinant; every division below is exact."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def toeplitz_minor(seq: ToeplitzSeq, spec: MinorSpec) -> int | Fraction:
    """Exact determinant of the selected minor, by Bareiss on the entries
    scaled by L = seq.scale: det = det(L M) / L**order.  An int for a
    sequence of ints (L = 1), a Fraction for a rational one."""
    ints = seq.ints
    size = len(ints)
    matrix = [
        [ints[i - j] if 0 <= i - j < size else 0 for j in spec.cols]
        for i in spec.rows
    ]
    det = _det_bareiss(matrix)
    if seq.scale == 1:
        return det
    from fractions import Fraction

    return Fraction(det, seq.scale**spec.order)


def pf_test(seq: ToeplitzSeq, max_order: int = 32, max_shift: int = 8) -> PFVerdict:
    """Decide Polya frequency and certify a failure with a negative minor.

    The verdict itself comes from the ASW equivalence: PF iff the
    attached polynomial is real-rooted, settled exactly by root counts.
    When the answer is "not PF", contiguous windows are searched in
    increasing order, then increasing row shift below the diagonal (only
    the difference row_start - col_start matters for a Toeplitz matrix,
    and windows above the diagonal are identically zero-triangular, so
    this sweep loses nothing).  The first negative determinant becomes
    the witness; if none shows up within (max_order, max_shift) the
    verdict records the exhausted search instead of inventing evidence.
    """
    if max_order < 1 or max_shift < 0:
        raise ValueError("max_order must be >= 1 and max_shift >= 0")
    timings: dict[str, float] = {}
    # the all-zero sequence has every minor equal to zero, hence PF
    real_rooted = True
    if any(seq.ints):
        start = time.perf_counter()
        real_rooted = rootcert.is_real_rooted(seq.ints)
        timings["real_rootedness"] = time.perf_counter() - start
    if real_rooted:
        return PFVerdict(
            is_pf=True, witness=None, cross_check=True, search_exhausted=False,
            timings=timings,
        )
    start = time.perf_counter()
    witness, minors, by_pivoting = _minor_search(seq, max_order, max_shift)
    timings["minor_search"] = time.perf_counter() - start
    timings["minors"] = minors
    timings["minors_by_pivoting"] = by_pivoting
    return PFVerdict(
        is_pf=False,
        witness=witness,
        cross_check=False,
        search_exhausted=witness is None,
        timings=timings,
    )


def _minor_search(
    seq: ToeplitzSeq, max_order: int, max_shift: int
) -> tuple[MinorWitness | None, int, int]:
    """The first negative contiguous minor in (order, shift) order, with
    the number of windows swept and how many table cells were evaluated
    afresh."""
    minors = fresh = 0
    for order, shift, det, afresh in _minor_table(seq, max_order, max_shift):
        fresh += afresh
        if shift > max_shift:
            continue
        minors += 1
        if det < 0:
            spec = contiguous_minor_spec(order, row_start=shift)
            if seq.scale != 1:
                from fractions import Fraction

                det = Fraction(det, seq.scale**order)
            return MinorWitness(spec, det), minors, fresh
    return None, minors, fresh


def _minor_table(
    seq: ToeplitzSeq, max_order: int, max_shift: int
) -> Iterator[tuple[int, int, int, bool]]:
    """Yield (k, s, D_k(s), afresh) for k = 1 .. max_order, and for each k
    s = 0 .. max_shift + max_order - k, order first.  D_k(s) is the
    determinant of the order-k window at row shift s of the Toeplitz
    matrix of seq.ints.

    The cells come from the Desnanot-Jacobi identity on that window,

        D_{k+1}(s) D_{k-1}(s) = D_k(s)^2 - D_k(s + 1) D_k(s - 1),

    with D_0 = 1, D_1(s) = a_s and D_k(-1) = 0 (the window's top row is
    zero).  Order k + 1 needs order k at shift s + 1, so order k runs to
    shift max_shift + max_order - k.

    D_k(s) is zero, with no division, when the window has a zero row.
    Row i of the window holds a_{i-k+1}, ..., a_i, with a_j = 0 for j < 0
    and past the end.  So row i is zero exactly when a_{i-k+1..i} are
    zeros, for some i = s .. s + k - 1: k zeros in a row that include
    a_s, that is a run of at least k zeros through a_s.  A run that
    starts at a_0 goes on through the zeros before it and is long enough
    for every order; one past the end of the sequence goes on too.  Any
    other cell whose divisor D_{k-1}(s) is zero is evaluated afresh by
    toeplitz_minor, which exchanges rows.
    """
    ints = seq.ints
    span = max_shift + max_order  # shifts 0 .. span - 1 at order 1
    padded = [ints[i] if i < len(ints) else 0 for i in range(span)]
    # run[s]: the zeros in the run through a_s (0 when a_s != 0), counted
    # up to a_(span - 1), the last entry a window here reaches
    run: list[int] = []
    for nonzero, group in groupby(padded, bool):
        count = len(list(group))
        length = 0 if nonzero else count + (max_order if not run else 0)
        run += [length] * count
    below: list[int] = []  # D_{k-1}
    row = [1] * (span + 1)  # D_k, from D_0
    for order in range(1, max_order + 1):
        cells: list[int] = []
        for shift in range(span - order + 1):
            afresh = False
            if order == 1:
                det = padded[shift]
            elif run[shift] >= order:
                det = 0
            elif below[shift]:
                before = row[shift - 1] if shift else 0
                det = (row[shift] ** 2 - row[shift + 1] * before) // below[shift]
            else:
                afresh = True
                spec = contiguous_minor_spec(order, row_start=shift)
                det = int(toeplitz_minor(seq, spec) * seq.scale**order)
            cells.append(det)
            yield order, shift, det, afresh
        below, row = row, cells
