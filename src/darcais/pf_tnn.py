"""Polya frequency testing for finite nonnegative sequences.

A finite sequence (a_0, ..., a_d), padded with zeros, is a Polya
frequency sequence when every minor of its infinite Toeplitz matrix
A[i][j] = a_{i-j} is nonnegative.  By the Aissen-Schoenberg-Whitney
theorem this happens exactly when the attached polynomial
a_0 + a_1 x + ... + a_d x^d has only real roots.

pf_test decides PF through that equivalence (delegating real-rootedness
to the root counts in rootcert) and, for a failing sequence, also
hunts down an explicit negative contiguous minor - a matrix-side
certificate independent of the root count.  Minors are evaluated
exactly by Bareiss fraction-free elimination, rational sequences after
scaling to integers.

The search needs no elimination per window.  By Sylvester's identity
(Bareiss, Math. Comp. 22, 1968) the k-th pivot of fraction-free
elimination without row exchanges is the k x k leading principal minor,
and the order-k window at row shift s is the leading block of every
larger window at that shift.  So each shift keeps one elimination,
grown by a bordered row and column per order, and all shifts step
together, order first, then shift, so the witness is the first
negative window in that order.  A zero pivot ends its shift's chain;
every later order at that shift is evaluated by toeplitz_minor, which
exchanges rows.  The window at shift s is zero more than s columns
right of its diagonal, so bordering to order k takes O(k s) big-integer
steps, where a fresh elimination takes O(k^3).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import count
from typing import Iterator, Sequence

from . import rootcert
from .plain import Frozen


class ToeplitzSeq(Frozen):
    """A finite nonnegative sequence viewed as an infinite Toeplitz matrix.

    Entry (i, j) is entries[i - j], with zero outside the stored range
    (in particular the whole matrix above the main diagonal shifted by
    the sequence is zero, so only windows at or below the diagonal are
    interesting).  The entries are stored as a tuple of Fractions, and
    once more as `ints`, the entries times `scale`, the lcm of their
    denominators: minors and the root count run on those.
    """

    __slots__ = ("entries", "scale", "ints")
    derived = ("scale", "ints")

    def __init__(self, entries: Sequence[Fraction | int]):
        converted = tuple(
            e if isinstance(e, Fraction) else Fraction(e) for e in entries
        )
        if not converted:
            raise ValueError("a Toeplitz sequence needs at least one entry")
        for k, e in enumerate(converted):
            if e < 0:
                raise ValueError(
                    f"entry {k} is negative ({e}); Polya frequency sequences "
                    "are nonnegative by definition"
                )
        scale = math.lcm(*(e.denominator for e in converted))
        object.__setattr__(self, "entries", converted)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ints", tuple(int(e * scale) for e in converted))


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
    """A specific minor together with its exactly computed determinant."""

    __slots__ = ("spec", "determinant")

    def __init__(self, spec: MinorSpec, determinant: Fraction):
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
                     evaluated) and minors_by_pivoting (those evaluated
                     afresh by toeplitz_minor after a zero pivot);
                     not part of equality or the hash"""

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


def toeplitz_minor(seq: ToeplitzSeq, spec: MinorSpec) -> Fraction:
    """Exact determinant of the selected minor, by Bareiss on the entries
    scaled by L = seq.scale: det = det(L M) / L**order."""
    ints = seq.ints
    size = len(ints)
    matrix = [
        [ints[i - j] if 0 <= i - j < size else 0 for j in spec.cols]
        for i in spec.rows
    ]
    return Fraction(_det_bareiss(matrix), seq.scale**spec.order)


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
    the number of minors evaluated and how many of those needed a fresh
    elimination with row exchanges."""
    chains = [_leading_minors(seq.ints, shift) for shift in range(max_shift + 1)]
    minors = by_pivoting = 0
    for order in range(1, max_order + 1):
        for shift, chain in enumerate(chains):
            minors += 1
            pivot = next(chain, None)
            if pivot is not None and pivot >= 0:
                continue
            spec = contiguous_minor_spec(order, row_start=shift)
            if pivot is None:
                by_pivoting += 1
                det = toeplitz_minor(seq, spec)
            else:
                det = Fraction(pivot, seq.scale**order)
            if det < 0:
                return MinorWitness(spec, det), minors, by_pivoting
    return None, minors, by_pivoting


def _leading_minors(ints: Sequence[int], shift: int) -> Iterator[int]:
    """Yield det of the k x k window at row `shift`, column 0, of the
    Toeplitz matrix of ints, for k = 1, 2, ...: the Bareiss pivots of that
    window, bordered by one row and column per order.  Stops after the
    first zero, past which Bareiss would divide by it."""
    size = len(ints)

    def at(i: int, j: int) -> int:
        d = shift + i - j
        return ints[d] if 0 <= d < size else 0

    # after t elimination steps, upper[t][j] is entry (t, j) for j >= t
    # and lower[i][t] entry (i, t) for i > t; pivots[t] is upper[t][t].
    # The window is zero more than `shift` columns right of the diagonal,
    # and stays so under elimination: upper[t][j] = 0 for j > t + shift,
    # and the new column is zero in rows above k - shift.  A step that
    # meets such a zero only multiplies an entry by pivots[t] /
    # pivots[t - 1], so those steps collapse into one product: entry j of
    # the new row starts at step j - shift times pivots[j - shift - 1],
    # and the new column and the corner start at step k - shift.
    upper: list[list[int]] = []
    lower: list[list[int]] = []
    pivots: list[int] = []
    for k in count():
        start = max(0, k - shift)
        lead = pivots[start - 1] if start else 1
        col = [0] * start + [at(i, k) * lead for i in range(start, k)]
        corner = at(k, k) * lead
        row = [
            at(k, j) * (pivots[j - shift - 1] if j > shift else 1)
            for j in range(k)
        ]
        prev = 1
        for t, pivot in enumerate(pivots):
            head, pivot_row = row[t], upper[t]
            for j in range(t + 1, min(k, t + shift + 1)):
                row[j] = (row[j] * pivot - head * pivot_row[j]) // prev
            if t >= start:
                top = col[t]
                for i in range(t + 1, k):
                    col[i] = (col[i] * pivot - lower[i][t] * top) // prev
                corner = (corner * pivot - head * top) // prev
            pivot_row.append(col[t])
            prev = pivot
        yield corner
        if corner == 0:
            return
        upper.append([0] * k + [corner])
        lower.append(row)
        pivots.append(corner)
