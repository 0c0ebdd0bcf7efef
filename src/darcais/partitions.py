"""Integer partitions and their hook-length multisets.

A partition is a weakly decreasing tuple of positive parts.  Cells are
addressed in matrix convention: row i from the top (1-based), column j
from the left (1-based).  For the cell (i, j) of the diagram of p:

    arm(i, j)  = p[i] - j           (cells strictly to the right)
    leg(i, j)  = conj(p)[j] - i     (cells strictly below)
    hook(i, j) = arm + leg + 1

Besides the full hook multiset, two sub-multisets are exposed: hooks of
cells with leg 0 (first kind) and hooks of cells with arm 0 (second
kind).  They are exchanged by conjugation.

The partition-sum routes do not build Partition objects: grow_rows walks
the partitions of every size in a range one row at a time, in one walk,
and carries their products; each route tests the arm and leg of the new
row's cells itself.
"""

from __future__ import annotations

from enum import Enum

from .plain import Frozen

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from collections.abc import Callable, Iterator, Sequence
    from typing import TypeVar

    State = TypeVar("State")


class HookSelector(Enum):
    """Which cells of the diagram contribute their hook lengths."""

    FULL = "full"
    TRIVIAL_LEG = "trivial_leg"
    TRIVIAL_ARM = "trivial_arm"


class HookMultiset(Frozen):
    """Multiset of hook lengths, stored as sorted (value, multiplicity) pairs."""

    __slots__ = ("selector", "counts")

    def __init__(self, selector: HookSelector, counts: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "selector", selector)
        object.__setattr__(self, "counts", counts)


class Partition:
    """An integer partition with hook-length queries."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(int(p) for p in parts)
        for p in parts:
            if p < 1:
                raise ValueError(f"partition parts must be positive, got {p}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        self._parts = parts

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def hooks(self, selector: HookSelector = HookSelector.FULL) -> HookMultiset:
        """Hook-length multiset over the cells chosen by the selector.

        FULL takes every cell.  TRIVIAL_LEG keeps only cells with leg 0,
        which contribute, in row i, exactly the hooks 1..(p[i] - p[i+1]).
        TRIVIAL_ARM keeps only cells with arm 0 and equals the TRIVIAL_LEG
        multiset of the conjugate partition.

        Every cell's arm and leg are computed from the parts and their
        conjugate and filtered as above; the closed forms are not used,
        so the trivial selectors stay independent of the multiplicity
        (binomial) route.
        """
        parts = self.parts
        conj = _conjugate_parts(parts)
        keep_leg0 = selector is HookSelector.TRIVIAL_LEG
        keep_arm0 = selector is HookSelector.TRIVIAL_ARM
        counts: dict[int, int] = {}
        for i, part in enumerate(parts, start=1):
            for j in range(1, part + 1):
                arm = part - j
                leg = conj[j - 1] - i
                if (keep_leg0 and leg) or (keep_arm0 and arm):
                    continue
                hook = arm + leg + 1
                counts[hook] = counts.get(hook, 0) + 1
        return HookMultiset(selector, tuple(sorted(counts.items())))


def _conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Parts of the conjugate: column j has as many cells as parts >= j."""
    if not parts:
        return ()
    conj = [0] * parts[0]
    for p in parts:
        conj[p - 1] += 1
    for j in range(len(conj) - 2, -1, -1):
        conj[j] += conj[j + 1]
    return tuple(conj)


def _trusted(parts: tuple[int, ...]) -> Partition:
    """A Partition of parts known to be positive and weakly decreasing,
    built without checking them again."""
    partition = object.__new__(Partition)
    partition._parts = parts
    return partition


def grow_rows(
    lo: int,
    hi: int,
    seed: State,
    grow: Callable[[State, int, int, list[int]], State],
    finish: Callable[[State, int], int],
) -> list[int]:
    """For each size n in [lo, hi] (1 <= lo <= hi), the sum of
    finish(state, n) over the partitions of n, listed from n = lo; each
    state is carried down one depth-first walk that builds the partitions
    one row at a time, bottom-up.

    Every node of the walk is a partition: the rows placed so far.  Its
    children put a row of p cells, p >= below (the node's top row, 0 at
    the empty root), on top and call grow(state, p, below, legs).  Rows
    already placed keep their arms and legs, so grow only has to account
    for the new row: its cell in column j (0-based) has arm p - 1 - j and
    leg legs[j], the number of rows already placed that reach column j.
    The rows of a partition, read bottom-up, are its parts in increasing
    order, so each partition of size at most hi is one node, reached
    exactly once; the depth is the number of parts.

    A node of size n in [lo, hi] is finished.  A child of size s and top
    row p is grown only if it is finished or can take another row
    (s + p <= hi, since that row has at least p cells).  Such a node can
    always be topped by a row of hi - s cells, so the walk grows exactly
    the partitions of the sizes in [lo, hi] and the nodes they are built
    up from, each once.  With lo = hi = n those are the nodes of a walk
    over the partitions of n alone.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"sizes must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")
    totals = [0] * (hi - lo + 1)
    legs = [0] * hi

    def place(state: State, size: int, below: int) -> None:
        room = hi - size
        # rows that leave room for another row on top: grown and walked on
        for p in range(below or 1, room // 2 + 1):
            child = grow(state, p, below, legs)
            if size + p >= lo:
                totals[size + p - lo] += finish(child, size + p)
            for j in range(p):
                legs[j] += 1
            place(child, size + p, p)
            for j in range(p):
                legs[j] -= 1
        # wider rows end their partition: grown only where it is finished
        for p in range(max(below, room // 2 + 1, lo - size), room + 1):
            totals[size + p - lo] += finish(grow(state, p, below, legs), size + p)

    place(seed, 0, 0)
    return totals


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in decreasing lexicographic order.

    Starts at (n) and ends at (1, 1, ..., 1); yields the empty partition
    exactly once for n = 0.  Every step keeps the parts positive and
    weakly decreasing, so they are not validated again.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    if n == 0:
        yield Partition(())
        return
    a = [n]
    while True:
        yield _trusted(tuple(a))
        j = len(a) - 1
        while j >= 0 and a[j] == 1:
            j -= 1
        if j < 0:
            return
        spare = len(a) - j  # the ones we removed, plus one from a[j]
        value = a[j] - 1
        a = a[: j + 1]
        a[j] = value
        while spare > 0:
            take = min(value, spare)
            a.append(take)
            spare -= take
