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
the partitions of n one row at a time and carries their products, and
row_hooks gives the hooks a selector keeps in each new row.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, Sequence, TypeVar

from .plain import Frozen

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
    n: int,
    seed: State,
    grow: Callable[[State, int, int, list[int]], State],
    finish: Callable[[State], int],
) -> int:
    """Sum of finish(state) over the partitions of n >= 1, each state
    carried down a depth-first walk that builds the partition one row at a
    time, bottom-up.

    Every step puts a row of p cells, p >= below (the row it sits on, 0
    under the bottom row), on top of the rows placed so far and calls
    grow(state, p, below, legs).  Those rows keep their arms and legs,
    so grow only has to account for the new row: its cell in column j
    (0-based) has arm p - 1 - j and leg legs[j], the number of rows
    already placed that reach column j.  A row of p = rest, the cells
    still to place, finishes one partition; a shorter one leaves at least
    p cells for the rows above.  Each node of the walk is thus finished
    by exactly one such top row, and every partition of n is reached
    exactly once.  The depth is the number of parts.
    """
    legs = [0] * n

    def place(state: State, below: int, rest: int) -> int:
        total = finish(grow(state, rest, below, legs))
        for p in range(below or 1, rest // 2 + 1):
            child = grow(state, p, below, legs)
            for j in range(p):
                legs[j] += 1
            total += place(child, p, rest - p)
            for j in range(p):
                legs[j] -= 1
        return total

    return place(seed, 0, n)


def row_hooks(p: int, legs: list[int], selector: HookSelector) -> list[int]:
    """Hook lengths of the cells the selector keeps in a new top row of p
    cells, where legs[j] counts the rows below that reach column j.

    As in Partition.hooks, each cell is kept by testing the arm and leg
    computed for it, not by the closed forms of the trivial selectors.
    """
    cells = zip(range(p - 1, -1, -1), legs)
    if selector is HookSelector.TRIVIAL_LEG:
        return [arm + leg + 1 for arm, leg in cells if not leg]
    if selector is HookSelector.TRIVIAL_ARM:
        return [arm + leg + 1 for arm, leg in cells if not arm]
    return [arm + leg + 1 for arm, leg in cells]


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
