"""Tests for partition enumeration, hooks, and tableau counts."""

import math
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from darcais.partitions import (
    HookSelector,
    Partition,
    enumerate_partitions,
    grow_rows,
    row_hooks,
)
from oracles import (
    cells,
    conjugate,
    count_syt,
    elements,
    multiplicity_vector,
    partition_count,
)

# p(0)..p(20), the classical table
PARTITION_NUMBERS = [
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    56, 77, 101, 135, 176, 231, 297, 385, 490, 627,
]


@st.composite
def partitions_strategy(draw, max_n=16):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        part = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(part)
        bound = part
        remaining -= part
    return Partition(parts)


def brute_force_syt_count(partition):
    """Count standard Young tableaux by enumerating all fillings (tiny n)."""
    parts = partition.parts
    n = sum(parts)
    cells = [(i, j) for i, p in enumerate(parts) for j in range(p)]
    count = 0
    for perm in permutations(range(1, n + 1)):
        grid = {}
        for cell, value in zip(cells, perm):
            grid[cell] = value
        ok = True
        for (i, j), v in grid.items():
            if j + 1 < parts[i] and grid[(i, j + 1)] < v:
                ok = False
                break
            if i + 1 < len(parts) and parts[i + 1] > j and grid[(i + 1, j)] < v:
                ok = False
                break
        if ok:
            count += 1
    return count


class TestConstruction:
    def test_valid(self):
        p = Partition([7, 3, 2])
        assert p.parts == (7, 3, 2)

    def test_increasing_rejected(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, 3, 1])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Partition([3, 0])
        with pytest.raises(ValueError):
            Partition([-1])

    def test_empty_partition(self):
        p = Partition(())
        assert sum(p.parts) == 0
        assert conjugate(p) == p
        assert elements(p.hooks()) == ()


class TestEnumeration:
    def test_decreasing_lex_order_n4(self):
        got = [p.parts for p in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counts_match_table(self):
        for n, expected in enumerate(PARTITION_NUMBERS):
            assert sum(1 for _ in enumerate_partitions(n)) == expected

    def test_counts_match_pentagonal_recurrence(self):
        for n in range(0, 40):
            assert partition_count(n) == len(list(enumerate_partitions(n)))

    def test_all_distinct_and_correct_weight(self):
        for n in range(0, 14):
            seen = set()
            for p in enumerate_partitions(n):
                assert sum(p.parts) == n
                assert p.parts not in seen
                seen.add(p.parts)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_enumerated_partitions_are_valid_partitions(self):
        # enumeration skips re-validating the parts it builds; each one
        # must still pass the checks of the public constructor
        for n in range(0, 21):
            for p in enumerate_partitions(n):
                assert type(p.parts) is tuple
                rebuilt = Partition(list(p.parts))
                assert rebuilt == p and rebuilt.parts == p.parts
                assert hash(rebuilt) == hash(p)


class TestHooks:
    def test_full_hook_multiset_7_3_2(self):
        # reading order gives {9,8,6,4,3,2,1,4,3,1,2,1}; as a sorted multiset:
        p = Partition([7, 3, 2])
        assert elements(p.hooks()) == (1, 1, 1, 2, 2, 3, 3, 4, 4, 6, 8, 9)

    def test_cell_geometry_7_3_2(self):
        # the cell in row 2, column 1 has leg 1, arm 2, hook 4
        by_position = {(c.row, c.col): c for c in cells(Partition([7, 3, 2]))}
        cell = by_position[(2, 1)]
        assert cell.leg == 1 and cell.arm == 2 and cell.hook == 4

    def test_trivial_leg_hooks_6_4_3_1(self):
        # rows contribute hooks 1..(p_i - p_{i+1}): {1,2},{1},{1,2},{1}
        p = Partition([6, 4, 3, 1])
        assert elements(p.hooks(HookSelector.TRIVIAL_LEG)) == (1, 1, 1, 1, 2, 2)

    def test_trivial_arm_is_conjugate_trivial_leg(self):
        p = Partition([4, 3, 3, 2, 1, 1])
        assert (
            p.hooks(HookSelector.TRIVIAL_ARM).counts
            == conjugate(p).hooks(HookSelector.TRIVIAL_LEG).counts
        )
        # and (4,3,3,2,1,1) is conjugate to (6,4,3,1), tying the examples together
        assert conjugate(p).parts == (6, 4, 3, 1)

    def test_full_hooks_cover_all_cells(self):
        for n in range(1, 11):
            for p in enumerate_partitions(n):
                assert len(elements(p.hooks())) == n
                assert len(list(cells(p))) == n

    def test_max_hook_value(self):
        for n in range(1, 11):
            for p in enumerate_partitions(n):
                assert max(elements(p.hooks())) == p.parts[0] + len(p.parts) - 1

    def test_trivial_leg_row_structure(self):
        # per row i the trivial-leg hooks are exactly 1..(p_i - p_{i+1})
        for n in range(1, 12):
            for p in enumerate_partitions(n):
                expected = []
                parts = p.parts + (0,)
                for i in range(len(p.parts)):
                    expected.extend(range(1, parts[i] - parts[i + 1] + 1))
                got = elements(p.hooks(HookSelector.TRIVIAL_LEG))
                assert got == tuple(sorted(expected))

    @settings(derandomize=True, max_examples=150)
    @given(partitions_strategy())
    def test_conjugate_is_an_involution(self, p):
        assert conjugate(conjugate(p)) == p
        assert sum(conjugate(p).parts) == sum(p.parts)

    @settings(derandomize=True, max_examples=150)
    @given(partitions_strategy())
    def test_hook_duality_under_conjugation(self, p):
        assert (
            p.hooks(HookSelector.TRIVIAL_LEG).counts
            == conjugate(p).hooks(HookSelector.TRIVIAL_ARM).counts
        )
        # the full multiset is conjugation invariant
        assert p.hooks().counts == conjugate(p).hooks().counts


def reference_hooks(partition, selector):
    """Hook multiset counted from cells(), one Cell at a time."""
    counts = Counter()
    for cell in cells(partition):
        if selector is HookSelector.TRIVIAL_LEG and cell.leg:
            continue
        if selector is HookSelector.TRIVIAL_ARM and cell.arm:
            continue
        counts[cell.hook] += 1
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize("selector", list(HookSelector))
def test_hooks_match_cell_reference(selector):
    for n in range(13):
        for p in enumerate_partitions(n):
            assert p.hooks(selector).counts == reference_hooks(p, selector), (p, selector)


def walked(n, selector=HookSelector.FULL):
    """(parts, kept hooks) for every partition the row walk reaches, in
    the order it reaches them: the rows are carried bottom-up with the
    hooks row_hooks keeps in each, as the partition-sum routes carry them."""
    reached = []

    def grow(carried, p, below, legs):
        rows, kept = carried
        assert p >= below and (not rows or rows[-1] == below)
        return rows + (p,), kept + tuple(row_hooks(p, legs, selector))

    def finish(carried):
        rows, kept = carried
        reached.append((rows[::-1], kept))
        return 1

    assert grow_rows(n, ((), ()), grow, finish) == len(reached)
    return reached


class TestRowWalk:
    def test_each_partition_is_reached_exactly_once(self):
        for n in range(1, 31):
            reached = [parts for parts, _ in walked(n)]
            assert len(reached) == partition_count(n), n
            assert len(set(reached)) == len(reached), n
            for parts in reached:
                assert sum(parts) == n
                assert Partition(parts).parts == parts  # positive, weakly decreasing

    @pytest.mark.parametrize("selector", list(HookSelector))
    def test_kept_hooks_match_partition_hooks(self, selector):
        # a swapped leg/arm test would pass every sum-level check, as both
        # trivial sums equal Q_n by conjugation; compare partition by partition
        for n in range(1, 13):
            for parts, kept in walked(n, selector):
                counts = tuple(sorted(Counter(kept).items()))
                assert counts == Partition(parts).hooks(selector).counts, (parts, selector)


class TestMultiplicityVector:
    def test_example(self):
        assert multiplicity_vector(Partition([4, 2, 2, 1])) == (
            1, 2, 0, 1, 0, 0, 0, 0, 0,
        )

    def test_bijection_exhaustive(self):
        # the multiplicity encoding is a bijection onto vectors with
        # sum(j * k_j) = n; invert it and compare
        for n in range(0, 13):
            seen = set()
            for p in enumerate_partitions(n):
                vec = multiplicity_vector(p)
                assert len(vec) == n
                assert sum((j + 1) * k for j, k in enumerate(vec)) == n
                assert vec not in seen
                seen.add(vec)
                rebuilt = []
                for j in range(n, 0, -1):
                    rebuilt.extend([j] * vec[j - 1])
                assert Partition(rebuilt) == p


class TestTableauCounts:
    def test_small_against_brute_force(self):
        for n in range(1, 7):
            for p in enumerate_partitions(n):
                assert count_syt(p) == brute_force_syt_count(p)

    def test_two_one(self):
        assert count_syt(Partition([2, 1])) == 2

    def test_rsk_identity(self):
        # sum over partitions of n of f_lambda^2 equals n!
        for n in range(1, 9):
            total = sum(count_syt(p) ** 2 for p in enumerate_partitions(n))
            assert total == math.factorial(n)

    def test_hook_formula_always_integral(self):
        for n in range(1, 15):
            for p in enumerate_partitions(n):
                assert count_syt(p) >= 1
