"""Tests for exact Toeplitz minors and the Polya frequency test."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from darcais import pf_tnn, polynomials
from darcais.pf_tnn import (
    MinorSpec,
    MinorWitness,
    PFVerdict,
    ToeplitzSeq,
    contiguous_minor_spec,
    pf_test,
    toeplitz_minor,
    _det_bareiss,
    _minor_table,
)

from oracles import first_negative_minor, is_integral, toeplitz_entry

# degree-8 cofactor of the n = 10 normalized numerator; not a PF sequence
R_COEFFS = (6531840, 29758896, 28014804, 10035116, 1709659, 147854, 6496, 134, 1)

# the first negative contiguous minor of that sequence in
# (order, shift) search order: the 26 x 26 window starting at row 3
R_WITNESS_ORDER = 26
R_WITNESS_SHIFT = 3
R_WITNESS_DET = int(
    "-2876174434925079210074718217371979999968306174665777544936215683258363"
    "5238442846206212181574841380899314958179875932914300484193239997757367"
    "230331714174414982312099840"
)


def det_cofactor(matrix):
    """Laplace expansion along the first row; slow but independent."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j, top in enumerate(matrix[0]):
        if top == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * top * det_cofactor(minor)
    return total


def window_matrix(seq, spec):
    return [[toeplitz_entry(seq, i, j) for j in spec.cols] for i in spec.rows]


def leading_det(ints, shift, order):
    """det of the order x order window at row `shift`, column 0, by a
    fresh elimination."""
    size = len(ints)
    return _det_bareiss([
        [ints[shift + i - j] if 0 <= shift + i - j < size else 0 for j in range(order)]
        for i in range(order)
    ])


def strip_minus_one(coeffs):
    """The quotient of the polynomial by x + 1, which must divide it."""
    quotient, carry = [], 0
    for c in reversed(coeffs[1:]):
        carry = c - carry
        quotient.append(carry)
    assert coeffs[0] == carry, "-1 is not a root"
    return quotient[::-1]


def not_pentagonal(limit):
    """n <= limit other than the generalized pentagonal numbers k(3k -+ 1)/2:
    exactly the n at which -1 is a root of n! P_n (Euler's pentagonal
    theorem)."""
    pentagonal = {k * (3 * k + e) // 2 for k in range(limit) for e in (-1, 1)}
    return [n for n in range(1, limit + 1) if n not in pentagonal]


class TestToeplitzSeq:
    def test_entries_and_padding(self):
        seq = ToeplitzSeq((2, 2, 1))
        assert toeplitz_entry(seq, 0, 0) == 2
        assert toeplitz_entry(seq, 2, 0) == 1
        assert toeplitz_entry(seq, 0, 1) == 0  # above the diagonal
        assert toeplitz_entry(seq, 9, 0) == 0  # past the stored range

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="entry 1 is negative"):
            ToeplitzSeq((1, -1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ToeplitzSeq(())

    def test_integrality_flag(self):
        assert is_integral(ToeplitzSeq((1, 2)))
        assert not is_integral(ToeplitzSeq((1, Fraction(1, 2))))

    def test_integer_entries_and_scale(self):
        # the entries times the lcm of their denominators, computed once
        seq = ToeplitzSeq((3, 0, 1))
        assert (seq.scale, seq.ints) == (1, (3, 0, 1))
        seq = ToeplitzSeq((Fraction(1, 2), 1, Fraction(1, 3)))
        assert (seq.scale, seq.ints) == (6, (3, 6, 2))


class TestMinorSpec:
    def test_contiguous_builder(self):
        spec = contiguous_minor_spec(3, row_start=2, col_start=1)
        assert spec.rows == (2, 3, 4)
        assert spec.cols == (1, 2, 3)
        assert spec.order == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            MinorSpec(rows=(0, 1), cols=(0,))
        with pytest.raises(ValueError, match="at least one"):
            MinorSpec(rows=(), cols=())
        with pytest.raises(ValueError, match="nonnegative"):
            MinorSpec(rows=(-1, 0), cols=(0, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            MinorSpec(rows=(0, 0), cols=(0, 1))

    def test_witness_serialization(self):
        witness = MinorWitness(contiguous_minor_spec(2, 1), Fraction(-4))
        assert witness.to_dict() == {
            "order": 2,
            "row_start": 1,
            "col_start": 0,
            "rows": [1, 2],
            "cols": [0, 1],
            "determinant": "-4",
        }


class TestMinorEvaluation:
    def test_small_window_matrix(self):
        seq = ToeplitzSeq((2, 2, 1))
        spec = contiguous_minor_spec(4, row_start=1)
        assert window_matrix(seq, spec) == [
            [2, 2, 0, 0],
            [1, 2, 2, 0],
            [0, 1, 2, 2],
            [0, 0, 1, 2],
        ]
        assert toeplitz_minor(seq, spec) == -4

    def test_above_diagonal_windows_vanish(self):
        seq = ToeplitzSeq((5, 3, 2, 1))
        for order in range(2, 5):
            spec = MinorSpec(
                rows=tuple(range(order)), cols=tuple(range(1, order + 1))
            )
            assert toeplitz_minor(seq, spec) == 0

    def test_frozen_large_determinant(self):
        seq = ToeplitzSeq(R_COEFFS)
        spec = contiguous_minor_spec(R_WITNESS_ORDER, row_start=R_WITNESS_SHIFT)
        assert toeplitz_minor(seq, spec) == R_WITNESS_DET

    def test_integer_and_rational_paths_agree(self):
        rng = random.Random(7)
        for _ in range(25):
            ints = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
            if all(v % 3 == 0 for v in ints):
                ints[0] += 1  # keep the scaled sequence genuinely rational
            scaled = ToeplitzSeq(tuple(Fraction(v, 3) for v in ints))
            plain = ToeplitzSeq(tuple(ints))
            order = rng.randint(1, 4)
            spec = contiguous_minor_spec(order, row_start=rng.randint(0, 3))
            assert not is_integral(scaled)
            assert toeplitz_minor(scaled, spec) == toeplitz_minor(
                plain, spec
            ) / Fraction(3) ** order

    def test_bareiss_against_cofactor(self):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(1, 6)
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert _det_bareiss(matrix) == det_cofactor(matrix)

    def test_rational_minors_against_cofactor(self):
        rng = random.Random(123)
        for _ in range(40):
            entries = [
                Fraction(rng.randint(1, 9), rng.randint(1, 4))
                for _ in range(rng.randint(1, 6))
            ]
            seq = ToeplitzSeq(tuple(entries))
            order = rng.randint(1, 5)
            spec = MinorSpec(
                rows=tuple(sorted(rng.sample(range(8), order))),
                cols=tuple(sorted(rng.sample(range(5), order))),
            )
            assert toeplitz_minor(seq, spec) == det_cofactor(window_matrix(seq, spec))

    def test_singular_matrix(self):
        assert _det_bareiss([[1, 2], [2, 4]]) == 0
        # rows 1-2, cols 0-1: a_1^2 - a_0 a_2 = 1 - 1
        seq = ToeplitzSeq((Fraction(1, 2), 1, 2))
        assert toeplitz_minor(seq, contiguous_minor_spec(2, row_start=1)) == 0


class TestPFTest:
    def test_real_rooted_sequences_are_pf(self):
        for entries in [(1, 1), (1, 2, 1), (2, 3, 1), (6, 11, 6, 1)]:
            verdict = pf_test(ToeplitzSeq(entries))
            assert verdict.is_pf
            assert verdict.cross_check
            assert verdict.witness is None
            assert not verdict.search_exhausted

    def test_pf_sequences_have_nonnegative_minors(self):
        seq = ToeplitzSeq((1, 1))
        for order in range(1, 13):
            for shift in range(0, 7):
                spec = contiguous_minor_spec(order, row_start=shift)
                assert toeplitz_minor(seq, spec) >= 0

    def test_all_ones_is_not_pf(self):
        verdict = pf_test(ToeplitzSeq((1, 1, 1)))
        assert not verdict.is_pf
        assert not verdict.cross_check
        assert verdict.witness is not None
        assert verdict.witness.spec == contiguous_minor_spec(3, row_start=1)
        assert verdict.witness.determinant == -1

    def test_degree8_cofactor_witness(self):
        verdict = pf_test(ToeplitzSeq(R_COEFFS))
        assert not verdict.is_pf
        assert not verdict.search_exhausted
        witness = verdict.witness
        assert witness.spec.order == R_WITNESS_ORDER
        assert witness.spec.rows[0] == R_WITNESS_SHIFT
        assert witness.spec.cols[0] == 0
        assert witness.determinant == R_WITNESS_DET

    def test_search_can_exhaust_without_witness(self):
        verdict = pf_test(ToeplitzSeq((1, 1, 1)), max_order=2, max_shift=2)
        assert not verdict.is_pf
        assert verdict.witness is None
        assert verdict.search_exhausted

    def test_zero_sequence_is_pf(self):
        assert pf_test(ToeplitzSeq((0, 0))).is_pf

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            pf_test(ToeplitzSeq((1,)), max_order=0)
        with pytest.raises(ValueError):
            pf_test(ToeplitzSeq((1,)), max_shift=-1)


def table_cells(max_order, max_shift):
    """(order, shift) of every cell of the minor table, in its order."""
    for order in range(1, max_order + 1):
        for shift in range(max_shift + max_order - order + 1):
            yield order, shift


def has_zero_row(ints, shift, order):
    """Whether the order x order window at row `shift`, column 0, has a
    row of zeros, read from its entries."""
    size = len(ints)
    return any(
        all(not (0 <= shift + i - j < size and ints[shift + i - j]) for j in range(order))
        for i in range(order)
    )


def fresh_cells(ints, cells):
    """The cells whose Desnanot-Jacobi divisor, the window two orders down
    at the same shift, is zero, by the oracle; a window with a zero row,
    such as every window at or past the end of the sequence, is zero
    without one."""
    return [
        (order, shift) for order, shift in cells
        if order >= 3 and not has_zero_row(ints, shift, order)
        and leading_det(ints, shift, order - 2) == 0
    ]


class TestLeadingMinors:
    # the Desnanot-Jacobi table of every row shift against a fresh
    # elimination of each window; the entries run small so that zeros,
    # both in the sequence and as minors, and so zero divisors, are common
    @settings(derandomize=True, max_examples=300)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=8),
        st.integers(0, 9),
    )
    def test_each_value_is_the_leading_minor(self, ints, max_shift):
        cells = list(_minor_table(ToeplitzSeq(ints), 10, max_shift))
        assert [(order, shift) for order, shift, _, _ in cells] == list(
            table_cells(10, max_shift)
        )
        for order, shift, det, _ in cells:
            assert det == leading_det(ints, shift, order), (order, shift)
        afresh = [(order, shift) for order, shift, _, fresh in cells if fresh]
        assert afresh == fresh_cells(ints, table_cells(10, max_shift))

    def test_the_table_goes_on_past_a_zero(self):
        # shift 1 of 1 0 2 0 1: the 1 x 1 minor a_1 is zero, and every
        # later order at that shift still gets its minor
        cells = {
            (order, shift): det for order, shift, det, _ in
            _minor_table(ToeplitzSeq((1, 0, 2, 0, 1)), 6, 2)
        }
        assert cells[1, 1] == 0
        for order in range(2, 7):
            assert cells[order, 1] == leading_det((1, 0, 2, 0, 1), 1, order)
        # shift 2 of 1 1 0 1: [[0, 1], [1, 0]] is not zero but its 1 x 1
        # block is; the identity divides by D_0 = 1, not by that zero
        cells = list(_minor_table(ToeplitzSeq((1, 1, 0, 1)), 2, 2))
        assert (2, 2, -1, False) in cells
        assert leading_det((1, 1, 0, 1), 2, 2) == -1

    def test_deep_chain_of_the_degree8_cofactor(self):
        values = [
            det for order, shift, det, _ in
            _minor_table(ToeplitzSeq(R_COEFFS), R_WITNESS_ORDER, R_WITNESS_SHIFT)
            if shift == R_WITNESS_SHIFT
        ]
        assert values[-1] == R_WITNESS_DET
        assert values[:-1] == [
            leading_det(R_COEFFS, R_WITNESS_SHIFT, order)
            for order in range(1, R_WITNESS_ORDER)
        ]


def visited_windows(max_order, max_shift, witness):
    """(order, shift) of every window the search evaluates, in its order."""
    for order in range(1, max_order + 1):
        for shift in range(max_shift + 1):
            yield order, shift
            if witness is not None and witness.spec == contiguous_minor_spec(order, shift):
                return


def visited_cells(max_order, max_shift, witness):
    """(order, shift) of every minor-table cell the search builds, in its
    order: the witness is its last."""
    for order, shift in table_cells(max_order, max_shift):
        yield order, shift
        if witness is not None and witness.spec == contiguous_minor_spec(order, shift):
            return


class TestSearchAgainstOracle:
    # the oracle (tests/oracles.py) evaluates every window afresh, in the
    # same (order, shift) order

    def assert_matches_oracle(self, seq, max_order, max_shift=8):
        verdict = pf_test(seq, max_order=max_order, max_shift=max_shift)
        if verdict.is_pf:
            assert verdict.witness is None and not verdict.search_exhausted
            return verdict
        witness = first_negative_minor(seq, max_order, max_shift)
        assert verdict.witness == witness
        assert verdict.search_exhausted == (witness is None)
        return verdict

    def test_numerators_up_to_60_at_order_12(self):
        for n in not_pentagonal(60):
            coeffs = polynomials.darcais_record(n).numer_coeffs
            self.assert_matches_oracle(ToeplitzSeq(coeffs), 12)
            self.assert_matches_oracle(ToeplitzSeq(strip_minus_one(coeffs)), 12)

    def test_numerators_at_the_default_order(self):
        for n, order in ((10, 26), (20, 15), (31, None)):
            seq = ToeplitzSeq(polynomials.darcais_record(n).numer_coeffs)
            verdict = self.assert_matches_oracle(seq, 32)
            if order is None:
                assert verdict.search_exhausted
            else:
                assert verdict.witness.spec.order == order

    def test_rational_sequence(self):
        seq = ToeplitzSeq(tuple(Fraction(c, 7) for c in R_COEFFS[:-1]) + (Fraction(1, 2),))
        verdict = self.assert_matches_oracle(seq, 32)
        assert verdict.witness is not None

    @pytest.mark.parametrize("entries, max_order", [
        ((1, 0, 2, 0, 1), 32),  # zero pivots at odd shifts
        ((1, 1, 1), 32),  # shorter than max_shift: a_s = 0 for s > 2
        ((1, 1, 1), 2),  # the same, with the search exhausted
        ((2, 2, 1), 32),
        ((1, 0, 0, 1), 32),
        ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 32),  # most windows have a zero row
    ])
    def test_fallback_runs_only_after_a_zero_pivot(self, monkeypatch, entries, max_order):
        # a fresh elimination runs exactly for the table cells whose
        # divisor is zero, past the swept shifts too, up to the witness
        seq = ToeplitzSeq(entries)
        calls = []
        fresh = pf_tnn.toeplitz_minor

        def spy(seq, spec):
            calls.append((spec.order, spec.rows[0]))
            return fresh(seq, spec)

        monkeypatch.setattr(pf_tnn, "toeplitz_minor", spy)
        verdict = pf_test(seq, max_order=max_order)
        monkeypatch.undo()
        visited = list(visited_windows(max_order, 8, verdict.witness))
        expected = fresh_cells(seq.ints, visited_cells(max_order, 8, verdict.witness))
        assert calls == expected
        assert verdict.timings["minors"] == len(visited)
        assert verdict.timings["minors_by_pivoting"] == len(expected)
        self.assert_matches_oracle(seq, max_order)

    def test_no_fallback_without_a_zero_pivot(self, monkeypatch):
        def refuse(seq, spec):
            raise AssertionError(f"fresh elimination of {spec}")

        monkeypatch.setattr(pf_tnn, "toeplitz_minor", refuse)
        verdict = pf_test(ToeplitzSeq(R_COEFFS))
        assert verdict.witness.determinant == R_WITNESS_DET
        assert verdict.timings["minors_by_pivoting"] == 0
        # 25 full orders of shifts 0..8, then shifts 0..3 at order 26
        assert verdict.timings["minors"] == 25 * 9 + 4


@settings(derandomize=True, max_examples=100)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_asw_agreement(entries):
    if not any(entries):
        entries[0] = 1
    seq = ToeplitzSeq(tuple(entries))
    verdict = pf_test(seq, max_order=10, max_shift=6)
    if verdict.is_pf:
        # every contiguous window in a modest range must be nonnegative
        for order in range(1, 7):
            for shift in range(0, 5):
                spec = contiguous_minor_spec(order, row_start=shift)
                assert toeplitz_minor(seq, spec) >= 0
    elif verdict.witness is not None:
        # the witness must replay: same window, negative determinant,
        # confirmed by the independent cofactor expansion
        det = toeplitz_minor(seq, verdict.witness.spec)
        assert det == verdict.witness.determinant < 0
        matrix = window_matrix(seq, verdict.witness.spec)
        assert det_cofactor(matrix) == det


@settings(derandomize=True, max_examples=100)
@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    st.integers(1, 4),
    st.integers(0, 3),
)
def test_real_rooted_products_pass(roots, order, shift):
    # prod (1 + r x) has coefficients that form a PF sequence
    coeffs = [1]
    for r in roots:
        coeffs = [a + r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    seq = ToeplitzSeq(tuple(coeffs))
    assert pf_test(seq).is_pf
    assert toeplitz_minor(seq, contiguous_minor_spec(order, row_start=shift)) >= 0
