"""Unit and property tests for exact scalar/polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from darcais.exactnum import (
    ExactPoly,
    poly_divmod,
    poly_gcd,
    primitive_int_coeffs,
    shift_by_one,
)
from oracles import binomial, derivative, shift, shift_by_one_loop


def P(*coeffs):
    return ExactPoly(coeffs)


def Z(p):
    """p's coefficients scaled to primitive integers."""
    return primitive_int_coeffs(p.coeffs)


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
small_polys = st.lists(rationals, min_size=0, max_size=8).map(ExactPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)


class TestStructure:
    def test_zero_poly_has_no_degree(self):
        assert ExactPoly().coeffs == ()
        assert ExactPoly([0, 0, 0]).coeffs == ()
        assert ExactPoly([0]).is_zero

    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))

    def test_degree_and_leading(self):
        p = P(3, 0, Fraction(1, 2))
        assert len(p.coeffs) - 1 == 2
        assert p.coeffs[-1] == Fraction(1, 2)

    def test_hash_consistent_with_eq(self):
        assert hash(P(1, 2)) == hash(P(Fraction(2, 2), Fraction(4, 2)))


class TestArithmetic:
    def test_product_difference_of_squares(self):
        assert P(1, 1) * P(1, -1) == P(1, 0, -1)

    def test_scalar_multiplication(self):
        assert 3 * P(1, 2) == P(3, 6)
        assert P(1, 2) * Fraction(1, 2) == P(Fraction(1, 2), 1)

    def test_eval_exact(self):
        p = P(3, 2, 1)  # 3 + 2x + x^2
        assert p(Fraction(1, 2)) == Fraction(17, 4)
        assert p(-1) == 2

    def test_derivative(self):
        assert derivative(P(5, 3, 0, 2)) == P(3, 0, 6)
        assert derivative(P(7)).is_zero

    def test_shift_matches_paper_expansion(self):
        # the shift of the counterexample numerator to -5 has a known
        # quadratic head: 1632960 + 1690056 t + 1663164 t^2 + ...
        r = P(6531840, 29758896, 28014804, 10035116, 1709659, 147854, 6496, 134, 1)
        shifted = shift(r, -5)
        assert shifted.coeffs[:3] == (
            Fraction(1632960),
            Fraction(1690056),
            Fraction(1663164),
        )

    def test_shift_simple(self):
        # x^2 + 2 shifted by +1 gives x^2 + 2x + 3
        assert shift(P(2, 0, 1), 1) == P(3, 2, 1)

    def test_divmod_known(self):
        q, r = poly_divmod(P(-1, 0, 1), P(1, 1))  # (x^2-1)/(x+1)
        assert q == P(-1, 1)
        assert r.is_zero

    def test_divmod_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(P(1, 1), ExactPoly())


class TestGcd:
    def test_common_factor(self):
        a = P(1, 1) * P(2, 1) * P(-1, 1)
        b = P(1, 1) * P(2, 1)
        g = poly_gcd(Z(a), Z(b))
        assert g == Z(P(1, 1) * P(2, 1))

    def test_coprime(self):
        assert len(poly_gcd(Z(P(1, 1)), Z(P(2, 1)))) == 1

    def test_gcd_with_zero(self):
        assert poly_gcd([2, 4], []) == [1, 2]
        with pytest.raises(ValueError):
            poly_gcd([], [])

    @settings(derandomize=True, max_examples=150)
    @given(nonzero_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(Z(a), Z(b))
        for p in (a, b):
            _, rem = poly_divmod(p, ExactPoly(g))
            assert rem.is_zero
        assert g[-1] > 0 and Z(ExactPoly(g)) == g


class TestRingAxioms:
    @settings(derandomize=True, max_examples=150)
    @given(small_polys, small_polys, small_polys)
    def test_add_mul_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(derandomize=True, max_examples=100)
    @given(small_polys, small_polys, rationals)
    def test_evaluation_is_a_homomorphism(self, a, b, x):
        assert (a + b)(x) == a(x) + b(x)
        assert (a * b)(x) == a(x) * b(x)

    @settings(derandomize=True, max_examples=100)
    @given(small_polys, small_polys)
    def test_derivative_product_rule(self, a, b):
        lhs = derivative(a * b)
        rhs = derivative(a) * b + a * derivative(b)
        assert lhs == rhs

    @settings(derandomize=True, max_examples=100)
    @given(small_polys, rationals, rationals)
    def test_shift_agrees_with_evaluation(self, p, c, x):
        assert shift(p, c)(x) == p(x + c)

    @settings(derandomize=True, max_examples=100)
    @given(small_polys, nonzero_polys)
    def test_divmod_identity(self, a, b):
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert len(r.coeffs) < len(b.coeffs)


class TestKaratsuba:
    def test_large_product_matches_schoolbook(self):
        # cross the cutoff so the divide-and-conquer path actually runs
        a = ExactPoly([(-1) ** k * (k + 1) for k in range(70)])
        b = ExactPoly([(k * k - 3) for k in range(55)])
        expected = [Fraction(0)] * (70 + 55 - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                expected[i + j] += x * y
        assert (a * b).coeffs == tuple(expected)

    def test_unbalanced_product(self):
        a = ExactPoly([1] * 100)
        b = ExactPoly([1, 1])
        prod = a * b
        assert prod.coeffs == (1,) + tuple(2 for _ in range(99)) + (1,)


class TestShiftByOne:
    def test_short_lists(self):
        assert shift_by_one([]) == []
        assert shift_by_one([7]) == [7]
        assert shift_by_one([3, 2]) == [5, 2]
        assert shift_by_one([Fraction(1, 2), Fraction(-1, 3)]) == [
            Fraction(1, 6),
            Fraction(-1, 3),
        ]

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(st.integers(-(10**30), 10**30), min_size=0, max_size=40))
    def test_matches_nested_loop_on_ints(self, coeffs):
        assert shift_by_one(coeffs) == shift_by_one_loop(coeffs)

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(rationals, min_size=0, max_size=20))
    def test_matches_nested_loop_on_fractions(self, coeffs):
        assert shift_by_one(coeffs) == shift_by_one_loop(coeffs)

    def test_input_is_not_modified(self):
        coeffs = [1, 2, 3]
        shift_by_one(coeffs)
        assert coeffs == [1, 2, 3]


class TestBinomial:
    def test_ordinary_values(self):
        assert binomial(5, 2) == 10
        assert binomial(5, 0) == 1
        assert binomial(3, 7) == 0

    def test_rational_top(self):
        assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_negative_upper_reflection(self):
        # C(k+z, k) == (-1)^k C(-z-1, k); at z = -5, k = 3 both sides
        # evaluate to -4
        z, k = -5, 3
        lhs = binomial(k + z, k)
        rhs = (-1) ** k * binomial(-z - 1, k)
        assert lhs == rhs == -4

    @settings(derandomize=True, max_examples=100)
    @given(st.integers(-30, 30), st.integers(0, 10))
    def test_reflection_identity_everywhere(self, z, k):
        assert binomial(k + z, k) == (-1) ** k * binomial(-z - 1, k)

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            binomial(4, -1)


class TestSerialization:
    def test_canonical_text(self):
        assert P(0, Fraction(3, 2), Fraction(1, 2)).to_text() == "0/1 3/2 1/2"
        assert ExactPoly().to_text() == "0/1"

