"""Tests for real-root counting and isolation, checked against Sturm's
theorem, and for Routh-Hurwitz certificates."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from darcais import rootcert
from darcais.exactnum import ExactPoly, poly_divmod, poly_gcd, primitive_int_coeffs
from darcais.polynomials import darcais_record, scaled_coeffs
from darcais.rootcert import (
    RootAtEndpointError,
    RouthVerdict,
    SturmChain,
    all_real_roots_negative,
    count_real_roots,
    hurwitz_stable,
    is_real_rooted,
    is_square_free,
    isolate_real_roots,
    square_free_part,
)
from oracles import (
    FactorizationError,
    check_isolation,
    derivative,
    sturm_count,
    sturm_tail_degree,
    variations_at_infinity,
    verify_factorization,
)

# degree-8 cofactor of the n = 10 normalized numerator after dividing
# out (x + 1); it has six distinct real roots and one complex pair
R_COEFFS = (6531840, 29758896, 28014804, 10035116, 1709659, 147854, 6496, 134, 1)
R_INTERVALS = [(-59, -58), (-33, -32), (-18, -17), (-14, -13), (-2, -1), (-1, 0)]

# its derivative is fully real-rooted
R_PRIME_INTERVALS = [
    (-53, -52), (-29, -28), (-16, -15), (-11, -10), (-6, -5), (-4, -3), (-1, 0),
]

# degree-6 cofactor of the n = 11 normalized numerator after dividing
# out (x + 1)(x + 2)(x + 3)(x + 8); fully real-rooted
RT_COEFFS = (907200, 7260120, 1983222, 190049, 8057, 151, 1)
RT_INTERVALS = [(-67, -66), (-39, -38), (-22, -21), (-17, -16), (-8, -7), (-1, 0)]


def linear_product(roots):
    """Monic polynomial with the given integer roots."""
    p = ExactPoly([1])
    for r in roots:
        p = p * ExactPoly([-r, 1])
    return p


class TestSturmChain:
    def test_square_free_chain_ends_constant(self):
        chain = SturmChain.build(linear_product([1, 2, 3]))
        assert len(chain.members[-1].coeffs) == 1

    def test_repeated_root_chain_ends_at_gcd_multiple(self):
        chain = SturmChain.build(ExactPoly([1, -2, 1]))  # (x-1)^2
        assert len(chain.members[-1].coeffs) == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            SturmChain.build(ExactPoly([]))

    def test_infinity_variations_match_large_point(self):
        p = linear_product([-7, -3, 0, 2, 11])
        chain = SturmChain.build(p)
        big = 10**9
        assert variations_at_infinity(chain, positive=True) == chain.variations_at(big)
        assert variations_at_infinity(chain, positive=False) == chain.variations_at(-big)


class TestCountRealRoots:
    def test_no_real_roots(self):
        assert count_real_roots(ExactPoly([1, 0, 1])) == 0

    def test_total_and_subinterval(self):
        p = linear_product([1, 2, 3])
        assert count_real_roots(p) == 3
        assert count_real_roots(p, Fraction(1, 2), Fraction(5, 2)) == 2
        assert count_real_roots(p, 10, None) == 0
        assert count_real_roots(p, None, Fraction(1, 2)) == 0

    def test_multiple_roots_counted_once(self):
        p = ExactPoly([1, -2, 1]) * ExactPoly([2, 1])  # (x-1)^2 (x+2)
        assert count_real_roots(p) == 2

    def test_root_at_endpoint_rejected(self):
        p = linear_product([1, 2, 3])
        with pytest.raises(RootAtEndpointError):
            count_real_roots(p, 0, 3)
        with pytest.raises(RootAtEndpointError):
            count_real_roots(p, 1, 10)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            count_real_roots(ExactPoly([1, 1]), 5, 5)
        with pytest.raises(ValueError):
            count_real_roots(ExactPoly([]))

    def test_chain_can_be_reused(self):
        p = linear_product([-4, -1, 6])
        chain = SturmChain.build(p)
        # half-integer endpoints so no window edge hits a root
        windows = [(a - Fraction(1, 2), a + Fraction(1, 2)) for a in range(-10, 11)]
        counts = [count_real_roots(p, lo, hi) for lo, hi in windows]
        assert sum(counts) == 3
        assert counts == [sturm_count(p, lo, hi, chain=chain) for lo, hi in windows]


class TestDegree8Cofactor:
    """Exact root layout of the degree-8 cofactor at n = 10."""

    def setup_method(self):
        self.r = ExactPoly(R_COEFFS)

    def test_six_distinct_real_roots(self):
        assert count_real_roots(self.r) == 6
        assert is_square_free(self.r)
        assert not is_real_rooted(self.r)  # degree 8, so one complex pair

    def test_one_root_per_interval(self):
        for lo, hi in R_INTERVALS:
            assert count_real_roots(self.r, lo, hi) == 1

    def test_no_root_between_minus_six_and_minus_five(self):
        assert count_real_roots(self.r, -6, -5) == 0
        assert self.r(-6) == 2177280
        assert self.r(-5) == 1632960

    def test_all_real_roots_negative(self):
        assert all_real_roots_negative(self.r)

    def test_derivative_is_real_rooted(self):
        rp = derivative(self.r)
        assert is_real_rooted(rp)
        assert count_real_roots(rp) == 7
        for lo, hi in R_PRIME_INTERVALS:
            assert count_real_roots(rp, lo, hi) == 1

    def test_higher_derivatives(self):
        rpp = derivative(derivative(self.r))
        assert count_real_roots(rpp, -9, -8) == 1
        assert count_real_roots(rpp, -5, -4) == 1
        rppp = derivative(rpp)
        assert count_real_roots(rppp, -7, -6) == 1


class TestDegree6Cofactor:
    """Exact root layout of the degree-6 cofactor at n = 11."""

    def test_real_rooted_with_known_intervals(self):
        rt = ExactPoly(RT_COEFFS)
        assert is_real_rooted(rt)
        assert count_real_roots(rt) == 6
        for lo, hi in RT_INTERVALS:
            assert count_real_roots(rt, lo, hi) == 1
        assert all_real_roots_negative(rt)


class TestIsolation:
    def test_known_integer_roots(self):
        roots = [-3, 0, 1]
        p = linear_product(roots)
        intervals = isolate_real_roots(p)
        assert len(intervals) == 3
        for iv, root in zip(intervals, roots):
            assert iv.lower < root <= iv.upper
            assert iv.count == 1
            assert iv.upper - iv.lower <= 1

    def test_refinement_width(self):
        p = linear_product([-2, 5]) * ExactPoly([1, 0, 1])
        width = Fraction(1, 1024)
        intervals = isolate_real_roots(p, max_width=width)
        assert len(intervals) == 2
        assert all(iv.upper - iv.lower <= width for iv in intervals)

    def test_intervals_are_disjoint_and_sorted(self):
        p = linear_product([-8, -1, 0, 3, 9])
        intervals = isolate_real_roots(p, max_width=Fraction(1, 8))
        for a, b in zip(intervals, intervals[1:]):
            assert a.upper <= b.lower

    def test_repeated_roots_isolated_once(self):
        p = ExactPoly([1, -2, 1]) * ExactPoly([2, 1])
        assert len(isolate_real_roots(p)) == 2

    def test_no_real_roots(self):
        assert isolate_real_roots(ExactPoly([1, 0, 1])) == []
        assert isolate_real_roots(ExactPoly([5])) == []

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            isolate_real_roots(ExactPoly([]))
        with pytest.raises(ValueError):
            isolate_real_roots(ExactPoly([1, 1]), max_width=0)

    def test_degree8_cofactor_isolation(self):
        r = ExactPoly(R_COEFFS)
        intervals = isolate_real_roots(r)
        assert len(intervals) == 6
        for iv in intervals:
            assert count_real_roots(r, iv.lower, iv.upper) == 1


class TestSquareFree:
    def test_detects_repeated_root(self):
        assert not is_square_free(ExactPoly([1, -2, 1]))
        assert is_square_free(linear_product([1, 2]))

    def test_part_strips_multiplicity(self):
        p = ExactPoly([1, -2, 1]) * ExactPoly([2, 1])
        part = square_free_part(p)
        assert part == tuple(primitive_int_coeffs(linear_product([1, -2]).coeffs))
        assert is_square_free(part)
        assert square_free_part(part) == part

    def test_low_degree(self):
        assert is_square_free(ExactPoly([7]))
        assert is_square_free(ExactPoly([3, 2]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_square_free(ExactPoly([]))
        with pytest.raises(ValueError):
            square_free_part(ExactPoly([]))

    def test_without_a_certificate_the_gcd_decides(self, monkeypatch):
        # (x - 1)^2 (x + 2) has a repeated root, so the modular certificate
        # is inconclusive and the exact gcd decides; no Sturm chain is built
        rootcert._square_free.cache_clear()  # no answer kept from a test before
        monkeypatch.setattr(SturmChain, "build", None)
        gcds = []
        gcd = rootcert.poly_gcd
        monkeypatch.setattr(
            rootcert, "poly_gcd", lambda a, b: gcds.append(a) or gcd(a, b)
        )
        p = ExactPoly([1, -2, 1]) * ExactPoly([2, 1])
        assert not is_square_free(p)
        assert gcds == [primitive_int_coeffs(p.coeffs)]

    def test_normalized_numerators_square_free(self):
        for n in range(1, 31):
            assert is_square_free(ExactPoly(darcais_record(n).numer_coeffs))

    @settings(derandomize=True, max_examples=150)
    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=6))
    def test_matches_exact_gcd(self, coeffs):
        p = ExactPoly(coeffs)
        if p.is_zero:
            return
        f = primitive_int_coeffs(p.coeffs)
        expected = len(f) <= 1 or len(poly_gcd(f, primitive_int_coeffs(derivative(p).coeffs))) == 1
        assert is_square_free(p) == expected

    @settings(derandomize=True, max_examples=60)
    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=4))
    def test_squared_factor_always_caught(self, coeffs):
        q = ExactPoly(coeffs)
        if len(q.coeffs) <= 1:
            return
        assert not is_square_free(q * q * ExactPoly([1, 1]))


class TestHurwitz:
    def test_stable_quadratic(self):
        assert hurwitz_stable(ExactPoly([3, 2, 1])) == RouthVerdict(
            stable=True, marginal=False, stage=None
        )

    def test_imaginary_axis_pair_is_marginal(self):
        verdict = hurwitz_stable(ExactPoly([2, 0, 1]))
        assert not verdict.stable
        assert verdict.marginal
        assert verdict.stage == 1

    def test_right_half_plane_roots(self):
        verdict = hurwitz_stable(ExactPoly([2, -3, 1]))  # roots 1 and 2
        assert not verdict.stable
        assert not verdict.marginal

    def test_linear_and_constant(self):
        assert hurwitz_stable(ExactPoly([5, 1])).stable
        assert not hurwitz_stable(ExactPoly([-5, 1])).stable
        assert hurwitz_stable(ExactPoly([4])).stable

    def test_leading_sign_is_normalized(self):
        p = linear_product([-1, -2]) * Fraction(-3)
        assert hurwitz_stable(p).stable

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            hurwitz_stable(ExactPoly([0, 1, 1]))
        with pytest.raises(ValueError):
            hurwitz_stable(ExactPoly([]))

    def test_normalized_numerators_stable(self):
        for n in range(1, 31):
            verdict = hurwitz_stable(ExactPoly(darcais_record(n).numer_coeffs))
            assert verdict.stable and not verdict.marginal

    def test_constructed_spectra(self):
        rng = random.Random(20260815)
        x2 = ExactPoly([0, 0, 1])
        for _ in range(40):
            # all roots in the open left half-plane
            p = ExactPoly([1])
            for _ in range(rng.randint(1, 4)):
                a = rng.randint(1, 9)
                if rng.random() < 0.5:
                    p = p * ExactPoly([a, 1])
                else:
                    b = rng.randint(1, 9)
                    p = p * (x2 + ExactPoly([a * a + b * b, 2 * a]))
            assert hurwitz_stable(p).stable
            # one reflected root breaks stability; if it mirrors an existing
            # root the symmetric pair shows up as a marginal verdict instead
            # of a sign change, but never as stable
            bad = p * ExactPoly([-rng.randint(1, 9), 1])
            assert not hurwitz_stable(bad).stable
            # a pure imaginary pair is flagged as marginal
            verdict = hurwitz_stable(p * ExactPoly([rng.randint(1, 9), 0, 1]))
            assert not verdict.stable and verdict.marginal


class TestFactorization:
    def test_known_chain_at_n11(self):
        numer = ExactPoly(darcais_record(11).numer_coeffs)
        factors = [ExactPoly([a, 1]) for a in (1, 2, 3, 8)]
        cofactor = verify_factorization(numer, factors)
        assert cofactor == ExactPoly(RT_COEFFS)

    def test_failure_names_factor(self):
        with pytest.raises(FactorizationError, match="factor 0"):
            verify_factorization(ExactPoly([-1, 0, 1]), [ExactPoly([-2, 1])])
        with pytest.raises(FactorizationError, match="factor 1"):
            verify_factorization(
                linear_product([1, 2]),
                [ExactPoly([-1, 1]), ExactPoly([5, 1])],
            )

    def test_empty_factor_list(self):
        p = linear_product([3])
        assert verify_factorization(p, []) == p


@settings(derandomize=True, max_examples=80)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=5, unique=True),
    st.integers(-25, 25),
    st.integers(-25, 25),
    st.integers(-25, 25),
)
def test_sturm_counts_are_additive(roots, a, b, c):
    p = linear_product(roots)
    # half-integer endpoints are never roots of an integer-rooted product
    lo, mid, hi = sorted(Fraction(2 * t + 1, 2) for t in (a, b, c))
    if not lo < mid < hi:
        return
    left = count_real_roots(p, lo, mid)
    right = count_real_roots(p, mid, hi)
    assert left + right == count_real_roots(p, lo, hi)


@settings(derandomize=True, max_examples=80)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True))
def test_constructed_roots_are_all_found(roots):
    p = linear_product(roots)
    assert count_real_roots(p) == len(roots)
    assert is_real_rooted(p)
    # attaching a complex pair changes the verdict but not the count
    q = p * ExactPoly([1, 0, 1])
    assert count_real_roots(q) == len(roots)
    assert not is_real_rooted(q)
    assert all_real_roots_negative(p) == all(r < 0 for r in roots)


def numerator(n):
    return ExactPoly(darcais_record(n).numer_coeffs)


def bound_exponent(p):
    return rootcert._root_bound_exponent(primitive_int_coeffs(p.coeffs))


class TestRootBound:
    def test_fujiwara_bound_rounded_up_to_a_power_of_two(self):
        # M = max |a_(d-i) / a_d|^(1/i); the bound is the least 2^B >= 2M
        for p in [numerator(n) for n in (2, 10, 40, 80)] + [
            linear_product([-7, 0, 3]),
            ExactPoly([Fraction(1, 1000), 0, 1]),
            ExactPoly([-6, 5, 17, 11, 2]),
            ExactPoly([0, 0, 3]),
        ]:
            a = [abs(c) for c in p.coeffs]
            d = len(a) - 1
            b = bound_exponent(p)
            ratios = [(a[d - i] / a[d], i) for i in range(1, d + 1) if a[d - i]]
            # M <= 2^(B-1), and M > 2^(B-2) unless every root is 0
            assert all(r <= Fraction(2) ** ((b - 1) * i) for r, i in ratios)
            assert not ratios or any(r > Fraction(2) ** ((b - 2) * i) for r, i in ratios)


class TestDescartesAgainstSturm:
    """The bisection's counts and intervals, checked by Sturm's theorem."""

    def test_counts_and_bounds_of_the_numerators(self):
        stripped = 0
        for n in range(1, 81):
            p = numerator(n)
            chain = SturmChain.build(p)
            total = sturm_count(p, chain=chain)
            assert count_real_roots(p) == total, n
            # every real root lies strictly inside the root bound: Sturm
            # refuses root endpoints, so +-2^B are not roots either
            edge = 2 ** bound_exponent(p)
            assert sturm_count(p, -edge, edge, chain=chain) == total, n
            # -1 is a root exactly when n is not a generalized pentagonal number
            quotient, remainder = poly_divmod(p, ExactPoly([1, 1]))
            if remainder.is_zero:
                stripped += 1
                assert count_real_roots(quotient) == sturm_count(quotient), n
        assert stripped == 80 - 14  # 1, 2, 5, 7, 12, 15, 22, 26, 35, 40, 51, 57, 70, 77

    @pytest.mark.parametrize("width", [Fraction(1), Fraction(1, 64)])
    def test_isolation_of_the_numerators(self, width):
        for n in range(1, 41):
            p = numerator(n)
            check_isolation(p, isolate_real_roots(p, max_width=width), width)

    @pytest.mark.parametrize(
        "p",
        [
            linear_product([-1, -2, -3]) * ExactPoly([-1, 2]),  # roots -1, -2, -3, 1/2
            ExactPoly([-3, 2]) * ExactPoly([-1, 2]),  # roots 3/2 and 1/2
            linear_product([-3, -2, -1, 0, 1, 2, 3]),
            ExactPoly([-1, 2]) * ExactPoly([-5, 8]) * ExactPoly([-2, 3]),  # 1/2, 5/8, 2/3
            ExactPoly([3, 8]) * ExactPoly([1, 0, -3]),  # -3/8, +-1/sqrt(3)
            numerator(11),  # roots -1, -2, -3 and -8
        ],
    )
    def test_roots_at_dyadic_split_points(self, p):
        # a root at a halving point is counted there and divided out; the
        # intervals around it and its neighbours hold one root each
        assert count_real_roots(p) == sturm_count(p)
        for width in (Fraction(4), Fraction(1), Fraction(1, 3), Fraction(1, 1024)):
            check_isolation(p, isolate_real_roots(p, max_width=width), width)
        grid = [Fraction(k, 6) for k in range(-60, 61)]
        edges = [x for x in grid if p(x) != 0]
        for lo, hi in zip(edges, edges[3:]):
            assert count_real_roots(p, lo, hi) == sturm_count(p, lo, hi)
        assert count_real_roots(p, None, edges[30]) == sturm_count(p, None, edges[30])
        assert count_real_roots(p, edges[-30], None) == sturm_count(p, edges[-30], None)

    @pytest.mark.parametrize(
        "p",
        [
            ExactPoly([1, -2, 1]) * ExactPoly([2, 1]),  # (x - 1)^2 (x + 2)
            # (2x - 1)^2 (x - 3)(x^2 + 1)
            ExactPoly([-1, 2]) * ExactPoly([-1, 2]) * linear_product([3]) * ExactPoly([1, 0, 1]),
            linear_product([0, 0, 0, 5]),  # x^3 (x - 5)
            ExactPoly([-2, 0, 1]) * ExactPoly([-2, 0, 1]) * ExactPoly([1, 1]),  # (x^2 - 2)^2 (x + 1)
            ExactPoly([-1, 3]) * ExactPoly([-1, 3]) * ExactPoly([-1, 3]) * ExactPoly([7, 1]),
        ],
    )
    def test_repeated_roots_with_an_inconclusive_certificate(self, p):
        # the modular certificate cannot prove these square free, so the
        # counts run on p / gcd(p, p'): every distinct root once
        assert not rootcert._certified_square_free(primitive_int_coeffs(p.coeffs))
        assert not is_square_free(p)
        distinct = len(p.coeffs) - 1 - sturm_tail_degree(p)
        assert count_real_roots(p) == sturm_count(p)
        assert is_real_rooted(p) == (sturm_count(p) == distinct)
        for width in (Fraction(1), Fraction(1, 256)):
            check_isolation(p, isolate_real_roots(p, max_width=width), width)

    @pytest.mark.parametrize("c, real", [(2**59, 0), (1 - 3 * 2**59, 2)])
    def test_square_free_with_an_inconclusive_certificate(self, c, real):
        # x^2 + x + c has discriminant 1 - 4c = -(2^61 - 1) or 3 (2^61 - 1),
        # so mod the first certificate prime it has a double root
        p = ExactPoly([c, 1, 1])
        assert not rootcert._certified_square_free(primitive_int_coeffs(p.coeffs))
        assert is_square_free(p)
        assert count_real_roots(p) == sturm_count(p) == real
        assert is_real_rooted(p) == (real == 2)
        check_isolation(p, isolate_real_roots(p), 1)


@settings(derandomize=True, max_examples=120)
@given(
    st.lists(
        st.tuples(st.integers(-40, 40), st.integers(0, 4), st.integers(1, 2)),
        min_size=1, max_size=5,
    ),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
)
def test_dyadic_roots_agree_with_sturm(roots, cofactor):
    # roots a / 2^k, some doubled, times a random cofactor
    p = ExactPoly(cofactor[:-1] + [cofactor[-1] or 1])
    for a, k, mult in roots:
        for _ in range(mult):
            p = p * ExactPoly([-a, 2**k])
    assert count_real_roots(p) == sturm_count(p)
    distinct = len(p.coeffs) - 1 - sturm_tail_degree(p)
    assert is_real_rooted(p) == (sturm_count(p) == distinct)
    width = Fraction(1, 16)
    check_isolation(p, isolate_real_roots(p, max_width=width), width)


class TestBisectionDepth:
    def test_a_repeated_irrational_root_raises_instead_of_looping(self):
        # (x^2 - 2)^2 (x + 1) is not square free: every interval around its
        # double root sqrt 2 keeps two sign variations.  Past the depth the
        # root separation bound allows, the bisection raises.  It runs in a
        # subprocess, so a bisection that never ends fails the test on the
        # timeout instead of stalling the suite.
        script = (
            "from darcais import rootcert\n"
            "try:\n"
            "    rootcert._real_roots([4, 4, -4, -4, 1, 1])\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(rootcert.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "past the root separation bound" in result.stdout

    @pytest.mark.parametrize("a", [10, 1000, 10**6])
    def test_close_roots_are_still_separated(self, a):
        # Mignotte's x^5 - 2 (a x - 1)^2 has two roots within about
        # 2 a^(-7/2) of 1/a, far closer than its other roots; the depth
        # limit must not stop the bisection before it splits them
        p = ExactPoly([0, 0, 0, 0, 0, 1]) - ExactPoly([-1, a]) * ExactPoly([-1, a]) * 2
        assert count_real_roots(p) == sturm_count(p) == 3
        intervals = isolate_real_roots(p, max_width=Fraction(1, a**4))
        check_isolation(p, intervals, Fraction(1, a**4))
        assert len(intervals) == 3
