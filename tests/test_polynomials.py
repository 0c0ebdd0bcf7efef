"""Tests for the polynomial recursion, series oracle, and identity routes."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from darcais import partitions, polynomials
from darcais.exactnum import ExactPoly
from darcais.partitions import HookSelector, enumerate_partitions
from darcais.polynomials import (
    _ROUTES,
    _exact_quotient,
    _packed_sums,
    _read_slots,
    DArcaisRecord,
    ROUTE_NAMES,
    darcais_record,
    q_scaled_coeffs,
    scaled_coeffs,
    seed_records,
    verify_identity,
    verify_up_to,
)
from oracles import (
    binomial,
    binomial_sum,
    binomial_sum_convolve,
    darcais_poly,
    euler_series_poly,
    finite_product_coefficient,
    hook_sum_convolve,
    hook_sum_full,
    hook_sum_trivial_arm,
    hook_sum_trivial_leg,
    multiplicity_vector,
    partition_count,
    q_poly,
    record_poly,
    scaled_coeffs_direct,
    shift,
    shift_by_one_loop,
    sigma_table,
)

# the degree-8 cofactor of the n = 10 polynomial: normalized numerator
# divided by (x + 1)
R_COEFFS = (6531840, 29758896, 28014804, 10035116, 1709659, 147854, 6496, 134, 1)

PENTAGONAL = {k * (3 * k - 1) // 2 for k in range(-20, 21)}


def sigma(n):
    """sigma(n) from the divisor-sum table the recursion oracle reads."""
    return sigma_table(n)[n]


class TestSigma:
    def test_values(self):
        assert [sigma(n) for n in range(1, 13)] == [
            1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28,
        ]

    def test_multiplicative_on_coprime(self):
        for a, b in [(3, 4), (5, 8), (7, 9), (11, 25)]:
            assert sigma(a * b) == sigma(a) * sigma(b)


class TestRecursion:
    def test_first_polynomials(self):
        assert darcais_poly(0) == ExactPoly([1])
        assert darcais_poly(1) == ExactPoly([0, 1])
        # P_2 = x(x+3)/2
        assert darcais_poly(2) == ExactPoly([0, Fraction(3, 2), Fraction(1, 2)])
        # P_3 = x(x+1)(x+8)/6
        x = ExactPoly([0, 1])
        assert darcais_poly(3) == x * ExactPoly([1, 1]) * ExactPoly([8, 1]) * Fraction(1, 6)

    def test_degree_and_leading_coefficient(self):
        for n in range(0, 30):
            p = darcais_poly(n)
            assert len(p.coeffs) - 1 == n
            assert p.coeffs[-1] == Fraction(1, math.factorial(n))

    def test_scaled_coefficients_are_positive_integers(self):
        for n in range(1, 40):
            coeffs = scaled_coeffs(n)
            assert coeffs[0] == 0
            assert coeffs[-1] == 1
            assert all(c > 0 for c in coeffs[1:])

    def test_value_at_one_counts_partitions(self):
        for n in range(0, 40):
            assert darcais_poly(n)(1) == partition_count(n)

    def test_value_at_zero(self):
        for n in range(1, 20):
            assert darcais_poly(n)(0) == 0

    def test_value_at_minus_one_is_pentagonal_indicator(self):
        # P_n(-1) is the q^n coefficient of prod (1 - q^m): +-1 at
        # generalized pentagonal numbers, 0 otherwise
        for n in range(0, 60):
            value = darcais_poly(n)(-1)
            if n in PENTAGONAL:
                assert value in (1, -1)
            else:
                assert value == 0

    def test_record_n10(self):
        rec = darcais_record(10)
        # normalized numerator equals (x + 1) * R(x)
        product = ExactPoly([1, 1]) * ExactPoly(R_COEFFS)
        assert ExactPoly(rec.numer_coeffs) == product
        assert record_poly(rec) == darcais_poly(10)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            darcais_record(0)
        with pytest.raises(ValueError):
            DArcaisRecord(3, (8, 9))  # wrong length
        with pytest.raises(ValueError):
            DArcaisRecord(2, (3, 2))  # not monic-normalized

    def test_horner_nesting_matches_direct_sum(self):
        # the memoized table uses the Horner-nested form of the recursion
        for m, direct in enumerate(scaled_coeffs_direct(150)):
            assert scaled_coeffs(m) == direct, m

    def test_q_memo_matches_shifted_direct_sum(self):
        # the Q table comes from its own recurrence, never from a Taylor
        # shift of the P table; the divisor-sum rows shifted one addition
        # at a time must agree with it
        for m, direct in enumerate(scaled_coeffs_direct(150)):
            assert q_scaled_coeffs(m) == tuple(shift_by_one_loop(direct)), m

    def test_pentagonal_terms_expand_the_euler_product(self):
        # prod_{m<=200} (1 - q^m), truncated past q^200, multiplied out
        size = 200
        product = [1] + [0] * size
        for m in range(1, size + 1):
            for i in range(size, m - 1, -1):
                product[i] -= product[i - m]
        expected = [(j, e) for j, e in enumerate(product) if j and e]
        assert polynomials._pentagonal_terms(size) == expected
        assert polynomials._pentagonal_terms(0) == []


class TestSeriesOracle:
    def test_matches_recursion(self):
        for n in range(0, 25):
            assert euler_series_poly(n) == darcais_poly(n)

    def test_finite_product_specialization(self):
        # [q^n] prod_{d<=n} (1-q^d)^m is an integer equal to P_n(-m)
        for m in range(0, 6):
            for n in range(0, 15):
                value = finite_product_coefficient(m, n)
                assert darcais_poly(n)(-m) == value

    def test_alternating_binomial_expansion(self):
        # P_n(-m) = sum over partitions of (-1)^length prod C(m, k_j),
        # a purely combinatorial third route
        for m in range(0, 6):
            for n in range(1, 13):
                total = Fraction(0)
                for p in enumerate_partitions(n):
                    term = Fraction(1)
                    for k in multiplicity_vector(p):
                        term *= binomial(m, k)
                    total += (-1) ** len(p.parts) * term
                assert total == darcais_poly(n)(-m)


class TestShiftedPolynomials:
    def test_q_poly_is_shift_of_p(self):
        for n in range(0, 25):
            assert q_poly(n) == shift(darcais_poly(n), 1)

    def test_q_scaled_matches_q_poly(self):
        for n in range(0, 25):
            fact = math.factorial(n)
            assert q_poly(n) == ExactPoly(
                Fraction(c, fact) for c in q_scaled_coeffs(n)
            )

    def test_q_at_zero_counts_partitions(self):
        for n in range(0, 30):
            assert q_poly(n)(0) == partition_count(n)

    def test_q_at_minus_one_vanishes(self):
        for n in range(1, 30):
            assert q_poly(n)(-1) == 0


class TestHookRoutes:
    def test_all_routes_agree_small(self):
        for n in range(1, 11):
            base = q_poly(n)
            assert hook_sum_full(n) == base
            assert hook_sum_trivial_leg(n) == base
            assert hook_sum_trivial_arm(n) == base
            assert binomial_sum(n) == base

    def test_single_partition_product(self):
        # n = 1: only (1), hook multiset {1}: Q_1 = 1 + z
        assert hook_sum_full(1) == ExactPoly([1, 1])
        assert hook_sum_trivial_leg(1) == ExactPoly([1, 1])

    def test_invalid_n(self):
        for fn in (hook_sum_full, hook_sum_trivial_leg, hook_sum_trivial_arm, binomial_sum):
            with pytest.raises(ValueError):
                fn(0)

    @pytest.mark.parametrize(
        "route, selector, square, top",
        [
            (hook_sum_full, HookSelector.FULL, True, 16),
            (hook_sum_trivial_leg, HookSelector.TRIVIAL_LEG, False, 20),
            (hook_sum_trivial_arm, HookSelector.TRIVIAL_ARM, False, 20),
        ],
    )
    def test_packed_hook_sums_match_expanded_products(self, route, selector, square, top):
        for n in range(1, top + 1):
            assert route(n) == hook_sum_convolve(n, selector, square), n

    def test_packed_binomial_sum_matches_expanded_products(self):
        for n in range(1, 21):
            assert binomial_sum(n) == binomial_sum_convolve(n), n

    @pytest.mark.parametrize(
        "route, oracle, n",
        [
            (hook_sum_full, lambda n: hook_sum_convolve(n, HookSelector.FULL, True), 22),
            (hook_sum_trivial_leg,
             lambda n: hook_sum_convolve(n, HookSelector.TRIVIAL_LEG, False), 26),
            (hook_sum_trivial_arm,
             lambda n: hook_sum_convolve(n, HookSelector.TRIVIAL_ARM, False), 26),
            (binomial_sum, binomial_sum_convolve, 26),
        ],
    )
    def test_routes_match_expanded_products_at_the_benchmark_sizes(self, route, oracle, n):
        # the largest n the benchmark's verify jobs run each route at
        assert route(n) == oracle(n)

    @pytest.mark.parametrize(
        "walk, oracle, exp, top",
        [
            pytest.param(lambda lo, hi: _packed_sums(lo, hi, *_ROUTES["full_hooks"]),
                         lambda n: hook_sum_convolve(n, HookSelector.FULL, True), 2, 22,
                         id="full_hooks"),
            pytest.param(lambda lo, hi: _packed_sums(lo, hi, *_ROUTES["trivial_legs"]),
                         lambda n: hook_sum_convolve(n, HookSelector.TRIVIAL_LEG, False), 1,
                         26, id="trivial_legs"),
            pytest.param(lambda lo, hi: _packed_sums(lo, hi, *_ROUTES["trivial_arms"]),
                         lambda n: hook_sum_convolve(n, HookSelector.TRIVIAL_ARM, False), 1,
                         26, id="trivial_arms"),
            pytest.param(lambda lo, hi: _packed_sums(lo, hi, *_ROUTES["binomials"]),
                         binomial_sum_convolve, 1, 26, id="binomials"),
        ],
    )
    def test_one_walk_matches_expanded_products_at_every_size(self, walk, oracle, exp, top):
        # one slot, sized for top, holds every smaller size's coefficients
        rows = walk(1, top)
        assert len(rows) == top
        for n, row in enumerate(rows, start=1):
            denom = math.factorial(n) ** exp
            assert ExactPoly(Fraction(c, denom) for c in row) == oracle(n), n
        # a walk over part of the range gives the same rows
        assert walk(top - 5, top - 2) == rows[top - 6:top - 2]

    def test_read_slots_round_trips_full_slots(self):
        slot = 7
        coeffs = [0, (1 << slot) - 1, 5, (1 << slot) - 1]
        total = sum(c << (slot * i) for i, c in enumerate(coeffs))
        assert _read_slots(total, slot, len(coeffs)) == coeffs

    def test_read_slots_rejects_overflow_of_the_top_slot(self):
        slot = 7
        # the top coefficient needs slot + 1 bits: its carry lands above
        total = 3 + ((1 << slot) << (2 * slot))
        with pytest.raises(ArithmeticError, match="overflows"):
            _read_slots(total, slot, 3)
        # the same value read with one more slot is fine
        assert _read_slots(total, slot, 4) == [3, 0, 0, 1]

    def test_inexact_scale_is_rejected(self):
        assert _exact_quotient(math.factorial(6), 48) == 15
        with pytest.raises(ArithmeticError, match="does not divide"):
            _exact_quotient(math.factorial(6), 7)


@pytest.fixture
def walks(monkeypatch):
    """The (lo, hi) of every partition walk the test makes, in order."""
    made = []
    walk = partitions.grow_rows

    def counted(lo, hi, *args):
        made.append((lo, hi))
        return walk(lo, hi, *args)

    monkeypatch.setattr(partitions, "grow_rows", counted)
    return made


class TestVerifyIdentity:
    def test_all_routes_pass_n10(self):
        report = verify_identity(10, ROUTE_NAMES)
        assert report.passed
        statuses = report.details["routes"]
        assert all(v["status"] == "pass" for v in statuses.values())
        assert report.witnesses == []

    def test_trivially_passes_n1(self):
        assert verify_identity(1, ROUTE_NAMES).passed

    def test_bounds_can_be_raised(self):
        # the feasibility bounds gate the CLI alone (verify --force raises
        # them); a library caller computes past them
        report = verify_identity(34, routes=["full_hooks"])
        assert report.details["routes"]["full_hooks"]["status"] == "pass"

    def test_tampered_route_fails_with_witness(self):
        report = verify_identity(
            6, routes=["binomials"], tamper={"binomials": (2, Fraction(1, 7))}
        )
        assert not report.passed
        assert report.details["routes"]["binomials"]["status"] == "fail"
        (witness,) = report.witnesses
        assert witness["route"] == "binomials"
        assert witness["coefficient_index"] == 2
        assert Fraction(witness["actual"]) - Fraction(witness["expected"]) == Fraction(1, 7)

    def test_tamper_index_far_past_the_row_is_its_own_witness(self):
        # compared as integers, the injected index is never materialized
        index = 10**29 + 7
        report = verify_identity(3, ["binomials"], tamper={"binomials": (index, Fraction(1))})
        assert not report.passed
        (witness,) = report.witnesses
        assert witness == {
            "route": "binomials", "coefficient_index": index, "expected": "0", "actual": "1",
        }

    def test_tamper_that_cancels_a_wrong_coefficient_passes(self, monkeypatch):
        # binomial row 4 is off by z^2/4!; delta -1/4! at index 2 undoes it
        packed = polynomials._packed_sums

        def wrong_sums(lo, hi, make_grow, exp, seed):
            rows = [list(row) for row in packed(lo, hi, make_grow, exp, seed)]
            if make_grow is polynomials._ROUTES["binomials"][0]:
                rows[4 - lo][2] += 1
            return [tuple(row) for row in rows]

        monkeypatch.setattr(polynomials, "_packed_sums", wrong_sums)
        assert not verify_identity(4, ["binomials"]).passed
        tamper = {"binomials": (2, Fraction(-1, 24))}
        assert verify_identity(4, ["binomials"], tamper=tamper).passed
        # an injection past the row does not hide the wrong coefficient below it
        (witness,) = verify_identity(4, ["binomials"], tamper={"binomials": (9, 1)}).witnesses
        assert witness["coefficient_index"] == 2

    def test_negative_tamper_index_is_rejected(self):
        # it would count from the top coefficient
        with pytest.raises(ValueError, match="negative"):
            verify_identity(1, ["trivial_legs"], tamper={"trivial_legs": (-1, 1)})

    def test_a_single_n_walks_that_n_alone(self, walks):
        assert verify_identity(12, ROUTE_NAMES).passed
        assert walks == [(12, 12)] * len(ROUTE_NAMES)


    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            verify_identity(5, routes=["astrology"])

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            verify_identity(0, ROUTE_NAMES)


class TestVerifyUpTo:
    @staticmethod
    def untimed(report):
        return report.target, report.verdict, report.details, report.witnesses

    def test_each_route_walks_once_and_each_n_matches_verify_identity(self, walks):
        reports = list(verify_up_to(12, ROUTE_NAMES))
        assert walks == [(1, 12)] * len(ROUTE_NAMES)
        assert [r.target["n"] for r in reports] == list(range(1, 13))
        assert all(report.passed for report in reports)
        for n, report in enumerate(reports, start=1):
            assert self.untimed(report) == self.untimed(verify_identity(n, ROUTE_NAMES))
        # the first report holds each walk's seconds, the later ones none
        assert all(reports[0].timings[name] > 0 for name in ROUTE_NAMES)
        assert all(r.timings[name] == 0.0 for r in reports[1:] for name in ROUTE_NAMES)

    def test_an_injected_error_ends_the_reports_at_n_1(self, walks):
        tamper = {"binomials": (2, Fraction(1, 7))}
        (report,) = verify_up_to(30, ["trivial_legs", "binomials"], tamper=tamper)
        assert walks == [(1, 1), (1, 1)]
        assert self.untimed(report) == self.untimed(
            verify_identity(1, ["trivial_legs", "binomials"], tamper=tamper)
        )
        assert not report.passed

    def test_an_injection_that_cancels_walks_the_rest_once(self, walks):
        reports = list(verify_up_to(5, ["binomials"], tamper={"binomials": (0, 0)}))
        assert walks == [(1, 1), (2, 5)]
        assert [r.target["n"] for r in reports] == [1, 2, 3, 4, 5]
        assert all(report.passed for report in reports)

    def test_invalid_max_n(self):
        with pytest.raises(ValueError):
            list(verify_up_to(0, ROUTE_NAMES))


class TestSeeding:
    def test_seed_rejects_mismatch(self):
        with pytest.raises(ValueError, match="disagrees"):
            seed_records({1: (2,)})

    def test_seed_accepts_consistent_overlap(self):
        seed_records({1: (1,), 2: (3, 1)})

    def test_seed_rejects_gap(self):
        far = 10**6
        with pytest.raises(ValueError):
            seed_records({far: tuple([1] * far)})


@settings(derandomize=True, max_examples=60)
@given(st.integers(min_value=1, max_value=40))
def test_record_round_trip(n):
    rec = darcais_record(n)
    assert rec.n == n
    assert len(rec.numer_coeffs) == n
    assert record_poly(rec) == darcais_poly(n)
