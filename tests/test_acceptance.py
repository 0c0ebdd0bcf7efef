"""Acceptance suite: ten exact, zero-tolerance criteria.

Each test prints one line, `ACCEPTANCE <k>: PASS — <summary>` or the
matching FAIL line, before pytest records the verdict (run with -s to
see the lines).  Every comparison is exact integer or rational
arithmetic; there are no tolerances anywhere.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from darcais.exactnum import ExactPoly
from darcais.partitions import HookSelector, Partition
from darcais.pf_tnn import ToeplitzSeq, contiguous_minor_spec, pf_test, _det_bareiss
from darcais.polynomials import (
    binomial_sum,
    darcais_poly,
    darcais_record,
    hook_sum_full,
    hook_sum_trivial_arm,
    hook_sum_trivial_leg,
    q_poly,
    scaled_coeffs,
)
from darcais.rootcert import (
    count_real_roots,
    hurwitz_stable,
    is_real_rooted,
    is_square_free,
)
from darcais.shape import is_unimodal, shape_report, shape_summary
from oracles import (
    conjugate,
    derivative,
    count_syt,
    elements,
    euler_series_poly,
    toeplitz_entry,
    verify_factorization,
)

X = ExactPoly([0, 1])

R_COEFFS = (6531840, 29758896, 28014804, 10035116, 1709659, 147854, 6496, 134, 1)
R_INTERVALS = [(-59, -58), (-33, -32), (-18, -17), (-14, -13), (-2, -1), (-1, 0)]
R_PRIME_INTERVALS = [
    (-53, -52), (-29, -28), (-16, -15), (-11, -10), (-6, -5), (-4, -3), (-1, 0),
]
RT_INTERVALS = [(-67, -66), (-39, -38), (-22, -21), (-17, -16), (-8, -7), (-1, 0)]
R_WITNESS_DET = int(
    "-2876174434925079210074718217371979999968306174665777544936215683258363"
    "5238442846206212181574841380899314958179875932914300484193239997757367"
    "230331714174414982312099840"
)


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL — {summary}")
        raise
    print(f"\nACCEPTANCE {number}: PASS — {summary}")


def test_criterion_01_series_oracle_matches_recursion():
    with criterion(1, "power-series oracle equals divisor-sum recursion, n <= 64"):
        start = time.perf_counter()
        for n in range(0, 65):
            assert euler_series_poly(n) == darcais_poly(n), n
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f}s, budget is 60s"


def test_criterion_02_hook_length_identities():
    with criterion(
        2,
        "trivial-leg, trivial-arm, and binomial sums equal the shifted "
        "polynomial (n <= 25, binomials to 40), full hook sum to 18",
    ):
        for n in range(1, 26):
            base = q_poly(n)
            assert hook_sum_trivial_leg(n) == base, n
            assert hook_sum_trivial_arm(n) == base, n
            assert binomial_sum(n) == base, n
        for n in range(26, 41):
            assert binomial_sum(n) == q_poly(n), n
        for n in range(1, 19):
            assert hook_sum_full(n) == q_poly(n), n


def test_criterion_03_degree8_cofactor_coefficients():
    with criterion(
        3,
        "scaled degree-10 polynomial factors exactly as x(x+1) times the "
        "nine frozen integer coefficients",
    ):
        u10 = ExactPoly(scaled_coeffs(10))
        assert u10 == darcais_poly(10) * math.factorial(10)
        cofactor = verify_factorization(u10, [X, ExactPoly([1, 1])])
        assert cofactor.coeffs == tuple(Fraction(c) for c in R_COEFFS)


def test_criterion_04_pf_counterexample_certificates():
    with criterion(
        4,
        "negative Toeplitz minors certify the PF failures (4x4 determinant "
        "-4; 26x26 window at row offset 3) and agree with the Sturm verdict",
    ):
        short = ToeplitzSeq((2, 2, 1))
        verdict = pf_test(short)
        assert not verdict.is_pf
        assert verdict.witness.spec == contiguous_minor_spec(4, row_start=1)
        assert verdict.witness.determinant == -4
        assert verdict.is_pf == is_real_rooted(short.entries)

        seq = ToeplitzSeq(R_COEFFS)
        verdict = pf_test(seq)
        assert not verdict.is_pf
        witness = verdict.witness
        assert witness.spec.rows == tuple(range(3, 29))
        assert witness.spec.cols == tuple(range(0, 26))
        assert witness.determinant == R_WITNESS_DET < 0
        matrix = [
            [int(toeplitz_entry(seq, i, j)) for j in witness.spec.cols]
            for i in witness.spec.rows
        ]
        assert _det_bareiss(matrix) == witness.determinant
        assert verdict.is_pf == is_real_rooted(seq.entries)

        positive_control = ToeplitzSeq((1, 2, 1))
        verdict = pf_test(positive_control)
        assert verdict.is_pf
        assert verdict.is_pf == is_real_rooted(positive_control.entries)


def test_criterion_05_root_localization():
    with criterion(
        5,
        "degree-8 cofactor: one root per frozen interval, none elsewhere "
        "(6 real + 1 complex pair), positive on (-6,-5); its derivative "
        "has one root in each of seven intervals",
    ):
        r = ExactPoly(R_COEFFS)
        for lo, hi in R_INTERVALS:
            assert count_real_roots(r, lo, hi) == 1, (lo, hi)
        assert count_real_roots(r) == 6
        # nothing outside the union of the frozen intervals
        assert count_real_roots(r, None, -59) == 0
        gaps = [(-58, -33), (-32, -18), (-17, -14), (-13, -2)]
        for lo, hi in gaps:
            assert count_real_roots(r, lo, hi) == 0, (lo, hi)
        assert count_real_roots(r, 0, None) == 0
        assert (len(r.coeffs) - 1 - 6) // 2 == 1
        assert is_square_free(r)
        # strict positivity certificate on (-6, -5)
        assert count_real_roots(r, -6, -5) == 0
        assert r(-6) == 2177280 > 0
        assert r(-5) == 1632960 > 0
        rp = derivative(r)
        assert count_real_roots(rp) == 7
        for lo, hi in R_PRIME_INTERVALS:
            assert count_real_roots(rp, lo, hi) == 1, (lo, hi)


def test_criterion_06_degree11_factorization():
    with criterion(
        6,
        "scaled degree-11 polynomial is exactly divisible by "
        "x(x+1)(x+2)(x+3)(x+8); the degree-6 quotient is real-rooted with "
        "one root per frozen interval",
    ):
        u11 = ExactPoly(scaled_coeffs(11))
        factors = [X] + [ExactPoly([a, 1]) for a in (1, 2, 3, 8)]
        quotient = verify_factorization(u11, factors)
        assert len(quotient.coeffs) - 1 == 6
        assert count_real_roots(quotient) == 6
        for lo, hi in RT_INTERVALS:
            assert count_real_roots(quotient, lo, hi) == 1, (lo, hi)


def test_criterion_07_stability_and_square_freeness():
    with criterion(
        7,
        "normalized numerators are Hurwitz stable and the scaled "
        "polynomials square-free for 1 <= n <= 100",
    ):
        for n in range(1, 101):
            verdict = hurwitz_stable(ExactPoly(darcais_record(n).numer_coeffs))
            assert verdict.stable and not verdict.marginal, n
            assert is_square_free(ExactPoly(scaled_coeffs(n))), n


def test_criterion_08_ultra_log_concavity():
    with criterion(
        8,
        "shifted polynomials are ultra-log-concave for 1 <= n <= 300 with "
        "the implication chain asserted on every n",
    ):
        reports = shape_report(range(1, 301))
        assert len(reports) == 300
        for rep in reports:
            # shape_summary inside shape_report raises on any breach of
            # ultra-log-concave => log-concave => unimodal
            assert rep.verdict == "pass", rep.target
            assert rep.details["ultra_log_concave"] is True
            assert rep.details["log_concave"] is True
            assert rep.details["unimodal"] is True


def test_criterion_09_unimodality_examples():
    with criterion(9, "(2,0,1) is not unimodal, (3,2,1) is"):
        bad = is_unimodal((2, 0, 1))
        assert bad.unimodal is False
        assert bad.failure_witness == 1
        good = is_unimodal((3, 2, 1))
        assert good.unimodal is True
        assert good.peak_index == 0


def test_criterion_10_randomized_property_suites():
    with criterion(
        10,
        "five seeded property suites (ring axioms, Sturm additivity, "
        "determinant agreement, Newton ultra-log-concavity, conjugation "
        "duality), 200 instances each",
    ):
        _suite_ring_axioms(random.Random(101), 200)
        _suite_sturm_additivity(random.Random(202), 200)
        _suite_determinants(random.Random(303), 200)
        _suite_newton(random.Random(404), 200)
        _suite_conjugation(random.Random(505), 200)


def _random_poly(rng, max_degree=5):
    return ExactPoly(
        Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for _ in range(rng.randint(0, max_degree + 1))
    )


def _suite_ring_axioms(rng, count):
    for _ in range(count):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        t = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        assert (a * b)(t) == a(t) * b(t)
        assert (a + b)(t) == a(t) + b(t)


def _suite_sturm_additivity(rng, count):
    for _ in range(count):
        roots = rng.sample(range(-15, 16), rng.randint(1, 4))
        p = ExactPoly([1])
        for r in roots:
            p = p * ExactPoly([-r, 1])
        a, b, c = sorted(
            Fraction(2 * rng.randint(-16, 16) + 1, 2) for _ in range(3)
        )
        if not a < b < c:
            continue
        left = count_real_roots(p, a, b)
        right = count_real_roots(p, b, c)
        assert left + right == count_real_roots(p, a, c)
        assert count_real_roots(p) == len(roots)


def _det_cofactor(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** j * top * _det_cofactor([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, top in enumerate(matrix[0])
        if top
    )


def _suite_determinants(rng, count):
    for _ in range(count):
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert _det_bareiss(matrix) == _det_cofactor(matrix)


def _suite_newton(rng, count):
    for _ in range(count):
        p = ExactPoly([rng.randint(1, 5)])
        for _ in range(rng.randint(1, 7)):
            p = p * ExactPoly([rng.randint(1, 9), 1])
        verdict = shape_summary([int(c) for c in p.coeffs])
        assert verdict.ultra_log_concave is True
        assert verdict.log_concave is True
        assert verdict.unimodal is True


def _suite_conjugation(rng, count):
    for _ in range(count):
        parts = sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 8))), reverse=True)
        p = Partition(parts)
        q = conjugate(p)
        assert conjugate(q) == p
        assert sum(q.parts) == sum(p.parts)
        # transposing swaps arms and legs: full hooks are preserved and
        # the trivial-leg multiset maps to the trivial-arm multiset
        assert elements(q.hooks()) == elements(p.hooks())
        assert elements(q.hooks(HookSelector.TRIVIAL_LEG)) == elements(
            p.hooks(HookSelector.TRIVIAL_ARM)
        )
        assert elements(q.hooks(HookSelector.TRIVIAL_ARM)) == elements(
            p.hooks(HookSelector.TRIVIAL_LEG)
        )
        assert count_syt(p) == count_syt(q)
