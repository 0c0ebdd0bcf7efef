"""Tests for unimodality, log-concavity, and ultra-log-concavity checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from darcais import shape
from darcais.exactnum import ExactPoly
from darcais.polynomials import q_scaled_coeffs
from darcais.shape import (
    InternalConsistencyError,
    ShapeVerdict,
    is_log_concave,
    is_ultra_log_concave,
    is_unimodal,
    shape_report,
    shape_summary,
)
from oracles import shape_summary_separate, ulc_witness_comb

# degree-6 cofactor of the n = 11 normalized numerator: positive and
# real-rooted, hence ultra-log-concave by Newton's inequalities
RT_COEFFS = (907200, 7260120, 1983222, 190049, 8057, 151, 1)


class TestUnimodal:
    def test_dip_witness(self):
        verdict = is_unimodal((2, 0, 1))
        assert verdict.unimodal is False
        assert verdict.failure_witness == 1

    def test_decreasing_sequence_peaks_at_zero(self):
        verdict = is_unimodal((3, 2, 1))
        assert verdict.unimodal is True
        assert verdict.peak_index == 0

    def test_plateau_peak_is_leftmost(self):
        assert is_unimodal((1, 2, 2, 1)).peak_index == 1
        assert is_unimodal((2, 2, 2)).peak_index == 0

    def test_dip_in_plateau(self):
        verdict = is_unimodal((1, 3, 2, 2, 5))
        assert verdict.unimodal is False
        assert verdict.failure_witness == 2

    def test_single_entry(self):
        verdict = is_unimodal((7,))
        assert verdict.unimodal is True
        assert verdict.peak_index == 0


class TestLogConcave:
    def test_simple_cases(self):
        assert is_log_concave((1, 2, 2, 1)).log_concave is True
        verdict = is_log_concave((1, 1, 2))
        assert verdict.log_concave is False
        assert verdict.failure_witness == 1

    def test_internal_zero_breaks_log_concavity(self):
        verdict = is_log_concave((1, 0, 1))
        assert verdict.log_concave is False
        assert verdict.failure_witness == 1

    def test_short_sequences_trivially_pass(self):
        assert is_log_concave((5,)).log_concave is True
        assert is_log_concave((5, 3)).log_concave is True


class TestUltraLogConcave:
    def test_binomial_rows_are_ulc(self):
        for n in range(1, 12):
            row = [math.comb(n, k) for k in range(n + 1)]
            assert is_ultra_log_concave(row).ultra_log_concave is True

    def test_log_concave_but_not_ulc(self):
        # constant sequences are log-concave; dividing by binomials
        # produces a convex dip
        seq = (1, 1, 1)
        assert is_log_concave(seq).log_concave is True
        verdict = is_ultra_log_concave(seq)
        assert verdict.ultra_log_concave is False
        assert verdict.failure_witness == 1

    def test_degree6_cofactor_is_ulc(self):
        assert is_ultra_log_concave(RT_COEFFS).ultra_log_concave is True

    def test_matches_binomial_form_on_q_n(self):
        for n in range(0, 151):
            seq = q_scaled_coeffs(n)
            verdict = is_ultra_log_concave(seq)
            assert ulc_witness_comb(seq) is None
            assert verdict == ShapeVerdict(ultra_log_concave=True), n

    def test_matches_binomial_form_on_doctored_q_n(self):
        # one entry moved up or down by a twentieth of itself: about two
        # thirds of these break ultra-log-concavity, the rest keep it
        rng = random.Random(5)
        failures = 0
        for n in range(2, 151):
            seq = list(q_scaled_coeffs(n))
            j = rng.randrange(len(seq))
            seq[j] += rng.choice((-1, 1)) * max(1, seq[j] // 20)
            expected = ulc_witness_comb(seq)
            verdict = is_ultra_log_concave(seq)
            assert verdict.ultra_log_concave is (expected is None)
            assert verdict.failure_witness == expected
            failures += expected is not None
        assert 0 < failures < 149

    def test_scale_invariance(self):
        seqs = [(1, 4, 6, 4, 1), (1, 1, 2), (2, 5, 3), (1, 0, 1)]
        for seq in seqs:
            scaled = tuple(731 * v for v in seq)
            assert (
                is_ultra_log_concave(seq).ultra_log_concave
                == is_ultra_log_concave(scaled).ultra_log_concave
            )
            assert (
                is_log_concave(seq).log_concave
                == is_log_concave(scaled).log_concave
            )


class TestValidation:
    def test_empty_rejected(self):
        for fn in (is_unimodal, is_log_concave, is_ultra_log_concave, shape_summary):
            with pytest.raises(ValueError):
                fn(())

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="entry 2 is negative"):
            is_unimodal((1, 2, -1))

    def test_negative_rejected_by_summary(self):
        with pytest.raises(ValueError, match="entry 2 is negative"):
            shape_summary([1, 2, -1])

    def test_summary_checks_each_entry_once(self):
        # every sign check is an `entry < 0` comparison; shape_summary makes
        # them once, not again inside each of the three predicates
        checks = []

        class Entry(int):
            def __lt__(self, other):
                if other == 0:
                    checks.append(int(self))
                return int.__lt__(self, other)

        values = [Entry(c) for c in RT_COEFFS]
        assert shape_summary(values).ultra_log_concave
        assert checks == list(RT_COEFFS)

    def test_consistency_error_is_assertion(self):
        assert issubclass(InternalConsistencyError, AssertionError)


class TestSummary:
    def test_all_three_fields_filled(self):
        verdict = shape_summary((1, 4, 6, 4, 1))
        assert verdict == ShapeVerdict(
            unimodal=True,
            log_concave=True,
            ultra_log_concave=True,
            peak_index=2,
            failure_witness=None,
        )

    def test_failure_prefers_strongest_witness(self):
        verdict = shape_summary((2, 0, 1))
        assert verdict.unimodal is False
        assert verdict.log_concave is False
        assert verdict.ultra_log_concave is False
        assert verdict.failure_witness == 1

    def test_newton_inequalities_for_real_rooted_products(self):
        rng = random.Random(20260815)
        for _ in range(30):
            p = ExactPoly([1])
            for _ in range(rng.randint(1, 7)):
                p = p * ExactPoly([rng.randint(1, 9), 1])
            verdict = shape_summary([int(c) for c in p.coeffs])
            assert verdict.ultra_log_concave is True
            assert verdict.log_concave is True
            assert verdict.unimodal is True


class TestShapeReport:
    def test_shifted_polynomials_pass(self):
        reports = shape_report(range(0, 61))
        assert len(reports) == 61
        for n, report in enumerate(reports):
            assert report.kind == "shape"
            assert report.target == {"n": n}
            assert report.verdict == "pass"
            assert report.details["ultra_log_concave"] is True
            assert report.details["length"] == n + 1

    def test_matches_direct_computation(self):
        for n in (0, 1, 5, 17):
            report = shape_report([n])[0]
            direct = shape_summary(q_scaled_coeffs(n))
            assert report.details["peak_index"] == direct.peak_index

    def test_doctored_override_aborts_run(self):
        def override(n):
            if n == 3:
                return (5, 1, 1, 5)
            return q_scaled_coeffs(n)

        reports = shape_report(range(0, 10), override=override)
        assert len(reports) == 4  # 0, 1, 2, then the failure at 3
        assert [r.verdict for r in reports] == ["pass", "pass", "pass", "fail"]
        failing = reports[-1]
        assert failing.witnesses[0]["failure_witness"] == 1
        assert failing.witnesses[0]["window"] == ["5", "1", "1"]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            shape_report([-1])


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=8))
def test_summary_never_breaks_implication_chain(values):
    # raises InternalConsistencyError if the chain is violated
    verdict = shape_summary(values)
    if verdict.ultra_log_concave:
        assert verdict.log_concave
    if verdict.log_concave:
        assert verdict.unimodal
    if not verdict.unimodal:
        w = verdict.failure_witness
        # the dip really sits below a neighbor on each side
        assert any(values[i] > values[w] for i in range(w))
        assert any(values[i] > values[w] for i in range(w + 1, len(values)))


def _binomial_row_perturbed(draw_args):
    n, scale, deltas = draw_args
    row = [scale * math.comb(n, k) for k in range(n + 1)]
    return [max(0, v + d) for v, d in zip(row, deltas)]


# binomial rows are exactly on the ULC boundary, so their small
# perturbations land on both sides of it; scaled past 2^200, the top-bit
# filter cannot decide them and the exact products must
binomial_rows = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.one_of(st.integers(1, 1000), st.integers(1, 1000).map(lambda s: s << 200)),
        st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1),
    )
).map(_binomial_row_perturbed)

shape_sequences = st.one_of(
    st.lists(st.integers(0, 50), min_size=1, max_size=10),
    st.lists(st.integers(0, 10**40), min_size=1, max_size=10),
    st.lists(st.integers(2**64 - 4, 2**66), min_size=1, max_size=10),
    binomial_rows,
)


def _shape_examples(test):
    for values in ([0], [0, 0, 0], [1, 0, 1], [0, 1, 1, 0], [1, 2, 1], [1, 1, 1],
                   [2**200, 2**201, 2**200 - 1], [2**200, 2**201 - 1, 2**200],
                   [2**64, 0, 2**64]):
        test = example(values)(test)
    return test


@settings(derandomize=True, max_examples=300)
@given(shape_sequences)
@_shape_examples
def test_ulc_matches_binomial_form(values):
    expected = ulc_witness_comb(values)
    verdict = is_ultra_log_concave(values)
    assert verdict.ultra_log_concave is (expected is None)
    assert verdict.failure_witness == expected


@settings(derandomize=True, max_examples=300)
@given(shape_sequences)
@_shape_examples
def test_summary_matches_separate_passes(values):
    assert shape_summary(values) == shape_summary_separate(values)


class TestOnePass:
    """shape_summary's single concavity pass against the separate exact
    passes of shape_summary_separate."""

    def test_every_q_n_up_to_300(self):
        for n in range(0, 301):
            seq = q_scaled_coeffs(n)
            assert shape_summary(seq) == shape_summary_separate(seq), n

    def test_doctored_q_n(self):
        # the pattern of test_matches_binomial_form_on_doctored_q_n: one
        # entry moved by a twentieth of itself
        rng = random.Random(5)
        verdicts = []
        for n in range(2, 301):
            seq = list(q_scaled_coeffs(n))
            j = rng.randrange(len(seq))
            seq[j] += rng.choice((-1, 1)) * max(1, seq[j] // 20)
            verdict = shape_summary(seq)
            assert verdict == shape_summary_separate(seq), n
            verdicts.append((verdict.ultra_log_concave, verdict.log_concave))
        # ULC holds for some, fails with log-concavity kept for others,
        # and fails with log-concavity lost for others still
        assert {(True, True), (False, True), (False, False)} <= set(verdicts)

    def test_log_concavity_is_checked_only_when_ulc_fails(self, monkeypatch):
        calls = []
        real = shape.is_log_concave

        def spy(values):
            calls.append(len(values))
            return real(values)

        monkeypatch.setattr(shape, "is_log_concave", spy)
        for n in range(0, 151):
            assert shape_summary(q_scaled_coeffs(n)).log_concave is True
        assert calls == []
        seq = list(q_scaled_coeffs(40))
        seq[20] -= seq[20] // 20
        verdict = shape_summary(seq)
        assert verdict.ultra_log_concave is False
        assert calls == [41]

    def test_fraction_entries(self):
        # the top-bit filter reads integers only; fractions, alone or next
        # to big integers, take the exact products
        seq = [Fraction(v, 7) for v in q_scaled_coeffs(30)]
        assert shape_summary(seq) == shape_summary_separate(seq)
        seq[12] *= Fraction(19, 20)
        assert shape_summary(seq) == shape_summary_separate(seq)
        assert shape_summary(seq).ultra_log_concave is False
        mixed = list(q_scaled_coeffs(30))
        mixed[11] = Fraction(mixed[11])
        assert mixed[10] > 2**64
        assert shape_summary(mixed) == shape_summary_separate(mixed)
        assert shape_summary(mixed).ultra_log_concave is True
