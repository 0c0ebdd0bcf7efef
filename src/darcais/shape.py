"""Shape predicates for nonnegative coefficient sequences.

Three nested properties, each checked exactly:

  unimodal          rises (weakly) to a peak, then falls (weakly)
  log-concave       a_j^2 >= a_{j-1} a_{j+1} for every interior j
  ultra-log-concave a_j / C(n, j) is log-concave, n = len - 1

For sequences with no internal zeros, ultra-log-concave implies
log-concave implies unimodal.  shape_summary checks both concavity
properties in one pass (is_ultra_log_concave) and asserts the chain as
a built-in consistency alarm.

All predicates are invariant under positive scaling, so the batch runner
works on integer-scaled polynomial coefficients and never touches a
Fraction in its hot loop.

The concavity pass tests most indices on the top 64 bits of each entry.
Write a = a_{j-1}, b = a_j, c = a_{j+1}, alpha = j (n-j) and
beta = (j+1) (n-j+1), so ULC at j reads b^2 alpha >= a c beta.  Let
k = bitlen(b) - 64 > 0, t = b >> k, l = a >> k and h = c >> k.  Then
t 2^k <= b, a < (l+1) 2^k and c < (h+1) 2^k, so

    t^2 alpha >= (l+1)(h+1) beta
    implies  b^2 alpha >= t^2 alpha 4^k >= (l+1)(h+1) beta 4^k > a c beta,

and ULC holds at j.  As beta - alpha = n + 1 > 0 and alpha >= 1 for
0 < j < n, the same premise gives t^2 > (l+1)(h+1), hence b^2 > a c:
log-concavity holds at j too.  Every other index (b below 2^64, a
sequence with an entry that is not an int, an inconclusive filter, any
failure) is decided by the exact products, so a witness never comes from
the filter.  On the rows of Q_1..Q_215, 1124 of 23005 indices reach the
exact products.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import polynomials
from .plain import Frozen
from .reports import CertReport

Number = Fraction | int

# entries are compared on this many leading bits before the exact products
_FILTER_BITS = 64


class InternalConsistencyError(AssertionError):
    """The ULC => log-concave => unimodal chain failed; something is broken."""


class ShapeVerdict(Frozen):
    """Results of the shape predicates on one sequence.

    Fields not requested by the particular check stay None.  On failure,
    failure_witness is the index where the property first breaks: the
    dip index for unimodality, the middle index of the first violated
    three-term inequality for the concavity checks.
    """

    __slots__ = ("unimodal", "log_concave", "ultra_log_concave", "peak_index",
                 "failure_witness")

    def __init__(
        self,
        unimodal: bool | None = None,
        log_concave: bool | None = None,
        ultra_log_concave: bool | None = None,
        peak_index: int | None = None,
        failure_witness: int | None = None,
    ):
        object.__setattr__(self, "unimodal", unimodal)
        object.__setattr__(self, "log_concave", log_concave)
        object.__setattr__(self, "ultra_log_concave", ultra_log_concave)
        object.__setattr__(self, "peak_index", peak_index)
        object.__setattr__(self, "failure_witness", failure_witness)


class _Checked(list):
    """A list of entries that _validate has already accepted."""


def _validate(seq: Sequence[Number]) -> list[Number]:
    """seq as a nonempty list of nonnegative entries, or ValueError.

    The list is a _Checked, which passes through again unscanned, so
    shape_summary checks its input once and not again in each predicate.
    """
    if type(seq) is _Checked:
        return seq
    values = _Checked(seq)
    if not values:
        raise ValueError("shape predicates need a nonempty sequence")
    for k, v in enumerate(values):
        if v < 0:
            raise ValueError(f"entry {k} is negative; sequences must be >= 0")
    return values


def is_unimodal(seq: Sequence[Number]) -> ShapeVerdict:
    """Weakly increasing then weakly decreasing.

    peak_index is the smallest index attaining the maximum (the start of
    the peak plateau).  The failure witness is the dip: the first index
    sitting strictly below both a previous and a following entry.
    """
    values = _validate(seq)
    rise_end = 0
    while rise_end + 1 < len(values) and values[rise_end] <= values[rise_end + 1]:
        rise_end += 1
    for j in range(rise_end, len(values) - 1):
        if values[j] < values[j + 1]:
            # walk back to the dip: the low point before this new rise
            dip = j
            while dip > 0 and values[dip - 1] == values[dip]:
                dip -= 1
            return ShapeVerdict(unimodal=False, failure_witness=dip)
    peak = rise_end
    while peak > 0 and values[peak - 1] == values[peak]:
        peak -= 1
    return ShapeVerdict(unimodal=True, peak_index=peak)


def is_log_concave(seq: Sequence[Number]) -> ShapeVerdict:
    """a_j^2 >= a_{j-1} a_{j+1} for all interior j (any zeros allowed)."""
    values = _validate(seq)
    for j in range(1, len(values) - 1):
        if values[j] * values[j] < values[j - 1] * values[j + 1]:
            return ShapeVerdict(log_concave=False, failure_witness=j)
    return ShapeVerdict(log_concave=True)


def is_ultra_log_concave(seq: Sequence[Number]) -> ShapeVerdict:
    """Log-concavity of a_j / C(n, j) with n = len(seq) - 1.

    The defining inequality
        a_j^2 C(n, j-1) C(n, j+1) >= a_{j-1} a_{j+1} C(n, j)^2,
    divided by the positive C(n, j)^2 / ((j+1) (n-j+1)), becomes
        a_j^2 j (n-j) >= a_{j-1} a_{j+1} (j+1) (n-j+1),
    checked by integer cross-multiplication: no division and no binomial
    ever happens, so exactness is free.

    The pass also checks log-concavity at every index: where ULC holds
    and a_j^2 >= a_{j-1} a_{j+1} does not, it raises
    InternalConsistencyError.  So a True verdict proves the sequence
    log-concave as well.  Integer entries of 65 bits or more go through
    the top-64-bit filter proved in the module docstring first.
    """
    values = _validate(seq)
    n = len(values) - 1
    # the filter shifts integers; a sequence with any other entry goes exact
    ints = all(type(v) is int for v in values)
    for j in range(1, n):
        v = values[j]
        alpha = j * (n - j)
        beta = (j + 1) * (n - j + 1)
        k = v.bit_length() - _FILTER_BITS if ints else 0
        if k > 0:
            top = v >> k
            square = top * top
            cross = ((values[j - 1] >> k) + 1) * ((values[j + 1] >> k) + 1)
        if k <= 0 or square * alpha < cross * beta:
            square = v * v
            cross = values[j - 1] * values[j + 1]
            if square * alpha < cross * beta:
                return ShapeVerdict(ultra_log_concave=False, failure_witness=j)
        # ULC holds at j, for the truncated or the exact entries
        if square < cross:
            raise InternalConsistencyError(
                "ultra-log-concave sequence judged not log-concave"
            )
    return ShapeVerdict(ultra_log_concave=True)


def shape_summary(seq: Sequence[Number]) -> ShapeVerdict:
    """All three predicates at once, with the implication chain asserted.

    When the sequence is ultra-log-concave, the ULC pass has compared
    log-concavity at every index, so is_log_concave runs only when ULC
    fails.  For strictly positive sequences, log-concave forces unimodal;
    a violation of that means a predicate implementation is wrong, so it
    raises rather than returning.
    """
    values = _validate(seq)
    uni = is_unimodal(values)
    ulc = is_ultra_log_concave(values)
    lc = ShapeVerdict(log_concave=True) if ulc.ultra_log_concave else is_log_concave(values)
    if lc.log_concave and not uni.unimodal and min(values) > 0:
        raise InternalConsistencyError(
            "log-concave positive sequence judged not unimodal"
        )
    witness = None
    for verdict in (ulc, lc, uni):
        if verdict.failure_witness is not None:
            witness = verdict.failure_witness
    return ShapeVerdict(
        unimodal=uni.unimodal,
        log_concave=lc.log_concave,
        ultra_log_concave=ulc.ultra_log_concave,
        peak_index=uni.peak_index,
        failure_witness=witness,
    )


def shape_report(
    n_values: Iterable[int],
    override: Callable[[int], Sequence[Number]] | None = None,
) -> list[CertReport]:
    """Shape verdicts for the shifted polynomials Q_n over a range of n.

    Each report covers one n, computed on the integer-scaled coefficients
    of n! * Q_n (the predicates cannot tell the difference and the
    arithmetic stays integral).  A failing n still gets its report, with
    the witness index, and stops the run there; everything before it is
    returned as well.

    override, when given, replaces the coefficient source per n; it
    exists so tests can inject a doctored sequence and watch the failure
    path fire.
    """
    reports: list[CertReport] = []
    for n in n_values:
        if n < 0:
            raise ValueError("shape reports need nonnegative n")
        start = time.perf_counter()
        seq = (
            list(override(n)) if override is not None else list(polynomials.q_scaled_coeffs(n))
        )
        verdict = shape_summary(seq)
        elapsed = time.perf_counter() - start
        passed = bool(verdict.ultra_log_concave)
        details = {
            "unimodal": verdict.unimodal,
            "log_concave": verdict.log_concave,
            "ultra_log_concave": verdict.ultra_log_concave,
            "peak_index": verdict.peak_index,
            "length": len(seq),
        }
        witnesses = []
        if not passed:
            witnesses.append(
                {
                    "failure_witness": verdict.failure_witness,
                    "window": [
                        str(seq[k])
                        for k in range(
                            max(0, (verdict.failure_witness or 0) - 1),
                            min(len(seq), (verdict.failure_witness or 0) + 2),
                        )
                    ],
                }
            )
        reports.append(
            CertReport(
                kind="shape",
                target={"n": n},
                verdict="pass" if passed else "fail",
                details=details,
                witnesses=witnesses,
                timings={"total": elapsed},
            )
        )
        if not passed:
            break
    return reports
