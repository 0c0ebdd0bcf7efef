"""D'Arcais polynomials and the hook-length identities attached to them.

The n-th D'Arcais polynomial P_n(x) is the coefficient of q^n in the
Euler-product power prod_{m>=1} (1 - q^m)^(-x).  The shifted polynomial
Q_n(z) = P_n(z + 1) is the Nekrasov-Okounkov hook-length average over
partitions of n.  Both are computed by Euler's pentagonal recurrence.

Euler's pentagonal number theorem expands the product itself,

    E(q) = prod_{m>=1} (1 - q^m) = sum_{j>=0} e_j q^j,

with e_j = (-1)^k at the generalized pentagonal numbers j = k(3k - 1)/2
and j = k(3k + 1)/2 (k >= 0), and e_j = 0 for every other j.  Put
F(q) = E(q)^(-x) = sum_n P_n(x) q^n.  The logarithmic derivative gives
q F'/F = -x q E'/E, that is E * qF' = -x F * qE'.  The coefficient of
q^n on each side is

    sum_j e_j (n - j) P_{n-j}(x) = -x sum_j j e_j P_{n-j}(x),

and the j = 0 term (e_0 = 1) is n P_n(x), so

    n P_n(x) = -sum_{j>=1} e_j ((n - j) + j x) P_{n-j}(x),    P_0 = 1.

Putting x = z + 1 turns (n - j) + j x into n + j z, so

    n Q_n(z) = -sum_{j>=1} e_j (n + j z) Q_{n-j}(z),          Q_0 = 1.

Only about 2 sqrt(2n/3) of the e_j with j <= n are nonzero, so row n
costs O(sqrt(n)) passes over a row of n + 1 coefficients.

Integrality: write R_n = n! P_n and S_n = n! Q_n.  Multiplying the
recurrences by (n - 1)! gives

    R_n = -sum_j e_j ((n - j) + j x) * w_{n,j} * R_{n-j},
    S_n = -sum_j e_j (n + j z) * w_{n,j} * S_{n-j},

where w_{n,j} = (n - 1)!/(n - j)! = (n - 1)(n - 2)...(n - j + 1) is an
integer.  Since e_j is 0 or +-1, R_n and S_n have integer coefficients
by induction on n.  Writing P_n(x) = (x / n!) * (a_0 + a_1 x + ... +
a_{n-1} x^{n-1}) gives a monic integer polynomial with all a_k > 0; that
integer form is what gets cached and serialized.

This module computes P_n / Q_n by several genuinely different routes:

  * the pentagonal recurrence (fast, the baseline);
  * partition sums over full hooks, trivial-leg hooks, trivial-arm
    hooks, and part multiplicities (binomial products).

verify_identity cross-checks any selection of routes against the
recurrence coefficient by coefficient, exactly.  The oracles the
recurrence itself is checked against, the power series and the
divisor-sum recursion, live with the tests.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exactnum import ExactPoly
from .partitions import HookSelector, grow_rows, row_hooks
from .plain import Frozen
from .reports import CertReport

# Feasibility defaults for the partition-sum routes, from one budget: each
# bound is the largest n at which the route takes at most about 1 s (best
# of 3, a two-vCPU host with Python 3.11.7; the next n took 1.0-1.5 s).
# The partition counts explode, so a run over 1..bound takes a few seconds.
DEFAULT_ROUTE_BOUNDS: dict[str, int] = {
    "full_hooks": 33,
    "trivial_legs": 41,
    "trivial_arms": 43,
    "binomials": 46,
}

# _SCALED[n] = coefficients of n! * P_n(x), constant term first (all ints);
# a row seeded as record text and not read since is still that text
# (seed_records), and _row converts it on first read.
_SCALED: list[tuple[int, ...] | bytes | memoryview] = [(1,)]
# _Q_SCALED[n] = coefficients of n! * Q_n(z), constant term first (all ints).
_Q_SCALED: list[tuple[int, ...]] = [(1,)]


def _pentagonal_terms(n: int) -> list[tuple[int, int]]:
    """The pairs (j, e_j) with 1 <= j <= n and e_j != 0, j increasing,
    where prod_{m>=1} (1 - q^m) = sum_j e_j q^j: e_j = (-1)^k at
    j = k(3k - 1)/2 and at j = k(3k + 1)/2, k >= 1."""
    terms = []
    k = 1
    while (j := k * (3 * k - 1) // 2) <= n:
        sign = -1 if k % 2 else 1
        terms.append((j, sign))
        if j + k <= n:
            terms.append((j + k, sign))
        k += 1
    return terms


def parse_record(text: bytes | memoryview) -> tuple[int, ...]:
    """The record a_0..a_{n-1} from its text: decimals between spaces."""
    return tuple(map(int, bytes(text).split()))


def _ints(row: tuple[int, ...] | bytes | memoryview) -> tuple[int, ...]:
    """A table row as ints: record text becomes (0, a_0, ..., a_{n-1}),
    the coefficients of n! * P_n."""
    return row if isinstance(row, tuple) else (0, *parse_record(row))


def _row(table: list, i: int) -> tuple[int, ...]:
    """table[i] as ints; a row still held as text is converted on this
    first read and stored back."""
    row = table[i]
    if not isinstance(row, tuple):
        row = table[i] = _ints(row)
    return row


def _extend_table(table: list, n: int, shifted: bool) -> None:
    """Extend table up to index n by the pentagonal recurrence: n! * P_n
    rows when shifted is false, n! * Q_n rows when it is true.

    With T_m the table's row m, the module docstring's recurrence reads
        T_m = -sum_j e_j (c_j + j x) * w_{m,j} * T_{m-j},
    c_j = m - j for P and m for Q.  It is evaluated in Horner form over the
    pentagonal j, largest first: between consecutive indices j < j', the
    accumulator is multiplied by w_{m,j'}/w_{m,j} = (m - j)...(m - j' + 1),
    a product of j' - j small factors, before the j-th term is added.  No
    factorial-sized weight ever appears.
    """
    while len(table) <= n:
        m = len(table)
        terms = _pentagonal_terms(m)
        acc: list[int] = []
        above = terms[-1][0]
        for j, sign in reversed(terms):
            step = math.prod(range(m - above + 1, m - j + 1))
            above = j
            row = _row(table, m - j)
            c = -sign * (m if shifted else m - j)
            d = -sign * j
            # one fused pass: step * acc + (c + d x) * row.  That product is
            # one entry longer than row; acc came from a shorter row, so it
            # is padded to the same length first
            acc += [0] * (len(row) + 1 - len(acc))
            acc = [step * a + c * r + d * q for a, r, q in zip(acc, (*row, 0), (0, *row))]
        table.append(tuple(acc))


def _ensure_scaled(n: int) -> None:
    """Extend the memoized table of n! * P_n up to index n (all-integer)."""
    _extend_table(_SCALED, n, shifted=False)


def scaled_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of n! * P_n(x), constant term first."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    _ensure_scaled(n)
    return _row(_SCALED, n)


def loaded_text(n: int) -> bytes | memoryview | None:
    """The text record n was seeded as, if no computation has read the
    row since (it is still text in the memo); else None."""
    if n < len(_SCALED) and not isinstance(_SCALED[n], tuple):
        return _SCALED[n]
    return None


class DArcaisRecord(Frozen):
    """Integer-normalized form of P_n for n >= 1.

    numer_coeffs are a_0..a_{n-1} with P_n(x) = (x/n!) * sum a_k x^k.
    All entries are positive and the leading one is 1.
    """

    __slots__ = ("n", "numer_coeffs")

    def __init__(self, n: int, numer_coeffs: tuple[int, ...]):
        if n < 1:
            raise ValueError("records are defined for n >= 1")
        if len(numer_coeffs) != n:
            raise ValueError(
                f"record for n={n} needs {n} coefficients, "
                f"got {len(numer_coeffs)}"
            )
        if numer_coeffs[-1] != 1:
            raise ValueError("leading normalized coefficient must be 1")
        if any(c <= 0 for c in numer_coeffs):
            raise ValueError("normalized coefficients must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "numer_coeffs", numer_coeffs)


def darcais_record(n: int) -> DArcaisRecord:
    """Integer-normalized P_n data for n >= 1."""
    if n < 1:
        raise ValueError("records are defined for n >= 1")
    return DArcaisRecord(n, scaled_coeffs(n)[1:])


def darcais_poly(n: int) -> ExactPoly:
    """P_n(x) via the pentagonal recurrence, exact rational coefficients."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    fact = math.factorial(n)
    return ExactPoly(Fraction(c, fact) for c in scaled_coeffs(n))


def q_scaled_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of n! * Q_n(x) where Q_n(x) = P_n(x + 1).

    They come from the Q recurrence directly, with no Taylor shift and
    without the table of n! * P_n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    _extend_table(_Q_SCALED, n, shifted=True)
    return _Q_SCALED[n]


def q_poly(n: int) -> ExactPoly:
    """Q_n(x) = P_n(x + 1), the hook-length average polynomial."""
    fact = math.factorial(n)
    return ExactPoly(Fraction(c, fact) for c in q_scaled_coeffs(n))


def seed_records(
    records: Mapping[int, tuple[int, ...] | bytes | memoryview]
) -> None:
    """Prime the memo table from externally stored records.

    Records must start at n = 1 with no gaps.  A record is its n ints
    a_0..a_{n-1}, or their text as a canonical cache file holds it: bytes
    of n positive decimals without leading zeros, single spaces, the last
    "1".  The caller vouches for that form (cache.read_cache proves it);
    such a row stays text until a computation first reads it, and
    loaded_text hands it back unread.  Any overlap with values already
    held is compared and a mismatch raises, so a stale or corrupted store
    can never silently poison later computations.
    """
    for n in sorted(records):
        record = records[n]
        row = record if isinstance(record, (bytes, memoryview)) else (0, *record)
        if n < len(_SCALED):
            if _row(_SCALED, n) != _ints(row):
                raise ValueError(
                    f"stored record for n={n} disagrees with computed values"
                )
            continue
        if n != len(_SCALED):
            raise ValueError(f"records skip n={len(_SCALED)}")
        if isinstance(row, tuple):
            DArcaisRecord(n, row[1:])  # validates shape
        _SCALED.append(row)


# -- partition-sum routes for Q_n --------------------------------------------


def _packed_slot(denom: int, n: int) -> int:
    """Bit width of one coefficient slot for a packed partition sum over n.

    Each route below evaluates its integer polynomial sum_lambda
    (denom / w_lambda) * prod (z + c) at z = 2^slot, over integers c >= 1
    with w_lambda their product.  All coefficients are >= 0, so each is at
    most the value at z = 1: denom * sum_lambda prod (1 + c) / c <=
    denom * 2^n * p(n) < denom * 4^n, since (1 + c) / c <= 2, there are at
    most n factors (so at most n + 1 coefficients), and p(n) <= 2^(n-1).
    A slot of denom.bit_length() + 2n + 1 bits therefore holds every
    coefficient with room to spare, and no carry crosses slots.
    """
    return denom.bit_length() + 2 * n + 1


def _read_slots(total: int, slot: int, count: int) -> list[int]:
    """The count coefficients packed in total, slot bits each, lowest first.

    Raises if any bit remains above the top slot: a coefficient then
    overflowed its slot and the lower ones cannot be trusted either.
    """
    mask = (1 << slot) - 1
    coeffs = []
    for _ in range(count):
        coeffs.append(total & mask)
        total >>= slot
    if total:
        raise ArithmeticError(f"packed sum overflows its top {slot}-bit slot")
    return coeffs


def _exact_quotient(denom: int, divisor: int) -> int:
    """denom / divisor, raising unless the division is exact."""
    scale, rest = divmod(denom, divisor)
    if rest:
        raise ArithmeticError(f"{divisor} does not divide the denominator {denom}")
    return scale


def _hook_sum(n: int, selector: HookSelector, square: bool) -> ExactPoly:
    """sum over partitions of n of prod_{h in hooks} (1 + z / h^e), e in {1,2}.

    Accumulated over a common integer denominator: n!^e is divisible by
    every per-partition hook product (once for the trivial selectors,
    squared for the full multiset), so the whole sum stays in integer
    arithmetic until the final division.  Each partition's prod (z + h^e)
    is one integer, evaluated at z = 2^slot (see _packed_slot); the n + 1
    coefficients of the scaled total are read off once at the end.

    The partitions are grown one row at a time (grow_rows), and each step
    multiplies the carried product and hook product by the hooks of the
    new row's kept cells only (row_hooks).  Those are kept by testing the
    arm and leg computed for each cell, never by the closed forms of the
    trivial selectors, so they stay independent of the binomial route.
    """
    if n < 1:
        raise ValueError("partition sums are defined for n >= 1")
    exp = 2 if square else 1
    denom = math.factorial(n) ** exp
    slot = _packed_slot(denom, n)
    z = 1 << slot

    def grow(carried: tuple[int, int], p: int, below: int, legs: list[int]):
        value, hook_prod = carried
        for h in row_hooks(p, legs, selector):
            he = h**exp
            value *= z + he
            hook_prod *= he
        return value, hook_prod

    def finish(carried: tuple[int, int]) -> int:
        value, hook_prod = carried
        return value * _exact_quotient(denom, hook_prod)

    total = grow_rows(n, (1, 1), grow, finish)
    return ExactPoly(Fraction(c, denom) for c in _read_slots(total, slot, n + 1))


def hook_sum_full(n: int) -> ExactPoly:
    """Q_n(z) as the Nekrasov-Okounkov sum over all hooks:
    sum_lambda prod_{h in H(lambda)} (1 + z / h^2)."""
    return _hook_sum(n, HookSelector.FULL, square=True)


def hook_sum_trivial_leg(n: int) -> ExactPoly:
    """Q_n(z) as the refined sum over trivial-leg hooks:
    sum_lambda prod_{h in H1(lambda)} (1 + z / h)."""
    return _hook_sum(n, HookSelector.TRIVIAL_LEG, square=False)


def hook_sum_trivial_arm(n: int) -> ExactPoly:
    """Q_n(z) as the conjugate refined sum over trivial-arm hooks."""
    return _hook_sum(n, HookSelector.TRIVIAL_ARM, square=False)


def binomial_sum(n: int) -> ExactPoly:
    """Q_n(z) as a sum of binomial products over part multiplicities:
    sum_lambda prod_j C(k_j + z, k_j), where k_j counts parts equal to j.

    Equivalent to the trivial-leg form through the multiplicity encoding
    of partitions, but dramatically cheaper per partition.  The partitions
    are grown one row at a time (grow_rows), and each step carries the
    multiplicity of the top part with the product.
    """
    if n < 1:
        raise ValueError("partition sums are defined for n >= 1")
    denom = math.factorial(n)
    slot = _packed_slot(denom, n)
    z = 1 << slot

    def grow(carried: tuple[int, int, int], p: int, below: int, legs: list[int]):
        # a part equal to the one below raises its multiplicity m to m + 1,
        # which takes the rising factorial (z+1)...(z+m) one factor further
        value, fact_prod, mult = carried
        mult = mult + 1 if p == below else 1
        return value * (z + mult), fact_prod * mult, mult

    def finish(carried: tuple[int, int, int]) -> int:
        value, fact_prod, _ = carried
        return value * _exact_quotient(denom, fact_prod)

    total = grow_rows(n, (1, 1, 0), grow, finish)
    return ExactPoly(Fraction(c, denom) for c in _read_slots(total, slot, n + 1))


# -- cross-route verification -------------------------------------------------

_ROUTE_FUNCS: dict[str, Callable[[int], ExactPoly]] = {
    "full_hooks": hook_sum_full,
    "trivial_legs": hook_sum_trivial_leg,
    "trivial_arms": hook_sum_trivial_arm,
    "binomials": binomial_sum,
}

ROUTE_NAMES: tuple[str, ...] = tuple(_ROUTE_FUNCS)


def verify_identity(
    n: int,
    routes: Iterable[str],
    bounds: Mapping[str, int] | None = None,
    tamper: Mapping[str, tuple[int, Fraction]] | None = None,
) -> CertReport:
    """Check the requested routes against the recurrence, coefficient-exact.

    Every requested route recomputes Q_n independently and is compared to
    the recurrence baseline (named "recursion" in the report) term by term.  A route whose feasibility bound
    is below n is reported as skipped (with the bound), never silently
    dropped.  The report's verdict is "pass" only if no computed route
    disagrees.

    tamper injects an error into a named route's output (coefficient
    index, delta) before comparison; it exists so the failure path can be
    exercised by tests and stays out of ordinary use.
    """
    if n < 1:
        raise ValueError("identity verification is defined for n >= 1")
    requested = list(routes)
    for name in requested:
        if name not in _ROUTE_FUNCS:
            raise ValueError(f"unknown route {name!r}; choose from {ROUTE_NAMES}")
    limits = dict(DEFAULT_ROUTE_BOUNDS)
    if bounds:
        limits.update(bounds)

    timings: dict[str, float] = {}
    start = time.perf_counter()
    baseline = q_poly(n)
    timings["recursion"] = time.perf_counter() - start

    route_status: dict[str, dict[str, str]] = {}
    witnesses: list[dict[str, object]] = []
    failed = False
    for name in requested:
        bound = limits.get(name)
        if bound is not None and n > bound:
            route_status[name] = {
                "status": "skipped",
                "reason": f"n={n} exceeds feasibility bound {bound}",
            }
            continue
        start = time.perf_counter()
        candidate = _ROUTE_FUNCS[name](n)
        timings[name] = time.perf_counter() - start
        if tamper and name in tamper:
            index, delta = tamper[name]
            coeffs = list(candidate.coeffs)
            while len(coeffs) <= index:
                coeffs.append(Fraction(0))
            coeffs[index] += Fraction(delta)
            candidate = ExactPoly(coeffs)
        if candidate == baseline:
            route_status[name] = {"status": "pass"}
        else:
            failed = True
            route_status[name] = {"status": "fail"}
            limit = max(len(candidate.coeffs), len(baseline.coeffs))
            for k in range(limit):
                if candidate.coefficient(k) != baseline.coefficient(k):
                    witnesses.append(
                        {
                            "route": name,
                            "coefficient_index": k,
                            "expected": str(baseline.coefficient(k)),
                            "actual": str(candidate.coefficient(k)),
                        }
                    )
                    break

    return CertReport(
        kind="identity",
        target={"n": n},
        verdict="fail" if failed else "pass",
        details={"baseline": "recursion", "routes": route_status},
        witnesses=witnesses,
        timings=timings,
    )
