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
recurrence coefficient by coefficient, exactly; verify_up_to does so for
every n up to a bound, walking each route once.  The oracles the
recurrence itself is checked against, the power series and the
divisor-sum recursion, live with the tests.
"""

from __future__ import annotations

import math
import time
from itertools import zip_longest

from .plain import Frozen
from .reports import CertReport

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from collections.abc import Callable, Iterable, Iterator, Mapping
    from fractions import Fraction

# Feasibility defaults for the partition-sum routes, from one budget: each
# bound is the largest n at which the route takes at most about 1 s (best
# of 3, a two-vCPU host with Python 3.11.7; the next n took 1.0-1.5 s).
# The partition counts explode, so a run over 1..bound takes a few seconds.
# Only the CLI reads them: verify refuses a --max-n past a route's bound
# unless --force is given; verify_identity and verify_up_to take no bounds.
DEFAULT_ROUTE_BOUNDS: dict[str, int] = {
    "full_hooks": 33,
    "trivial_legs": 41,
    "trivial_arms": 43,
    "binomials": 46,
}

# _SCALED[n] = coefficients of n! * P_n(x), constant term first (all ints);
# a row seeded as record text and not read since is still that text
# (seed_records), and _row converts it on first read into a _ReadRow.
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


class _ReadRow(tuple):
    """A row seeded as record text and since read: its ints, as _ints
    gives them, with the text kept as .text for loaded_text."""

    def __new__(cls, text: bytes | memoryview):
        row = super().__new__(cls, _ints(text))
        row.text = text
        return row


def _row(table: list, i: int) -> tuple[int, ...]:
    """table[i] as ints; a row still held as text is converted on this
    first read and stored back, keeping its text."""
    row = table[i]
    if not isinstance(row, tuple):
        row = table[i] = _ReadRow(row)
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
    """The text record n was seeded as, whether or not a computation has
    read the row since; None for a row computed here or seeded as ints."""
    if n >= len(_SCALED):
        return None
    row = _SCALED[n]
    return getattr(row, "text", None) if isinstance(row, tuple) else row


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


def q_scaled_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of n! * Q_n(x) where Q_n(x) = P_n(x + 1).

    They come from the Q recurrence directly, with no Taylor shift and
    without the table of n! * P_n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    _extend_table(_Q_SCALED, n, shifted=True)
    return _Q_SCALED[n]


def seed_records(
    records: Mapping[int, tuple[int, ...] | bytes | memoryview]
) -> None:
    """Prime the memo table from externally stored records.

    Records must start at n = 1 with no gaps.  A record is its n ints
    a_0..a_{n-1}, or their text as a canonical cache file holds it: bytes
    of n positive decimals without leading zeros, single spaces, the last
    "1".  The caller vouches for that form (cache.read_cache proves it);
    such a row stays text until a computation first reads it, and
    loaded_text hands that text back, read or not.  Any overlap with
    values already held is compared and a mismatch raises, so a stale or
    corrupted store can never silently poison later computations.
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
    """Bit width of one coefficient slot for the packed partition sums of
    every size up to n.

    For each size m <= n, each route below evaluates its integer polynomial
    sum_lambda (denom_m / w_lambda) * prod (z + c), over the partitions
    lambda of m and integers c >= 1 with w_lambda their product, at
    z = 2^slot; denom_m = m!^e with e = 1 or 2, and denom = n!^e is the
    largest of them.  All coefficients are >= 0, so each is at most the
    value at z = 1: denom_m * sum_lambda prod (1 + c) / c <= denom_m * 2^m
    * p(m) < denom_m * 4^m <= denom * 4^n, since (1 + c) / c <= 2, there
    are at most m factors (so at most m + 1 coefficients), and p(m) <=
    2^(m-1).  One slot of denom.bit_length() + 2n + 1 bits therefore holds
    every coefficient of every size, with room to spare, and no carry
    crosses slots.
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


def _packed_sums(
    lo: int, hi: int, make_grow: Callable, exp: int, seed: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """For each n in [lo, hi], from lo: the integer coefficients, constant
    term first, of n!^exp * sum over partitions of n of value / w, where
    one walk (partitions.grow_rows) carries each partition's state
    (value, w, ...) from seed through the steps make_grow(slot) returns.

    value is the partition's product of factors z + c, evaluated at
    z = 2^slot with one slot for every size (see _packed_slot); w, the
    product of its c, divides n!^exp, so each sum stays in integers.  The
    n + 1 coefficients of each size's total are read off once at the end.
    """
    if lo < 1:
        raise ValueError("partition sums are defined for n >= 1")
    denoms = [1]
    for m in range(1, hi + 1):
        denoms.append(denoms[-1] * m**exp)
    slot = _packed_slot(denoms[hi], hi)

    def finish(carried: tuple[int, ...], size: int) -> int:
        return carried[0] * _exact_quotient(denoms[size], carried[1])

    # partitions (and with it enum) is loaded only where a route walks, so
    # that poly and shape jobs, which walk none, do not load it
    from .partitions import grow_rows

    totals = grow_rows(lo, hi, seed, make_grow(slot), finish)
    return [tuple(_read_slots(t, slot, n + 1)) for n, t in enumerate(totals, start=lo)]


# Each route's step factory takes the slot and returns the walk's step,
# which takes the carried (value, w, ...) through the new row's factors
# z + c.  With z = 2^slot, value * (z + c) is (value << slot) + value * c:
# a shift and a product by a small c, where z + c would be a multiplier as
# long as z.  A hook route keeps a cell by testing the arm and leg computed
# for it, as in Partition.hooks, never by the closed forms of the trivial
# hooks, so those stay independent of the binomial route.  Each route has
# a step of its own, so a cell costs only the test its route makes.


def _full_hooks_step(slot: int) -> Callable:
    """The Nekrasov-Okounkov sum over all hooks, e = 2:
    Q_n(z) = sum_lambda prod_{h in H(lambda)} (1 + z / h^2).  The carried
    (value, hook_prod) takes z + h^2 and h^2 for every cell of the row."""

    def full(carried: tuple[int, int], p: int, below: int, legs: list[int]):
        value, hook_prod = carried
        for arm, leg in zip(range(p - 1, -1, -1), legs):
            he = (arm + leg + 1) ** 2
            value = (value << slot) + value * he
            hook_prod *= he
        return value, hook_prod

    return full


def _trivial_legs_step(slot: int) -> Callable:
    """The refined sum over trivial-leg hooks, e = 1:
    Q_n(z) = sum_lambda prod_{h in H1(lambda)} (1 + z / h).  The carried
    (value, hook_prod) takes z + h and h for every cell with leg 0."""

    def trivial_leg(carried: tuple[int, int], p: int, below: int, legs: list[int]):
        value, hook_prod = carried
        for arm, leg in zip(range(p - 1, -1, -1), legs):
            if not leg:
                h = arm + leg + 1
                value = (value << slot) + value * h
                hook_prod *= h
        return value, hook_prod

    return trivial_leg


def _trivial_arms_step(slot: int) -> Callable:
    """The conjugate refined sum over trivial-arm hooks, e = 1.  The
    carried (value, hook_prod) takes z + h and h for every cell with
    arm 0."""

    def trivial_arm(carried: tuple[int, int], p: int, below: int, legs: list[int]):
        value, hook_prod = carried
        for arm, leg in zip(range(p - 1, -1, -1), legs):
            if not arm:
                h = arm + leg + 1
                value = (value << slot) + value * h
                hook_prod *= h
        return value, hook_prod

    return trivial_arm


def _binomials_step(slot: int) -> Callable:
    """The sum of binomial products over part multiplicities, e = 1:
    Q_n(z) = sum_lambda prod_j C(k_j + z, k_j), k_j the parts of lambda
    equal to j.  Equivalent to the trivial-leg form through the
    multiplicity encoding of partitions, but far cheaper per partition.
    The carried (value, fact_prod, mult) holds the multiplicity of the
    top part with the product."""

    def grow(carried: tuple[int, int, int], p: int, below: int, legs: list[int]):
        # a part equal to the one below raises its multiplicity m to m + 1,
        # which takes the rising factorial (z+1)...(z+m) one factor further
        value, fact_prod, mult = carried
        mult = mult + 1 if p == below else 1
        return (value << slot) + value * mult, fact_prod * mult, mult

    return grow


# -- cross-route verification -------------------------------------------------

# Each partition-sum route for Q_n by name: (step factory, e, seed), so
# that _packed_sums(lo, hi, *_ROUTES[name]) walks once over the sizes in
# [lo, hi] and lists, from lo, each n's integer coefficients of
# n!^e * Q_n, constant term first.  n!^e is divisible by every
# per-partition product of the c.
_ROUTES: dict[str, tuple[Callable[[int], Callable], int, tuple[int, ...]]] = {
    "full_hooks": (_full_hooks_step, 2, (1, 1)),
    "trivial_legs": (_trivial_legs_step, 1, (1, 1)),
    "trivial_arms": (_trivial_arms_step, 1, (1, 1)),
    "binomials": (_binomials_step, 1, (1, 1, 0)),
}

ROUTE_NAMES: tuple[str, ...] = tuple(_ROUTES)


def _witness(
    name: str,
    n: int,
    baseline: tuple[int, ...],
    row: tuple[int, ...],
    exp: int,
    injected: tuple[int, Fraction] | None,
) -> dict[str, object] | None:
    """The first coefficient in which the route's Q_n, its row n!^exp * Q_n
    plus injected (index, delta) * z^index if given, differs from the
    recurrence's, baseline = n! * Q_n; None if none does.

    The rows are compared as integers: coefficient k of the route's row,
    plus delta * n!^exp at the injected index, against n!^(exp-1) times
    the baseline's.  A Fraction is built only to print a differing pair.
    """
    fact = math.factorial(n)
    denom = fact**exp
    scale = denom // fact
    index, delta = injected or (0, 0)
    # coefficient k of each row, 0 past its end; an injected index past
    # both ends comes last and is never materialized, however large
    pairs = dict(enumerate(zip_longest(row, baseline, fillvalue=0)))
    pairs.setdefault(index, (0, 0))
    for k, (r, b) in pairs.items():
        added = delta if k == index else 0
        if r + added * denom != scale * b:
            from fractions import Fraction

            return {
                "route": name,
                "coefficient_index": k,
                "expected": str(Fraction(b, fact)),
                "actual": str(Fraction(r, denom) + added),
            }
    return None


def _checked(
    routes: Iterable[str], tamper: Mapping[str, tuple[int, Fraction]] | None
) -> tuple[list[str], Mapping[str, tuple[int, Fraction]]]:
    """The requested routes and the injections, once they are checked."""
    requested = list(routes)
    for name in requested:
        if name not in _ROUTES:
            raise ValueError(f"unknown route {name!r}; choose from {ROUTE_NAMES}")
    tamper = tamper or {}
    for name, (index, _) in tamper.items():
        if index < 0:
            raise ValueError(
                f"tamper index {index} for route {name!r} is negative; "
                "coefficients start at 0"
            )
    return requested, tamper


def _reports(
    lo: int,
    hi: int,
    requested: list[str],
    tamper: Mapping[str, tuple[int, Fraction]],
) -> Iterator[CertReport]:
    """The reports for n = lo..hi, in order of n, up to the first that fails.

    Each requested route walks once, over [lo, hi], before the first
    report; that report's timings hold each walk's seconds, and the later
    ones hold 0.0 for a route, whose rows came from its walk.  Each
    report's "recursion" is the seconds spent extending the recurrence's
    table to its n.
    """
    walks: dict[str, tuple[list[tuple[int, ...]], int, float]] = {}
    for name in requested:
        make_grow, exp, seed = _ROUTES[name]
        start = time.perf_counter()
        walks[name] = _packed_sums(lo, hi, make_grow, exp, seed), exp, time.perf_counter() - start

    for n in range(lo, hi + 1):
        timings: dict[str, float] = {}
        start = time.perf_counter()
        baseline = q_scaled_coeffs(n)
        timings["recursion"] = time.perf_counter() - start

        route_status: dict[str, dict[str, str]] = {}
        witnesses: list[dict[str, object]] = []
        for name in requested:
            rows, exp, seconds = walks[name]
            timings[name] = seconds if n == lo else 0.0
            witness = _witness(name, n, baseline, rows[n - lo], exp, tamper.get(name))
            route_status[name] = {"status": "pass" if witness is None else "fail"}
            if witness is not None:
                witnesses.append(witness)

        report = CertReport(
            kind="identity",
            target={"n": n},
            verdict="fail" if witnesses else "pass",
            details={"baseline": "recursion", "routes": route_status},
            witnesses=witnesses,
            timings=timings,
        )
        yield report
        if witnesses:
            return


def verify_identity(
    n: int,
    routes: Iterable[str],
    tamper: Mapping[str, tuple[int, Fraction]] | None = None,
) -> CertReport:
    """Check the requested routes against the recurrence, coefficient-exact.

    Every requested route recomputes Q_n independently, walking the
    partitions of n alone, and is compared to the recurrence baseline
    (named "recursion" in the report) term by term: the route's integer
    row n!^e * Q_n against n!^(e-1) times the recurrence's n! * Q_n.  The
    report's verdict is "pass" only if no route disagrees; a route that
    does names the first coefficient in which its Q_n differs from the
    recurrence's.

    tamper injects an error into a named route's output (coefficient
    index >= 0, delta) before comparison; it exists so the failure path
    can be exercised by tests and stays out of ordinary use.
    """
    if n < 1:
        raise ValueError("identity verification is defined for n >= 1")
    (report,) = _reports(n, n, *_checked(routes, tamper))
    return report


def verify_up_to(
    max_n: int,
    routes: Iterable[str],
    tamper: Mapping[str, tuple[int, Fraction]] | None = None,
) -> Iterator[CertReport]:
    """The reports verify_identity gives for n = 1..max_n, in order of n,
    up to and including the first that fails.

    Each route walks once, over every n up to max_n: the rows the walk
    places bottom-up always form a partition, and no later row changes
    their hooks, so one walk finishes every smaller size on the way.  The
    first report's timings hold each walk's seconds.

    An injected error fails its route at the first n the route runs at,
    n = 1, so with tamper that report is verify_identity's at n = 1 alone,
    and the walks over 2..max_n are made only if it passes.
    """
    if max_n < 1:
        raise ValueError("identity verification is defined for n >= 1")
    checked = _checked(routes, tamper)
    lo = 1
    if tamper:
        first = verify_identity(1, *checked)
        yield first
        if not first.passed:
            return
        lo = 2
    yield from _reports(lo, max_n, *checked)
