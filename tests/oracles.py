"""Reference computations that only the tests use.

Each is an independent route to a quantity the package computes another
way: generalized binomials, the finite-product specialization P_n(-m),
the power-series expansion of the Euler product, part multiplicities,
p(n) by the pentagonal recurrence, diagram cells one at a time,
standard Young tableau counts from the hook length formula, and
Toeplitz matrix entries.  The divisor-sum recursion is a second
recurrence for n! * P_n, independent of the package's pentagonal one.
It also keeps the plain, direct forms of four fast package kernels (the
Taylor shift, the ultra-log-concavity test, and the hook and binomial
partition sums with their coefficient lists expanded), so each kernel
can be checked against its textbook statement, plus exact division by
claimed factors, the derivative, Sturm's theorem as the root count
the Descartes bisection of rootcert is checked against, and the minor
search that evaluates every Toeplitz window afresh, which pf_test's
bordered eliminations are checked against.  shape_summary_separate is
the shape summary as separate exact passes, with no top-bit filter and
the implication chain asserted over the whole sequence, which the one
concavity pass of shape_summary is checked against.  read_cache_exact
is the record-cache reader as a line parser alone, which the canonical
fast path of cache.read_cache is checked against.

Last, the rational views the tests compare as ExactPoly, which the
package, computing on integer rows, no longer has: P_n and Q_n from the
recurrence's rows (darcais_poly, q_poly), and Q_n from each partition-sum
route's row n!^e * Q_n (hook_sum_full, hook_sum_trivial_leg,
hook_sum_trivial_arm, binomial_sum).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from darcais.cache import CACHE_HEADER, CacheError
from darcais.exactnum import ExactPoly, convolve, poly_divmod
from darcais.partitions import HookMultiset, HookSelector, Partition, enumerate_partitions
from darcais.polynomials import _ROUTES, _packed_sums, q_scaled_coeffs, scaled_coeffs
from darcais.pf_tnn import MinorWitness, ToeplitzSeq, contiguous_minor_spec, toeplitz_minor
from darcais.rootcert import SturmChain
from darcais.shape import (
    InternalConsistencyError,
    ShapeVerdict,
    is_log_concave,
    is_unimodal,
)


class HookConsistencyError(ArithmeticError):
    """The hook-length formula produced a non-integer tableau count."""


def binomial(top, k: int) -> Fraction:
    """Generalized binomial coefficient C(top, k) = top(top-1)...(top-k+1)/k!.

    top may be any integer or rational; k must be a nonnegative integer.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("binomial lower index must be a nonnegative integer")
    top = top if isinstance(top, Fraction) else Fraction(top)
    num = Fraction(1)
    for i in range(k):
        num *= top - i
    return num / math.factorial(k)


def finite_product_coefficient(exponent: int, n: int) -> int:
    """[q^n] of prod_{d=1..n} (1 - q^d)^exponent, exponent a nonneg integer.

    For positive integer m this equals P_n(-m): specializing the Euler
    product at negative integers turns it into an honest finite product
    with integer coefficients.  Used as a third, combinatorial oracle.
    """
    if exponent < 0 or n < 0:
        raise ValueError("exponent and index must be nonnegative")
    series = [0] * (n + 1)
    series[0] = 1
    for d in range(1, n + 1):
        # multiply by (1 - q^d)^exponent, truncated at q^n
        factor = [0] * (n + 1)
        for i in range(0, n // d + 1):
            if i > exponent:
                break
            factor[i * d] = (-1) ** i * math.comb(exponent, i)
        nxt = [0] * (n + 1)
        for a, ca in enumerate(series):
            if not ca:
                continue
            for b in range(0, n - a + 1):
                if factor[b]:
                    nxt[a + b] += ca * factor[b]
        series = nxt
    return series[n]


def multiplicity_vector(partition: Partition) -> tuple[int, ...]:
    """Length-n vector whose j-th entry counts parts equal to j.

    This is the bijective encoding of the partition by part
    multiplicities; sum(j * k_j) recovers the weight.
    """
    vec = [0] * sum(partition.parts)
    for p in partition.parts:
        vec[p - 1] += 1
    return tuple(vec)


def hook_product(hooks: HookMultiset) -> int:
    """Product of all hook values, with multiplicity."""
    prod = 1
    for value, mult in hooks.counts:
        prod *= value**mult
    return prod


def count_syt(partition: Partition) -> int:
    """Number of standard Young tableaux, n! / (product of all hooks).

    Raises HookConsistencyError if the division is not exact, which
    would indicate corrupted hook data (it never happens for genuine
    partitions).
    """
    n = sum(partition.parts)
    denom = hook_product(partition.hooks(HookSelector.FULL))
    count, rem = divmod(math.factorial(n), denom)
    if rem:
        raise HookConsistencyError(
            f"hook product {denom} does not divide {n}! for {partition!r}"
        )
    return count


def toeplitz_entry(seq: ToeplitzSeq, i: int, j: int) -> Fraction:
    """Entry (i, j) of the infinite Toeplitz matrix of seq: a_{i-j}, zero
    outside the stored range."""
    k = i - j
    if 0 <= k < len(seq.entries):
        return seq.entries[k]
    return Fraction(0)


def is_integral(seq: ToeplitzSeq) -> bool:
    """True when every entry of seq is an integer."""
    return all(e.denominator == 1 for e in seq.entries)


def first_negative_minor(
    seq: ToeplitzSeq, max_order: int, max_shift: int
) -> MinorWitness | None:
    """The first negative contiguous window in increasing order, then
    increasing row shift, each evaluated by its own toeplitz_minor."""
    for order in range(1, max_order + 1):
        for shift in range(0, max_shift + 1):
            spec = contiguous_minor_spec(order, row_start=shift)
            det = toeplitz_minor(seq, spec)
            if det < 0:
                return MinorWitness(spec, det)
    return None


def sigma_table(n: int) -> list[int]:
    """[0, sigma(1), ..., sigma(n)], the sums of divisors, by a sieve that
    adds each d to every multiple of it."""
    table = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            table[m] += d
    return table


def scaled_coeffs_direct(n: int) -> list[tuple[int, ...]]:
    """n! * P_n for 0..n by the divisor-sum recursion as written,

        m! P_m = x * sum_{k=1..m} sigma(k) * (m-1)!/(m-k)! * (m-k)! P_{m-k},

    one factorial-sized weight per term, no Horner nesting.  It comes from
    q F'/F = x * sum_k sigma(k) q^k for F = prod (1 - q^k)^(-x); the
    package's pentagonal recurrence writes the same logarithmic
    derivative through prod (1 - q^k) instead."""
    sigma = sigma_table(n)
    table: list[tuple[int, ...]] = [(1,)]
    for m in range(1, n + 1):
        acc = [0] * m
        falling = 1  # (m-1)! / (m-k)! for the current k
        for k in range(1, m + 1):
            w = sigma[k] * falling
            for i, c in enumerate(table[m - k]):
                acc[i] += w * c
            falling *= m - k
        table.append((0, *acc))
    return table


def shift_by_one_loop(coeffs) -> list:
    """p(x) -> p(x + 1) by nested Horner passes, one addition at a time."""
    out = list(coeffs)
    m = len(out)
    for i in range(m - 1):
        for j in range(m - 2, i - 1, -1):
            out[j] += out[j + 1]
    return out


def ulc_witness_comb(values) -> int | None:
    """First j where a_j / C(n, j) breaks log-concavity, n = len - 1, by
    the cross-multiplied binomial form; None if there is none."""
    n = len(values) - 1
    for j in range(1, n):
        lhs = values[j] * values[j] * math.comb(n, j - 1) * math.comb(n, j + 1)
        rhs = values[j - 1] * values[j + 1] * math.comb(n, j) ** 2
        if lhs < rhs:
            return j
    return None


def ulc_witness_exact(values) -> int | None:
    """First j where a_j^2 j (n-j) < a_{j-1} a_{j+1} (j+1) (n-j+1),
    n = len - 1, with both sides multiplied out in full; None if none."""
    n = len(values) - 1
    for j in range(1, n):
        lhs = values[j] * values[j] * (j * (n - j))
        if lhs < values[j - 1] * values[j + 1] * ((j + 1) * (n - j + 1)):
            return j
    return None


def unimodal_walk(values) -> ShapeVerdict:
    """is_unimodal by one walk: up the longest weakly rising prefix, then
    to the first entry below its successor, whose plateau start is the
    dip; with none, the peak is the start of the top plateau."""
    rise_end = 0
    while rise_end + 1 < len(values) and values[rise_end] <= values[rise_end + 1]:
        rise_end += 1
    for j in range(rise_end, len(values) - 1):
        if values[j] < values[j + 1]:
            dip = j
            while dip > 0 and values[dip - 1] == values[dip]:
                dip -= 1
            return ShapeVerdict(unimodal=False, failure_witness=dip)
    peak = rise_end
    while peak > 0 and values[peak - 1] == values[peak]:
        peak -= 1
    return ShapeVerdict(unimodal=True, peak_index=peak)


def shape_summary_separate(values) -> ShapeVerdict:
    """The three predicates as separate exact passes: is_unimodal,
    is_log_concave and ulc_witness_exact.  For a positive sequence, ULC
    without log-concavity, or log-concavity without unimodality, raises.
    The witness is unimodality's if it fails, else log-concavity's, else
    ULC's."""
    uni = is_unimodal(values)
    lc = is_log_concave(values)
    ulc_witness = ulc_witness_exact(values)
    if all(v > 0 for v in values):
        if ulc_witness is None and not lc.log_concave:
            raise InternalConsistencyError("ultra-log-concave sequence judged not log-concave")
        if lc.log_concave and not uni.unimodal:
            raise InternalConsistencyError("log-concave positive sequence judged not unimodal")
    witness = uni.failure_witness
    if witness is None:
        witness = lc.failure_witness
    if witness is None:
        witness = ulc_witness
    return ShapeVerdict(
        unimodal=uni.unimodal,
        log_concave=lc.log_concave,
        ultra_log_concave=ulc_witness is None,
        peak_index=uni.peak_index,
        failure_witness=witness,
    )


def hook_sum_convolve(n: int, selector: HookSelector, square: bool) -> ExactPoly:
    """sum over partitions of n of prod_{h in hooks} (1 + z / h^e), e = 2 if
    square else 1, with each (z + h^e)^mult expanded by the binomial
    theorem and multiplied in as a coefficient list."""
    exp = 2 if square else 1
    denom = math.factorial(n) ** exp
    acc = [0] * (n + 1)
    for part in enumerate_partitions(n):
        numer = [1]
        hook_prod = 1
        for value, mult in part.hooks(selector).counts:
            he = value**exp
            factor = [math.comb(mult, i) * he ** (mult - i) for i in range(mult + 1)]
            numer = convolve(numer, factor)
            hook_prod *= he**mult
        scale = denom // hook_prod
        for i, c in enumerate(numer):
            acc[i] += c * scale
    return ExactPoly(Fraction(c, denom) for c in acc)


def binomial_sum_convolve(n: int) -> ExactPoly:
    """sum over partitions of n of prod_j C(k_j + z, k_j), k_j the number of
    parts equal to j, with each rising factorial (z+1)...(z+k) kept as a
    coefficient list."""
    denom = math.factorial(n)
    rising: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        rising.append(convolve(rising[-1], [k, 1]))
    acc = [0] * (n + 1)
    for part in enumerate_partitions(n):
        numer = [1]
        fact_prod = 1
        seen: dict[int, int] = {}
        for p in part.parts:
            seen[p] = seen.get(p, 0) + 1
        for mult in seen.values():
            numer = convolve(numer, rising[mult])
            fact_prod *= math.factorial(mult)
        scale = denom // fact_prod
        for i, c in enumerate(numer):
            acc[i] += c * scale
    return ExactPoly(Fraction(c, denom) for c in acc)


def euler_series_poly(n: int) -> ExactPoly:
    """P_n(z) extracted from the Euler product without the recursion.

    Expands L(q) = -log prod (1 - q^m) = sum_N (sum_{j | N} 1/j) q^N by a
    direct double loop, then reads off the coefficient of q^n in
    exp(z * L) = sum_i z^i L^i / i! using explicit truncated powers of L.
    Cost is O(n^3) rational operations; this is the oracle the recursion
    is checked against, so it uses no package code but the ExactPoly
    container (tests/test_structure.py checks that).
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ExactPoly([1])
    log_series = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        for j in range(1, n // m + 1):
            log_series[m * j] += Fraction(1, j)
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n  # running L^i, truncated
    for i in range(1, n + 1):
        nxt = [Fraction(0)] * (n + 1)
        # L has no constant term, so L^i starts at q^i
        for a in range(i - 1, n):
            pa = power[a]
            if not pa:
                continue
            for b in range(1, n - a + 1):
                lb = log_series[b]
                if lb:
                    nxt[a + b] += pa * lb
        power = nxt
        out[i] = power[n] / math.factorial(i)
    return ExactPoly(out)


def shift(p: ExactPoly, c) -> ExactPoly:
    """p(x + c): with b_k = a_k c^k and s the shift by one of b, the
    coefficient of x^k in p(x + c) is s_k / c^k."""
    c = Fraction(c)
    if not c:
        return p
    powers = [c**k for k in range(len(p.coeffs))]
    shifted = shift_by_one_loop(a * w for a, w in zip(p.coeffs, powers))
    return ExactPoly(s / w for s, w in zip(shifted, powers))


def derivative(p: ExactPoly) -> ExactPoly:
    """p'(x), term by term."""
    return ExactPoly(k * c for k, c in enumerate(p.coeffs) if k)


def record_poly(record) -> ExactPoly:
    """P_n rebuilt from its integer-normalized record: (x / n!) * sum a_k x^k."""
    fact = math.factorial(record.n)
    return ExactPoly([Fraction(0)] + [Fraction(c, fact) for c in record.numer_coeffs])


def darcais_poly(n: int) -> ExactPoly:
    """P_n(x), exact rational coefficients: the recurrence's n! * P_n over n!."""
    fact = math.factorial(n)
    return ExactPoly(Fraction(c, fact) for c in scaled_coeffs(n))


def q_poly(n: int) -> ExactPoly:
    """Q_n(x) = P_n(x + 1), the hook-length average polynomial: the Q
    recurrence's n! * Q_n over n!."""
    fact = math.factorial(n)
    return ExactPoly(Fraction(c, fact) for c in q_scaled_coeffs(n))


def _route_poly(route: str, n: int) -> ExactPoly:
    """Q_n from the named partition-sum route: its row n!^e * Q_n, walked
    over the partitions of n alone, over n!^e."""
    make_grow, exp, seed = _ROUTES[route]
    (row,) = _packed_sums(n, n, make_grow, exp, seed)
    return ExactPoly(Fraction(c, math.factorial(n) ** exp) for c in row)


def hook_sum_full(n: int) -> ExactPoly:
    """Q_n as the Nekrasov-Okounkov sum over all hooks:
    sum_lambda prod_{h in H(lambda)} (1 + z / h^2)."""
    return _route_poly("full_hooks", n)


def hook_sum_trivial_leg(n: int) -> ExactPoly:
    """Q_n as the refined sum over trivial-leg hooks:
    sum_lambda prod_{h in H1(lambda)} (1 + z / h)."""
    return _route_poly("trivial_legs", n)


def hook_sum_trivial_arm(n: int) -> ExactPoly:
    """Q_n as the conjugate refined sum over trivial-arm hooks."""
    return _route_poly("trivial_arms", n)


def binomial_sum(n: int) -> ExactPoly:
    """Q_n as a sum of binomial products over part multiplicities:
    sum_lambda prod_j C(k_j + z, k_j), where k_j counts parts equal to j."""
    return _route_poly("binomials", n)


class FactorizationError(ValueError):
    """A claimed polynomial factor does not divide exactly."""


def verify_factorization(p: ExactPoly, factors) -> ExactPoly:
    """Divide p by each factor in turn, insisting on zero remainders.

    Returns the final quotient (the cofactor left after all divisions).
    Raises FactorizationError naming the first factor that fails.
    """
    current = p
    for index, factor in enumerate(factors):
        quotient, remainder = poly_divmod(current, factor)
        if not remainder.is_zero:
            raise FactorizationError(
                f"factor {index} ({factor.to_text()}) leaves remainder "
                f"{remainder.to_text()}"
            )
        current = quotient
    return current


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (independent of
    enumeration, handy as a cross-check)."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def conjugate(partition: Partition) -> Partition:
    """Transpose of the diagram: column j has as many cells as parts >= j."""
    parts = partition.parts
    width = parts[0] if parts else 0
    return Partition([sum(1 for p in parts if p >= j) for j in range(1, width + 1)])


@dataclass(frozen=True)
class Cell:
    """A diagram cell with its arm, leg, and hook data (1-based row/col)."""

    row: int
    col: int
    arm: int
    leg: int

    @property
    def hook(self) -> int:
        return self.arm + self.leg + 1


def cells(partition: Partition):
    """All cells in reading order (row by row, left to right)."""
    conj = conjugate(partition).parts
    for i, part in enumerate(partition.parts, start=1):
        for j in range(1, part + 1):
            yield Cell(row=i, col=j, arm=part - j, leg=conj[j - 1] - i)


def elements(hooks: HookMultiset) -> tuple[int, ...]:
    """All hook values, repeated by multiplicity, in increasing order."""
    return tuple(value for value, mult in hooks.counts for _ in range(mult))


def variations_at_infinity(chain: SturmChain, positive: bool) -> int:
    """Sign changes of the chain in the limit x -> +inf or x -> -inf.

    At +inf the sign of each member is the sign of its leading
    coefficient; at -inf that sign flips for odd degrees.
    """
    signs = []
    for cs in chain.coeffs:
        s = 1 if cs[-1] > 0 else -1
        if not positive and len(cs) % 2 == 0:
            s = -s
        signs.append(s)
    return _sign_changes(signs)


def _sign_changes(signs) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def sturm_count(p: ExactPoly, lower=None, upper=None, chain=None) -> int:
    """Distinct real roots of p in (lower, upper] by Sturm's theorem; None
    means unbounded, and finite endpoints must not be roots.

    The chain ends at a multiple of gcd(p, p'), which divides every
    member, so its variation difference counts distinct roots whether p
    is square free or not.  A chain passed in must be SturmChain.build(p).
    rootcert's own root counts never reach SturmChain
    (tests/test_structure.py), so the two counts are independent.
    """
    if chain is None:
        chain = SturmChain.build(p)
    variations = []
    for endpoint, positive in ((lower, False), (upper, True)):
        if endpoint is None:
            variations.append(variations_at_infinity(chain, positive))
            continue
        signs = chain.signs_at(Fraction(endpoint))
        if signs[0] == 0:
            raise ValueError(f"{endpoint} is a root; Sturm endpoints must not be roots")
        variations.append(_sign_changes(signs))
    return variations[0] - variations[1]


def sturm_tail_degree(p: ExactPoly) -> int:
    """deg gcd(p, p'): the degree of the last member of p's Sturm chain."""
    return len(SturmChain.build(p).coeffs[-1]) - 1


def check_isolation(p: ExactPoly, intervals, max_width) -> None:
    """Assert, by Sturm counts, that the intervals isolate the distinct
    real roots of p: each holds exactly one, its endpoints are not roots,
    it is no wider than max_width, and together they hold them all, in
    increasing order without overlap."""
    chain = SturmChain.build(p)
    for iv in intervals:
        assert iv.count == 1
        assert 0 < iv.upper - iv.lower <= max_width
        assert chain.signs_at(iv.lower)[0] != 0 and chain.signs_at(iv.upper)[0] != 0
        assert sturm_count(p, iv.lower, iv.upper, chain=chain) == 1
    for a, b in zip(intervals, intervals[1:]):
        assert a.upper <= b.lower
    assert len(intervals) == sturm_count(p, chain=chain)


def read_cache_exact(path: str | Path) -> dict[int, tuple[int, ...]]:
    """Parse and validate a cache file; returns {n: (a_0..a_{n-1})}."""
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CacheError(f"cache file {path} is not ASCII text") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != CACHE_HEADER:
        raise CacheError(
            f"bad cache header in {path}: expected {CACHE_HEADER!r}, "
            f"got {lines[0].strip()!r}" if lines else f"empty cache file {path}"
        )
    records: dict[int, tuple[int, ...]] = {}
    expected = 1
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise CacheError(f"{path}:{lineno}: record missing ':' separator")
        try:
            n = int(head.strip())
            coeffs = tuple(map(int, tail.split()))
        except ValueError as exc:
            raise CacheError(f"{path}:{lineno}: unparsable record: {line!r}") from exc
        if n != expected:
            raise CacheError(
                f"{path}:{lineno}: record index {n} out of order (expected {expected})"
            )
        if len(coeffs) != n:
            raise CacheError(
                f"{path}:{lineno}: record {n} has {len(coeffs)} coefficients, needs {n}"
            )
        if coeffs[-1] != 1:
            raise CacheError(f"{path}:{lineno}: record {n} is not monic-normalized")
        if min(coeffs) <= 0:
            raise CacheError(f"{path}:{lineno}: record {n} has a non-positive entry")
        records[n] = coeffs
        expected += 1
    return records
