"""Reference computations that only the tests use.

Each is an independent route to a quantity the package computes another
way: generalized binomials, the finite-product specialization P_n(-m),
part multiplicities, standard Young tableau counts from the hook length
formula, and Toeplitz matrix entries.  It also keeps the plain, direct
forms of five fast package kernels (the divisor-sum recursion, the
Taylor shift, the ultra-log-concavity test, and the hook and binomial
partition sums with their coefficient lists expanded), so each kernel
can be checked against its textbook statement.
"""

import math
from fractions import Fraction

from darcais.exactnum import ExactPoly, convolve
from darcais.partitions import HookMultiset, HookSelector, Partition, enumerate_partitions
from darcais.pf_tnn import ToeplitzSeq


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
    vec = [0] * partition.weight
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
    n = partition.weight
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


def scaled_coeffs_direct(n: int) -> list[tuple[int, ...]]:
    """n! * P_n for 0..n by the divisor-sum recursion as written,

        m! P_m = x * sum_{k=1..m} sigma(k) * (m-1)!/(m-k)! * (m-k)! P_{m-k},

    one factorial-sized weight per term, no Horner nesting.  sigma is
    summed over divisors by trial division."""
    sigma = [0] + [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, n + 1)]
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
