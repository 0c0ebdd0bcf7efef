"""Reference computations that only the tests use.

Each is an independent route to a quantity the package computes another
way: generalized binomials, the finite-product specialization P_n(-m),
part multiplicities, and standard Young tableau counts from the hook
length formula.
"""

import math
from fractions import Fraction

from darcais.partitions import HookMultiset, HookSelector, Partition


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
