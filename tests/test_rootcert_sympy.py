"""Differential test of root counting and isolation against sympy.

sympy is a test-only oracle; the module is skipped where it is missing.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from darcais import rootcert
from darcais.exactnum import ExactPoly, primitive_int_coeffs
from darcais.rootcert import count_real_roots, isolate_real_roots
from oracles import check_isolation

X = sympy.symbols("x")


def random_poly(rng: random.Random) -> ExactPoly:
    """Integer polynomial built from rational linear factors (some
    squared), a random monic quadratic and a random cofactor."""
    p = ExactPoly([1])
    for _ in range(rng.randint(0, 3)):
        num, den = rng.randint(-9, 9), rng.randint(1, 4)
        factor = ExactPoly([-num, den])  # root num/den
        p = p * (factor * factor if rng.random() < 0.4 else factor)
    if rng.random() < 0.5:
        p = p * ExactPoly([rng.randint(1, 9), rng.randint(-4, 4), 1])
    cofactor = [rng.randint(-20, 20) for _ in range(rng.randint(2, 4))]
    cofactor[-1] = cofactor[-1] or 1
    return p * ExactPoly(cofactor)


def to_sympy(p: ExactPoly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], X)


@pytest.mark.parametrize("seed", range(60))
def test_counts_and_isolation_agree_with_sympy(seed):
    rng = random.Random(seed)
    p = random_poly(rng)
    sp = to_sympy(p)
    distinct = sorted(set(sympy.real_roots(sp)), key=lambda r: sympy.N(r, 30))
    assert count_real_roots(p) == sp.count_roots() == len(distinct)

    for _ in range(5):
        lo = Fraction(rng.randint(-400, 400), rng.randint(1, 16))
        hi = lo + Fraction(rng.randint(1, 400), rng.randint(1, 16))
        if p(lo) == 0 or p(hi) == 0:
            continue
        assert count_real_roots(p, lo, hi) == sp.count_roots(lo, hi)

    width = Fraction(1, 8)
    intervals = isolate_real_roots(p, max_width=width)
    assert len(intervals) == len(distinct)
    for iv, root in zip(intervals, distinct):
        assert iv.count == 1 and iv.upper - iv.lower <= width
        assert p(iv.lower) != 0 and p(iv.upper) != 0
        assert sp.count_roots(iv.lower, iv.upper) == 1
        assert sympy.Rational(iv.lower.numerator, iv.lower.denominator) < root
        assert root <= sympy.Rational(iv.upper.numerator, iv.upper.denominator)
    for a, b in zip(intervals, intervals[1:]):
        assert a.upper <= b.lower
    check_isolation(p, intervals, width)

    # every real root lies strictly inside the power-of-two root bound
    edge = 2 ** rootcert._root_bound_exponent(primitive_int_coeffs(p.coeffs))
    assert all(-edge < root < edge for root in distinct)
