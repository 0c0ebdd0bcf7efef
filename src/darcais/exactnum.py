"""Exact polynomial arithmetic: an integer kernel and a rational class.

The kernel works on plain coefficient lists, constant term first:
products, the shift by one, primitive parts (and the scaling of rational
coefficients to primitive integers), pseudo-remainders and the integer
gcd.  It is what the rest of the package computes with.

``ExactPoly``, a dense polynomial with ``fractions.Fraction``
coefficients, and ``poly_divmod`` are on no command's path: the tests
build their oracles with them, and perfbench's tracer wraps
``poly_divmod`` and ``ExactPoly.__call__`` by name.  They import
fractions when they run, so the kernel alone loads none of it; it takes
ints and Fractions alike, through their numerator and denominator
attributes.  Nothing here has a
floating-point escape hatch; an operation that could lose exactness
raises instead.
"""

from __future__ import annotations

import math
from itertools import accumulate

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: the kernel never loads fractions
    from collections.abc import Iterable, Iterator, Sequence
    from fractions import Fraction

    Scalar = int | Fraction


# -- kernel on coefficient lists, constant term first ----------------------


def convolve(a: Sequence, b: Sequence) -> list:
    """Schoolbook product of two nonempty coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def shift_by_one(coeffs: Iterable) -> list:
    """Taylor shift p(x) -> p(x + 1) by repeated Horner passes, O(deg^2).

    Pass k turns the top k coefficients into their suffix sums, run as a
    C-level prefix sum over the reversed list.  The passes only add: one
    that multiplies by c in every step, for a general p(x + c), is about a
    third slower on the shape sweeps.
    """
    rev = list(coeffs)[::-1]
    for k in range(len(rev), 1, -1):
        rev[:k] = accumulate(rev[:k])
    return rev[::-1]


def primitive_part(ints: Iterable[int]) -> list[int]:
    """The integers divided by their positive content (gcd); signs kept."""
    ints = list(ints)
    content = 0
    for v in ints:
        content = math.gcd(content, v)
    if content > 1:
        return [v // content for v in ints]
    return ints


def primitive_int_coeffs(coeffs: Iterable[Scalar]) -> list[int]:
    """Scale rational coefficients by a positive rational to primitive ints.

    The scale factor is always positive, so signs are preserved.
    """
    cs = list(coeffs)
    denom_lcm = 1
    for c in cs:
        denom_lcm = math.lcm(denom_lcm, c.denominator)
    return primitive_part(int(c * denom_lcm) for c in cs)


def prem_signed(f: list[int], g: list[int]) -> list[int]:
    """Integer multiple of rem(f, g) with a positive scale factor.

    Runs the pseudo-division loop entirely over the integers, then fixes
    the sign so the result is a positive rational multiple of the true
    remainder.  Trailing zeros stripped.
    """
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    steps = 0
    while r and len(r) - 1 >= dg:
        if r[-1] == 0:
            r.pop()
            continue
        c = r[-1]
        r = [lg * x for x in r]
        steps += 1
        off = len(r) - 1 - dg
        for i in range(dg):
            r[off + i] -= c * g[i]
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    if lg < 0 and steps % 2 == 1:
        r = [-x for x in r]
    return r


def poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd of two integer polynomials, constant term first and without
    trailing zeros, by a primitive pseudo-remainder sequence (exact): a
    primitive integer list with a positive leading coefficient.

    gcd(f, []) is f made primitive; gcd([], []) is undefined and raises.
    """
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    if len(f) < len(g):
        f, g = g, f
    f, g = primitive_part(f), primitive_part(g)
    while g:
        f, g = g, primitive_part(prem_signed(f, g))
    return f if f[-1] > 0 else [-c for c in f]


class ExactPoly:
    """A dense univariate polynomial with exact rational coefficients.

    Coefficients are stored from the constant term upward, with trailing
    zeros stripped, so equal polynomials always have equal tuples.  The
    zero polynomial is the empty tuple.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        from fractions import Fraction

        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficient tuple, constant term first, no trailing zeros."""
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"ExactPoly({self.to_text()!r})"

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ExactPoly) -> ExactPoly:
        if not isinstance(other, ExactPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPoly(out)

    def __sub__(self, other: ExactPoly) -> ExactPoly:
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> ExactPoly:
        return ExactPoly(-c for c in self._coeffs)

    def __mul__(self, other: ExactPoly | Scalar) -> ExactPoly:
        if isinstance(other, ExactPoly):
            if self.is_zero or other.is_zero:
                return ExactPoly()
            return ExactPoly(convolve(self._coeffs, other._coeffs))
        from fractions import Fraction

        if isinstance(other, (int, Fraction)):
            return ExactPoly(c * other for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate by Horner's rule; exact for int or Fraction arguments."""
        from fractions import Fraction

        x = x if isinstance(x, Fraction) else Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: space-separated num/den, constant term first.

        The zero polynomial serializes as "0/1".
        """
        if not self._coeffs:
            return "0/1"
        return " ".join(f"{c.numerator}/{c.denominator}" for c in self._coeffs)


# -- module-level operations ----------------------------------------------


def poly_divmod(a: ExactPoly, b: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """Exact quotient and remainder with deg(remainder) < deg(b)."""
    from fractions import Fraction

    if b.is_zero:
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    if a.is_zero or len(a.coeffs) < len(b.coeffs):
        return ExactPoly(), a
    rem = list(a.coeffs)
    div = b.coeffs
    lead = div[-1]
    dq = len(rem) - len(div)
    quot = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(div) - 1]
        if c:
            c = c / lead
            quot[k] = c
            for i, d in enumerate(div):
                rem[k + i] -= c * d
    return ExactPoly(quot), ExactPoly(rem[: len(div) - 1])

