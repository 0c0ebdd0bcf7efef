"""Exact real-root counting, isolation, and Hurwitz stability certificates.

All certificates here are algebraic: Sturm chains computed over the
integers (primitive pseudo-remainders, signs preserved), bisection with
rational endpoints, and a fraction-free Routh table.  No floating point
anywhere, so a verdict is a proof, not an approximation.

Sturm's theorem is used in the distinct-root form: the chain ends at
(a multiple of) gcd(p, p'), and the variation difference V(a) - V(b)
counts the distinct real roots in the half-open interval (a, b], square
free or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactnum import (
    ExactPoly,
    Scalar,
    poly_divmod,
    poly_gcd,
    prem_signed,
    primitive_int_coeffs,
    primitive_part,
)


class RootAtEndpointError(ValueError):
    """An interval endpoint is itself a root.

    Sturm counts over half-open intervals need non-root endpoints; nudge
    the endpoint by any exact rational step and retry.
    """


@dataclass(frozen=True)
class RootInterval:
    """Half-open interval (lower, upper] containing `count` distinct real
    roots; endpoints are never roots themselves."""

    lower: Fraction
    upper: Fraction
    count: int


@dataclass(frozen=True)
class RouthVerdict:
    """Outcome of the Routh-Hurwitz test.

    stable    every root has strictly negative real part
    marginal  a zero pivot or zero row appeared (roots on the imaginary
              axis or a symmetric root pattern); stable is False
    stage     index of the offending table row when not strictly stable
    """

    stable: bool
    marginal: bool
    stage: int | None = None


@dataclass(frozen=True)
class SturmChain:
    """Sturm chain p0 = p, p1 = p', p_{k+1} = -rem(p_{k-1}, p_k).

    Members are stored once, as primitive integer coefficient tuples
    (constant term first, positive content removed), which rescales each
    by a positive constant and therefore changes no signs.  The chain
    ends at the last nonzero remainder, a constant for square-free p and
    a multiple of gcd(p, p') otherwise.
    """

    coeffs: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, p: ExactPoly) -> SturmChain:
        if p.is_zero:
            raise ValueError("cannot build a Sturm chain for the zero polynomial")
        f = primitive_int_coeffs(p.coeffs)
        if len(f) == 1:
            return cls((tuple(f),))
        fp = [k * c for k, c in enumerate(f)][1:]
        chain = [f, primitive_part(fp)]
        while True:
            r = primitive_part(prem_signed(chain[-2], chain[-1]))
            if not r:
                break
            chain.append([-c for c in r])
        return cls(tuple(tuple(c) for c in chain))

    @property
    def members(self) -> tuple[ExactPoly, ...]:
        """The chain as rational polynomials (built on each access)."""
        return tuple(ExactPoly(c) for c in self.coeffs)

    @property
    def tail_degree(self) -> int:
        """Degree of the last member, which is deg gcd(p, p')."""
        return len(self.coeffs[-1]) - 1

    def signs_at(self, x: Scalar) -> list[int]:
        """Sign (-1, 0 or 1) of every member at x, in chain order.

        At x = a/b with b > 0 a member of degree d is evaluated as the
        homogeneous integer sum c_0 b^d + c_1 a b^(d-1) + ... + c_d a^d,
        which is b^d times its value at x and so has the same sign.
        """
        a, b = x.numerator, x.denominator
        signs = []
        powers = [1]
        for _ in range(len(self.coeffs[0]) - 1):
            powers.append(powers[-1] * b)
        for cs in self.coeffs:
            d = len(cs) - 1
            acc = 0
            for i in range(d, -1, -1):
                acc = acc * a + cs[i] * powers[d - i]
            signs.append((acc > 0) - (acc < 0))
        return signs

    def variations_at(self, x: Scalar) -> int:
        """Number of sign changes in the chain evaluated at x."""
        return _sign_changes(self.signs_at(x))

    def variations_at_infinity(self, positive: bool) -> int:
        """Sign changes in the limit x -> +inf or x -> -inf.

        At +inf the sign of each member is the sign of its leading
        coefficient; at -inf that sign flips for odd degrees.
        """
        signs = []
        for cs in self.coeffs:
            s = 1 if cs[-1] > 0 else -1
            if not positive and len(cs) % 2 == 0:
                s = -s
            signs.append(s)
        return _sign_changes(signs)


def _sign_changes(signs: Sequence[int]) -> int:
    """Sign changes in a sequence of -1/0/1, zeros skipped."""
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def count_real_roots(
    p: ExactPoly,
    lower: Scalar | None = None,
    upper: Scalar | None = None,
    chain: SturmChain | None = None,
) -> int:
    """Distinct real roots of p in (lower, upper]; None means unbounded.

    Finite endpoints must not be roots (RootAtEndpointError otherwise).
    Multiple roots are counted once: the chain construction works for
    non-square-free input because its tail divides every member, and
    dividing the whole chain by it leaves sign variations unchanged.
    A chain passed in must be SturmChain.build(p).
    """
    if p.is_zero:
        raise ValueError("root counting requires a nonzero polynomial")
    if lower is not None and upper is not None and Fraction(lower) >= Fraction(upper):
        raise ValueError("interval must satisfy lower < upper")
    if chain is None:
        chain = SturmChain.build(p)
    variations = []
    for endpoint, positive in ((lower, False), (upper, True)):
        if endpoint is None:
            variations.append(chain.variations_at_infinity(positive=positive))
            continue
        signs = chain.signs_at(endpoint)
        if signs[0] == 0:
            raise RootAtEndpointError(
                f"{endpoint} is a root of the polynomial; Sturm endpoints must "
                "not be roots - shift the endpoint by a small exact rational"
            )
        variations.append(_sign_changes(signs))
    return variations[0] - variations[1]


def _cauchy_bound(p: ExactPoly) -> Fraction:
    """A rational B with every real root of p strictly inside (-B, B)."""
    lead = abs(p.leading_coefficient())
    big = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return big / lead + 1


def isolate_real_roots(
    p: ExactPoly, max_width: Scalar = 1, chain: SturmChain | None = None
) -> list[RootInterval]:
    """Disjoint rational intervals, each holding exactly one distinct real
    root of p, every interval no wider than max_width, sorted by position.

    Interval endpoints are never roots.  Works on non-square-free input
    (each distinct root is isolated once).  A chain passed in must be
    SturmChain.build(p).
    """
    if p.is_zero:
        raise ValueError("root isolation requires a nonzero polynomial")
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    if p.degree() == 0:
        return []
    if chain is None:
        chain = SturmChain.build(p)
    bound = _cauchy_bound(p)
    v_low = chain.variations_at(-bound)
    total = v_low - chain.variations_at(bound)
    if total == 0:
        return []
    done: list[RootInterval] = []
    # (lower, upper, roots inside, variations at lower)
    stack: list[tuple[Fraction, Fraction, int, int]] = [(-bound, bound, total, v_low)]
    while stack:
        lo, hi, count, v_lo = stack.pop()
        if count == 1 and hi - lo <= max_width:
            done.append(RootInterval(lo, hi, 1))
            continue
        mid, v_mid = _nonroot_midpoint(chain, lo, hi)
        left = v_lo - v_mid
        right = count - left
        if left:
            stack.append((lo, mid, left, v_lo))
        if right:
            stack.append((mid, hi, right, v_mid))
    done.sort(key=lambda iv: iv.lower)
    return done


def _nonroot_midpoint(
    chain: SturmChain, lo: Fraction, hi: Fraction
) -> tuple[Fraction, int]:
    """A point near the middle of (lo, hi) where the chain's polynomial
    does not vanish, with the chain's sign variations there."""
    mid = (lo + hi) / 2
    step = 2
    signs = chain.signs_at(mid)
    while signs[0] == 0:
        mid = (lo + hi) / 2 + (hi - lo) / (1 << step)
        step += 1
        signs = chain.signs_at(mid)
    return mid, _sign_changes(signs)


# Fixed 62-bit primes for the one-sided square-freeness certificate.
_SQFREE_PRIMES = (2**61 - 1, 2305843009213693967, 2305843009213693973)


def _gf_gcd_degree(f: Sequence[int], prime: int) -> int:
    """Degree of gcd(f, f') over GF(prime); caller checks leading terms."""
    a = [c % prime for c in f]
    b = [(k * c) % prime for k, c in enumerate(f)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        # reduce a mod b in place
        inv = pow(b[-1], prime - 2, prime)
        while len(a) >= len(b):
            if a[-1] == 0:
                a.pop()
                continue
            c = a[-1] * inv % prime
            off = len(a) - len(b)
            for i in range(len(b) - 1):
                a[off + i] = (a[off + i] - c * b[i]) % prime
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return len(a) - 1


def is_square_free(p: ExactPoly, chain: SturmChain | None = None) -> bool:
    """Whether gcd(p, p') is constant, i.e. p has no repeated roots.

    Tries a modular certificate first: if gcd(p mod q, p' mod q) is
    constant for a prime q that divides neither leading coefficient, then
    the rational gcd is constant too (the implication only runs this
    direction, so the shortcut is sound).  When the modular answer is
    inconclusive, decides by the degree of the chain's last member, which
    is deg gcd(p, p').  A chain passed in must be SturmChain.build(p);
    without one it is built here.
    """
    if p.is_zero:
        raise ValueError("square-freeness is undefined for the zero polynomial")
    deg = p.degree()
    if deg <= 1:
        return True
    f = primitive_int_coeffs(p.coeffs)
    for prime in _SQFREE_PRIMES:
        if f[-1] % prime == 0 or (deg * f[-1]) % prime == 0:
            continue
        if _gf_gcd_degree(f, prime) == 0:
            return True
        break
    if chain is None:
        chain = SturmChain.build(p)
    return chain.tail_degree == 0


def square_free_part(p: ExactPoly) -> ExactPoly:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.is_zero:
        raise ValueError("square-free part is undefined for the zero polynomial")
    if p.degree() == 0:
        return p.monic()
    g = poly_gcd(p, p.derivative())
    if g.degree() == 0:
        return p.monic()
    quotient, remainder = poly_divmod(p, g)
    assert remainder.is_zero
    return quotient.monic()


def is_real_rooted(p: ExactPoly, chain: SturmChain | None = None) -> bool:
    """Whether every complex root of p is real (counted without
    multiplicity, which loses nothing).

    p has deg p - t distinct roots, t = deg gcd(p, p') being the degree
    of the chain's last member, so it is real-rooted iff its chain counts
    that many real ones.  A chain passed in must be SturmChain.build(p).
    """
    if p.is_zero:
        raise ValueError("real-rootedness is undefined for the zero polynomial")
    if chain is None:
        chain = SturmChain.build(p)
    return count_real_roots(p, chain=chain) == p.degree() - chain.tail_degree


def all_real_roots_negative(p: ExactPoly, chain: SturmChain | None = None) -> bool:
    """True iff p has no real root in [0, +infinity).

    Complex roots are not constrained; combine with is_real_rooted when
    full negativity of the spectrum is the question.  A chain passed in
    must be SturmChain.build(p).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no root data")
    if p.coefficient(0) == 0:
        return False
    return count_real_roots(p, lower=0, upper=None, chain=chain) == 0


def hurwitz_stable(p: ExactPoly) -> RouthVerdict:
    """Routh-Hurwitz test: do all roots lie in the open left half-plane?

    Runs the classic first-column test on a fraction-free Routh table:
    each new row is built from integer cross-products and divided by its
    positive content, which rescales rows by positive constants and so
    preserves every pivot sign.  No epsilon perturbations: a zero pivot
    or zero row stops the test with marginal=True and the stage recorded.

    The polynomial must have a nonzero constant term; divide out the
    trivial root at zero first (a root at the origin is never in the open
    left half-plane anyway).
    """
    if p.is_zero:
        raise ValueError("stability is undefined for the zero polynomial")
    if p.coefficient(0) == 0:
        raise ValueError(
            "zero constant term: factor out the root at the origin before "
            "running the stability test"
        )
    deg = p.degree()
    if deg == 0:
        return RouthVerdict(stable=True, marginal=False, stage=None)
    ints = primitive_int_coeffs(p.coeffs)
    desc = list(reversed(ints))
    if desc[0] < 0:
        desc = [-c for c in desc]
    rows: list[list[int]] = [desc[0::2], desc[1::2]]
    while True:
        prev, cur = rows[-2], rows[-1]
        stage = len(rows) - 1
        if not cur or all(c == 0 for c in cur):
            return RouthVerdict(stable=False, marginal=True, stage=stage)
        if cur[0] == 0:
            return RouthVerdict(stable=False, marginal=True, stage=stage)
        if cur[0] < 0:
            return RouthVerdict(stable=False, marginal=False, stage=stage)
        if len(prev) == 1:
            break
        nxt = []
        for i in range(len(prev) - 1):
            a = prev[i + 1]
            b = cur[i + 1] if i + 1 < len(cur) else 0
            nxt.append(cur[0] * a - prev[0] * b)
        rows.append(primitive_part(nxt))
    return RouthVerdict(stable=True, marginal=False, stage=None)
