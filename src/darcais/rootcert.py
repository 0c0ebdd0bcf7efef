"""Exact real-root counting, isolation, and Hurwitz stability certificates.

All certificates here are algebraic: Descartes' rule of signs on integer
polynomials, bisection at dyadic points, a modular or exact gcd test for
square-freeness, and a fraction-free Routh table.  No floating point
anywhere, so a verdict is a proof, not an approximation.

Real roots are found by Vincent-Collins-Akritas bisection (Collins and
Akritas, SYMSAC 1976; Rouillier and Zimmermann, J. Comput. Appl. Math.
162, 2004).  By Descartes' rule, the sign variations V of the
coefficients of (t + 1)^d q(1 / (t + 1)) exceed the number of roots of q
in (0, 1) by an even number, so V = 0 and V = 1 are exact counts.  The
positive roots of p(x) and of p(-x) lie below a power of two 2^B; scaled
onto (0, 1), that interval is halved until every piece has V <= 1.  A
root exactly at a halving point is counted there and divided out.  The
bisection needs distinct roots, so it runs on the square-free part of p
and counts every root once, whatever its multiplicity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .exactnum import (
    ExactPoly,
    Scalar,
    poly_gcd,
    prem_signed,
    primitive_int_coeffs,
    primitive_part,
    shift_by_one,
)
from .plain import Frozen


class RootAtEndpointError(ValueError):
    """An interval endpoint is itself a root.

    Counts over half-open intervals need non-root endpoints; nudge the
    endpoint by any exact rational step and retry.
    """


class RootInterval(Frozen):
    """Half-open interval (lower, upper] containing `count` distinct real
    roots; endpoints are never roots themselves."""

    __slots__ = ("lower", "upper", "count")

    def __init__(self, lower: Fraction, upper: Fraction, count: int):
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "count", count)


class RouthVerdict(Frozen):
    """Outcome of the Routh-Hurwitz test.

    stable    every root has strictly negative real part
    marginal  a zero pivot or zero row appeared (roots on the imaginary
              axis or a symmetric root pattern); stable is False
    stage     index of the offending table row when not strictly stable
    """

    __slots__ = ("stable", "marginal", "stage")

    def __init__(self, stable: bool, marginal: bool, stage: int | None = None):
        object.__setattr__(self, "stable", stable)
        object.__setattr__(self, "marginal", marginal)
        object.__setattr__(self, "stage", stage)


class SturmChain(Frozen):
    """Sturm chain p0 = p, p1 = p', p_{k+1} = -rem(p_{k-1}, p_k).

    No root count in this module uses it.  The tests count with it, as an
    oracle independent of the Descartes bisection, and perfbench's tracer
    wraps build, members and variations_at by name.

    Members are stored once, as primitive integer coefficient tuples
    (constant term first, positive content removed), which rescales each
    by a positive constant and therefore changes no signs.  The chain
    ends at the last nonzero remainder, a constant for square-free p and
    a multiple of gcd(p, p') otherwise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "coeffs", coeffs)

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


def _sign_changes(values: Sequence[int]) -> int:
    """Sign changes in a sequence of integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_at(f: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial f at x = a/b, b > 0.

    Evaluated as the homogeneous sum f_0 b^d + f_1 a b^(d-1) + ... +
    f_d a^d, which is b^d f(x) and so has its sign.
    """
    a, b = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(f):
        acc = acc * a + c * scale
        scale *= b
    return (acc > 0) - (acc < 0)


def _root_bound_exponent(f: Sequence[int]) -> int:
    """An exponent B with every complex root z of f inside |z| < 2^B.

    Fujiwara's bound (Tohoku Math. J. 10, 1916), rounded up to a power of
    two.  Let d = deg f and M = max |f_(d-i) / f_d|^(1/i) over i = 1..d.
    If |z| >= 2M > 0, then |f_(d-i)| <= |f_d| M^i gives

        |f(z)| >= |f_d| |z|^d (1 - sum_i (M / |z|)^i)
               >= |f_d| |z|^d (1 - sum_i 2^-i) = |f_d| |z|^d 2^-d > 0,

    so no root has |z| >= 2M, nor |z| >= 2^B for any 2^B >= 2M.  The
    least such B is 1 + max e_i, e_i the least integer with
    |f_(d-i)| <= |f_d| 2^(i e_i), taken over the nonzero f_(d-i).  With
    none of those, every root is 0 and B = 0 serves.
    """
    d = len(f) - 1
    lead = abs(f[-1])
    exponents = []
    for i in range(1, d + 1):
        a = abs(f[d - i])
        if not a:
            continue
        # the least t with a <= lead 2^t is t0 or t0 + 1
        t = a.bit_length() - lead.bit_length()
        if a << max(-t, 0) > lead << max(t, 0):
            t += 1
        exponents.append(-(-t // i))
    return 1 + max(exponents, default=-1)


def _descartes(q: Sequence[int]) -> int:
    """Sign variations of (t + 1)^d q(1 / (t + 1)): the roots of q in
    (0, 1) plus an even number.  Zero if q has no sign variation at all,
    since then it has no positive root."""
    if _sign_changes(q) == 0:
        return 0
    return _sign_changes(shift_by_one(reversed(q)))


def _deflate_at_one(q: list[int]) -> list[int]:
    """q(t) / (t - 1) for q(1) = 0: the quotient's coefficients are the
    suffix sums of q's."""
    return list(accumulate(q[:0:-1]))[::-1]


def _unit_roots(g: list[int]) -> list[tuple[int, int, list[int] | None]]:
    """The roots of g in (0, 1); g square free, nonzero at 0 and 1.

    Each root is (c, k, q).  When q is None the root is c / 2^k.
    Otherwise it is the only root in the open interval
    (c / 2^k, (c + 1) / 2^k), and q(t) is, up to a nonzero factor without
    roots in that interval, g((c + t) / 2^k); q is nonzero at t = 0 and
    t = 1, because every root found at a halving point is divided out of
    both halves.

    The depth is bounded.  The node (c, k) stands for the interval
    I = (c / 2^k, (c + 1) / 2^k) of width w = 2^-k, and its count V is
    that of Descartes' rule for g on I, or for g with some roots divided
    out.  By the one- and two-circle theorems (Obreschkoff; see Krandick
    and Mehlhorn, J. Symb. Comput. 41, 2006, and Eigenwillig, Sharma and
    Yap, ISSAC 2006), V = 0 if the disc with diameter I holds no root,
    and V = 1 if the union of the two discs through both ends of I,
    centred at its midpoint +- i w / (2 sqrt 3), holds exactly one root,
    a simple one.  That union contains the first disc and is sqrt 3 w
    across, so V >= 2 needs two distinct roots of g at most sqrt 3 w
    apart.  For square-free g of degree d >= 2, with N = sum g_i^2,
    Mahler's bound (Michigan Math. J. 11, 1964), together with
    |disc g| >= 1 and Mahler measure at most sqrt N, keeps distinct roots
    more than sqrt 3 d^(-(d+2)/2) N^((1-d)/2) apart.  So V >= 2 needs
    2^k < d^((d+2)/2) N^((d-1)/2) < 2^limit, since d < 2^bitlen(d) and
    N < 2^bitlen(N); for d <= 1, V <= 1 at every node.  A node at depth
    limit or more with V >= 2 therefore means g is not square free, when
    the bisection would never end, and it raises AssertionError instead.
    """
    d = len(g) - 1
    norm_bits = sum(a * a for a in g).bit_length()
    limit = (d.bit_length() * (d + 2) + 1) // 2 + (d - 1) * ((norm_bits + 1) // 2)
    found: list[tuple[int, int, list[int] | None]] = []
    todo = [(0, 0, g)]
    while todo:
        c, k, q = todo.pop()
        v = _descartes(q)
        if v == 0:
            continue
        if v == 1:
            found.append((c, k, q))
            continue
        if k >= limit:
            raise AssertionError(
                f"{v} sign variations at bisection depth {k}, past the "
                "root separation bound: the polynomial is not square free"
            )
        d = len(q) - 1
        left = [a << (d - i) for i, a in enumerate(q)]  # 2^d q(t / 2)
        twos = min((a & -a).bit_length() for a in left if a) - 1
        if twos:  # a positive factor, so no sign changes
            left = [a >> twos for a in left]
        c, k = 2 * c, k + 1
        if sum(left) == 0:  # q(1/2) = 0
            found.append((c + 1, k, None))
            left = _deflate_at_one(left)
        todo.append((c + 1, k, shift_by_one(left)))
        todo.append((c, k, left))
    return found


class _Root:
    """One real root: exactly `exact`, or the only root of q in (lo, hi).

    q is the polynomial of a Descartes leaf in its variable t, which maps
    to x = x0 + (x1 - x0) t; (lo, hi) lies in (0, 1).  q is nonzero at
    t = 0 and has one simple root in (0, 1), so below that root q has the
    sign of q(0) and above it the other sign.  halve() keeps the half of
    (lo, hi) that holds the root, by the sign of q at the midpoint.
    """

    __slots__ = ("exact", "q", "x0", "x1", "lo", "hi")

    def __init__(self, exact=None, q=None, x0=None, x1=None):
        assert q is None or (q[0] and sum(q)), "a leaf polynomial vanishes at an end"
        self.exact = exact
        self.q, self.x0, self.x1 = q, x0, x1
        self.lo, self.hi = Fraction(0), Fraction(1)

    def bounds(self) -> tuple[Fraction, Fraction]:
        """The interval in x, lower end first; a point for an exact root."""
        if self.exact is not None:
            return self.exact, self.exact
        a = self.x0 + (self.x1 - self.x0) * self.lo
        b = self.x0 + (self.x1 - self.x0) * self.hi
        return (a, b) if a < b else (b, a)

    def halve(self) -> None:
        mid = (self.lo + self.hi) / 2
        sign = _sign_at(self.q, mid)
        if sign == 0:
            self.exact = self.x0 + (self.x1 - self.x0) * mid
        elif (sign > 0) == (self.q[0] > 0):
            self.lo = mid
        else:
            self.hi = mid


def _real_roots(
    f: list[int], negative: bool = True, positive: bool = True
) -> list[_Root]:
    """The real roots of the square-free integer polynomial f: zero if it
    is a root, the negative ones if asked, the positive ones if asked.

    A side's roots are the positive roots of f(x) or f(-x); with 2^B a
    bound on them, the scaled polynomial 2^(Bd) f(+-2^B t) or
    2^(-Bd) f(+-2^B t) has integer coefficients and the same roots in
    (0, 1), and is nonzero at t = 0 and t = 1.
    """
    roots = []
    if f[0] == 0:
        roots.append(_Root(exact=Fraction(0)))
        f = f[1:]
    if len(f) < 2:
        return roots
    d = len(f) - 1
    bound = _root_bound_exponent(f)
    scale = Fraction(2) ** bound
    for side, wanted in ((-1, negative), (1, positive)):
        if not wanted:
            continue
        h = [c if side > 0 or i % 2 == 0 else -c for i, c in enumerate(f)]
        if bound >= 0:
            g = [c << (bound * i) for i, c in enumerate(h)]
        else:
            g = [c << (-bound * (d - i)) for i, c in enumerate(h)]
        for c, k, q in _unit_roots(g):
            x0 = side * scale * Fraction(c, 1 << k)
            if q is None:
                roots.append(_Root(exact=x0))
            else:
                roots.append(_Root(q=q, x0=x0, x1=x0 + side * scale / (1 << k)))
    return roots


def _primitive(p: Sequence[Scalar]) -> tuple[int, ...]:
    """p's coefficients, constant term first, scaled by a positive
    rational to primitive integers, trailing zeros stripped.  Raises
    ValueError for the zero polynomial, which has no root data."""
    f = primitive_int_coeffs(p)
    while f and not f[-1]:
        f.pop()
    if not f:
        raise ValueError("the zero polynomial has no root data")
    return tuple(f)


@lru_cache(maxsize=1)
def _square_free(f: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive integer coefficients of a square-free polynomial with the
    roots of the primitive polynomial f and the sign of its leading
    coefficient: f itself when the modular certificate says it is square
    free, else f / gcd(f, f').  The gcd is primitive, so by Gauss's lemma
    the quotient has integer coefficients and is primitive too.

    The last answer is kept.  A `roots` job asks about one polynomial in
    is_square_free, square_free_part, count_real_roots,
    all_real_roots_negative and isolate_real_roots, and so runs the
    certificate, and the gcd when the certificate is inconclusive, once.
    """
    if len(f) <= 2 or _certified_square_free(f):
        return f
    g = poly_gcd(list(f), [k * c for k, c in enumerate(f)][1:])
    if len(g) == 1:
        return f
    quotient = [0] * (len(f) - len(g) + 1)
    rest = list(f)
    for k in reversed(range(len(quotient))):
        c = quotient[k] = rest[k + len(g) - 1] // g[-1]
        for i, a in enumerate(g):
            rest[k + i] -= c * a
    assert not any(rest), "gcd(f, f') does not divide f"
    return tuple(quotient)


def count_real_roots(
    p: Sequence[Scalar], lower: Scalar | None = None, upper: Scalar | None = None
) -> int:
    """Distinct real roots of p in (lower, upper]; None means unbounded.

    Finite endpoints must not be roots (RootAtEndpointError otherwise).
    Multiple roots are counted once.  A root whose isolating interval
    straddles an endpoint is located by halving that interval until it
    does not.
    """
    f = _square_free(_primitive(p))
    lower = None if lower is None else Fraction(lower)
    upper = None if upper is None else Fraction(upper)
    if lower is not None and upper is not None and lower >= upper:
        raise ValueError("interval must satisfy lower < upper")
    for endpoint in (lower, upper):
        if endpoint is not None and _sign_at(f, endpoint) == 0:
            raise RootAtEndpointError(
                f"{endpoint} is a root of the polynomial; interval endpoints "
                "must not be roots - shift the endpoint by a small exact rational"
            )
    roots = _real_roots(
        f,
        negative=lower is None or lower < 0,
        positive=upper is None or upper > 0,
    )
    count = 0
    for root in roots:
        lo, hi = root.bounds()
        while any(e is not None and lo < e < hi for e in (lower, upper)):
            root.halve()
            lo, hi = root.bounds()
        count += (lower is None or lo >= lower) and (upper is None or hi <= upper)
    return count


def isolate_real_roots(p: Sequence[Scalar], max_width: Scalar = 1) -> list[RootInterval]:
    """Disjoint rational intervals, each holding exactly one distinct real
    root of p, every interval no wider than max_width, sorted by position.

    Interval endpoints are never roots.  Works on non-square-free input
    (each distinct root is isolated once).  A root inside a Descartes
    leaf keeps the leaf's interval, halved until it is narrow enough and
    neither end is a root.  A root r found exactly gets the interval
    (r - h, r + h], the widest with 2h <= max_width that reaches at most
    halfway to the next interval on either side.
    """
    f = _square_free(_primitive(p))
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    roots = sorted(
        _real_roots(f),
        key=lambda root: (root.bounds()[0], root.exact is None),
    )
    exact = {root.exact for root in roots if root.exact is not None}
    for root in roots:
        lo, hi = root.bounds()
        while root.exact is None and (
            hi - lo > max_width or lo in exact or hi in exact
        ):
            root.halve()
            lo, hi = root.bounds()
    intervals = []
    for i, root in enumerate(roots):
        lo, hi = root.bounds()
        if root.exact is not None:
            half = max_width / 2
            if i > 0:
                half = min(half, (lo - roots[i - 1].bounds()[1]) / 2)
            if i + 1 < len(roots):
                half = min(half, (roots[i + 1].bounds()[0] - hi) / 2)
            lo, hi = lo - half, hi + half
        intervals.append(RootInterval(lo, hi, 1))
    return intervals


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


def _certified_square_free(f: Sequence[int]) -> bool:
    """True when a modular certificate proves f square free.

    If gcd(f mod q, f' mod q) is constant for a prime q that divides
    neither leading coefficient, then the rational gcd is constant too.
    The implication only runs this direction, so False is inconclusive.
    """
    deg = len(f) - 1
    for prime in _SQFREE_PRIMES:
        if f[-1] % prime == 0 or (deg * f[-1]) % prime == 0:
            continue
        return _gf_gcd_degree(f, prime) == 0
    return False


def is_square_free(p: Sequence[Scalar]) -> bool:
    """Whether gcd(p, p') is constant, i.e. p has no repeated roots.

    The modular certificate decides when it is conclusive; otherwise the
    exact gcd does.
    """
    f = _primitive(p)
    return len(_square_free(f)) == len(f)


def square_free_part(p: Sequence[Scalar]) -> tuple[int, ...]:
    """p divided by gcd(p, p'): same roots, all simple, as primitive
    integer coefficients, constant term first, with the sign of p's
    leading coefficient."""
    return _square_free(_primitive(p))


def is_real_rooted(p: Sequence[Scalar]) -> bool:
    """Whether every complex root of p is real (counted without
    multiplicity, which loses nothing): p has as many distinct real roots
    as its square-free part has degree."""
    f = _square_free(_primitive(p))
    return len(_real_roots(f)) == len(f) - 1


def all_real_roots_negative(p: Sequence[Scalar]) -> bool:
    """True iff p has no real root in [0, +infinity).

    Complex roots are not constrained; combine with is_real_rooted when
    full negativity of the spectrum is the question.
    """
    f = _primitive(p)
    if f[0] == 0:
        return False
    return count_real_roots(f, lower=0, upper=None) == 0


def hurwitz_stable(p: Sequence[Scalar]) -> RouthVerdict:
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
    f = _primitive(p)
    if f[0] == 0:
        raise ValueError(
            "zero constant term: factor out the root at the origin before "
            "running the stability test"
        )
    if len(f) == 1:
        return RouthVerdict(stable=True, marginal=False, stage=None)
    desc = list(reversed(f))
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
