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

The bisection runs in the Bernstein basis (Mourrain, Rouillier and Roy,
"The Bernstein basis and real root isolation", 2005).  Those
coefficients are the ones above up to positive binomials, so V counts
their sign changes.  One Taylor shift per side converts them, and each
halving is then one de Casteljau triangle of pairwise integer sums,
whose two edges are both halves.  A root at the midpoint shows as a
zero apex.

The bisection counts only what its answer needs.  Descartes counts are
subadditive (Eigenwillig, Sharma and Yap, ISSAC 2006): the two halves of
a piece, and a root at its midpoint, count at most V together.  So a
right half is counted only when the left half and the midpoint leave it
room for two roots or more; room for one means one root, by parity, and
room for none means none.  is_real_rooted stops, with False, as soon as
the roots found and the counts still open cannot reach the degree.  A
`roots` job asks several questions of one polynomial and bisects each
side of it once for all of them.  A count halves a root's piece, in
exact dyadic integers, only where an endpoint cuts it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb, lcm
from operator import add, or_

from .exactnum import (
    poly_gcd,
    prem_signed,
    primitive_int_coeffs,
    primitive_part,
    shift_by_one,
)
from .plain import Frozen

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only
    from collections.abc import Sequence
    from fractions import Fraction

    from .exactnum import Scalar


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
    wraps build and variations_at by name.

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
    def build(cls, p: Sequence[Scalar]) -> SturmChain:
        """The chain of p, given by its coefficients, constant term first."""
        f = _primitive(p)
        if len(f) == 1:
            return cls((f,))
        fp = [k * c for k, c in enumerate(f)][1:]
        chain = [f, primitive_part(fp)]
        while True:
            r = primitive_part(prem_signed(chain[-2], chain[-1]))
            if not r:
                break
            chain.append([-c for c in r])
        return cls(tuple(tuple(c) for c in chain))

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


def _sign_at(f: Sequence[int], a: int, b: int) -> int:
    """Sign of the integer polynomial f at x = a/b, b > 0.

    Evaluated as the homogeneous sum f_0 b^d + f_1 a b^(d-1) + ... +
    f_d a^d, which is b^d f(x) and so has its sign.
    """
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


def _bernstein(g: Sequence[int]) -> list[int]:
    """Primitive integer Bernstein coefficients of g on [0, 1], or [] when
    g has no sign variation, and so no positive root.

    Write g(t) = sum_i beta_i C(d, i) t^i (1 - t)^(d - i).  At
    t = 1 / (u + 1), t^i (1 - t)^(d - i) = u^(d - i) / (u + 1)^d, so the
    Taylor shift (u + 1)^d g(1 / (u + 1)) has the coefficient
    beta_i C(d, i) at u^(d - i).  Times the lcm of the binomials and
    divided by the content, the beta_i are integers with unchanged signs.
    """
    if _sign_changes(g) == 0:
        return []
    d = len(g) - 1
    binomials = [comb(d, i) for i in range(d + 1)]
    scale = lcm(*binomials)
    weighted = shift_by_one(reversed(g))[::-1]  # beta_i C(d, i)
    return primitive_part(w * (scale // c) for w, c in zip(weighted, binomials))


def _split(b: list[int]) -> tuple[list[int], list[int]]:
    """De Casteljau's subdivision of b at 1/2: the Bernstein coefficients
    of the polynomial on [0, 1/2] and on [1/2, 1], each taken onto
    [0, 1], both times 2^d.

    Row r of the triangle holds pairwise sums of row r - 1, so 2^r times
    the averages de Casteljau takes.  The first entry of row r is the left
    half's coefficient r, the last the right half's coefficient d - r, and
    row d is one entry, 2^d times the value at 1/2.
    """
    d = len(b) - 1
    row, left, right = b, [b[0]], [b[-1]]
    for _ in range(d):
        row = list(map(add, row, row[1:]))
        left.append(row[0])
        right.append(row[-1])
    right.reverse()
    return [a << (d - r) for r, a in enumerate(left)], [a << r for r, a in enumerate(right)]


def _deflate(b: list[int], at_one: bool) -> list[int]:
    """The polynomial of b divided by 1 - t (at_one) or by t, where it
    vanishes, in Bernstein coefficients of degree d - 1.

    (1 - t) B^(d-1)_i = (d - i) / d B^d_i and t B^(d-1)_i = (i + 1) / d
    B^d_(i+1), so the quotient's coefficients are b_i d / (d - i), or
    b_(i+1) d / (i + 1).  Times lcm(1, ..., d) / d they are integers.
    """
    d = len(b) - 1
    scale = lcm(*range(1, d + 1))
    if at_one:
        return primitive_part(a * (scale // (d - i)) for i, a in enumerate(b[:-1]))
    return primitive_part(a * (scale // (i + 1)) for i, a in enumerate(b[1:]))


def _without_twos(b: list[int]) -> list[int]:
    """b divided by the largest power of two dividing every entry."""
    bits = reduce(or_, b)
    twos = (bits & -bits).bit_length() - 1
    return [a >> twos for a in b] if twos else b


def _unit_roots(
    g: list[int], b: list[int], least: int = 0
) -> list[tuple[int, int, list[int] | None]] | None:
    """The roots of g in (0, 1); g square free and nonzero at 0 and 1, and
    b its Bernstein coefficients (_bernstein).  None, as soon as that is
    proven, when fewer than `least` roots are in (0, 1).

    Each root is (c, k, q).  When q is None the root is c / 2^k.
    Otherwise it is the only root in the open interval
    (c / 2^k, (c + 1) / 2^k), and q holds Bernstein coefficients on [0, 1]
    of g((c + t) / 2^k) times a nonzero factor without roots in that
    interval.  q is nonzero at both ends, because every root found at a
    halving point is divided out of both halves.

    Every count is V, the number of sign changes of a node's Bernstein
    coefficients, which is Descartes' bound for its interval: the
    transform (u + 1)^d q(1 / (u + 1)) has those coefficients times
    positive binomials (_bernstein).

    Not every half is tested.  Split a node q with count V into
    l(t) = q(t / 2) and r(t) = q((t + 1) / 2), and write [m] for 1 when
    q(1/2) = 0, else 0.  Then V(l) + V(r) + [m] <= V.  De Casteljau's
    subdivision at 1/2 gives the Bernstein coefficients of l and r as
    averages of q's (_split), and that map diminishes variations: the
    coefficients of l, then those of r, which share the value q(1/2),
    change sign at most V times.  When q(1/2) = 0 that shared value is 0
    and the root is simple, so its neighbours in the joined sequence have
    the signs of -q'(1/2) and q'(1/2), opposite ones, and the joined
    sequence has V(l) + V(r) + 1 changes.  Dividing 1 - t out of l, or t
    out of r, multiplies each Bernstein coefficient by a positive number
    and drops the zero at that end (_deflate), so their counts do not
    change.  So V(r) <= room = V - V(l) - [m].  Each count also has the
    parity of the roots it bounds (Descartes' rule), and q's roots in
    (0, 1) are l's, r's and the midpoint, so V(r) and room have the same
    parity.  Hence:
      * room = 0: V(r) = 0, and r is dropped;
      * room = 1: V(r) = 1, and r is a leaf, without a count;
      * room >= 2: r's sign changes are counted.
    Every leaf, and the order of the leaves, is what counting every half
    gives.

    The sum of the counts of the nodes still open, plus the roots found,
    bounds the roots not yet ruled out, since each count bounds the roots
    in its interval (Descartes' rule).  A split changes that sum by
    V(l) + V(r) + [m] - V <= 0, so it never rises, and once it is below
    `least`, fewer than `least` roots are in (0, 1).

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
    v = _sign_changes(b)
    found: list[tuple[int, int, list[int] | None]] = []
    todo = [(0, 0, b, v)] if v else []  # nodes with a count of at least 1
    bound = v  # len(found) + the counts in todo
    while todo:
        if bound < least:
            return None
        c, k, q, v = todo.pop()
        if v == 1:
            found.append((c, k, q))
            continue
        if k >= limit:
            raise AssertionError(
                f"{v} sign variations at bisection depth {k}, past the "
                "root separation bound: the polynomial is not square free"
            )
        left, right = _split(q)
        c, k = 2 * c, k + 1
        mid = right[0] == 0  # q(1/2) = 0
        if mid:
            found.append((c + 1, k, None))
            left, right = _deflate(left, True), _deflate(right, False)
        v_left = _sign_changes(left)
        v_right = v - v_left - mid  # the room, which is V(right) if below 2
        if v_right >= 2:
            v_right = _sign_changes(right)
        bound += mid + v_left + v_right - v
        if v_right:
            todo.append((c + 1, k, _without_twos(right), v_right))
        if v_left:
            todo.append((c, k, _without_twos(left), v_left))
    return found if bound >= least else None


class _Root:
    """One real root of f, on the side x = side 2^bound t, t in (0, 1).

    In t the root is a / 2^j exactly, when q is None, or else the only
    root in (a / 2^j, (a + 1) / 2^j), inside the Descartes leaf (c, k).
    q holds the leaf's Bernstein coefficients on (c / 2^k, (c + 1) / 2^k):
    it is nonzero at both ends and has one simple root between, so below
    that root it has the sign of q[0] and above it the other sign.
    halve() keeps the half that holds the root, by the sign at the
    midpoint.
    """

    __slots__ = ("side", "bound", "c", "k", "q", "weighted", "a", "j")

    def __init__(self, side: int, bound: int, c: int, k: int, q: Sequence[int] | None):
        assert q is None or (q[0] and q[-1]), "a leaf polynomial vanishes at an end"
        self.side, self.bound = side, bound
        self.c, self.k, self.q = c, k, q
        self.weighted = None  # q_l C(d, l), once the leaf is halved
        self.a, self.j = c, k

    @property
    def exact(self) -> bool:
        return self.q is None

    def _x(self, a: int) -> Fraction:
        from fractions import Fraction

        e = self.bound - self.j
        x = Fraction(a << e) if e >= 0 else Fraction(a, 1 << -e)
        return x if self.side > 0 else -x

    def point(self, a: int) -> tuple[int, int]:
        """x at t = a / 2^j as (m, e), x = m 2^e with m odd, or (0, 0) for
        x = 0: one pair for each dyadic number, whatever its depth."""
        if not a:
            return 0, 0
        z = (a & -a).bit_length() - 1
        return self.side * (a >> z), self.bound - self.j + z

    def bounds(self) -> tuple[Fraction, Fraction]:
        """The interval in x, lower end first; a point for an exact root."""
        lo = self._x(self.a)
        if self.q is None:
            return lo, lo
        hi = self._x(self.a + 1)
        return (lo, hi) if self.side > 0 else (hi, lo)

    def halve(self) -> None:
        """Keep the half that holds the root.  At the midpoint, u = m / 2^i
        in the leaf's own variable, 2^(i d) times q's value is the sum of
        q_l C(d, l) m^l (2^i - m)^(d - l), which _sign_at evaluates."""
        q = self.q
        if self.weighted is None:
            d = len(q) - 1
            self.weighted = [a * comb(d, l) for l, a in enumerate(q)]
        i = self.j + 1 - self.k  # the midpoint is (c + m / 2^i) / 2^k
        m = 2 * self.a + 1 - (self.c << i)
        sign = _sign_at(self.weighted, m, (1 << i) - m)
        above = not sign or (sign > 0) == (q[0] > 0)
        self.a, self.j = 2 * self.a + above, self.j + 1
        if not sign:
            self.q = None

    def inside(self, num: int, den: int) -> bool:
        """Whether num / den, den > 0, lies strictly inside the interval."""
        if self.q is None:
            return False
        at = num << self.j
        return self.a * den < at < (self.a + 1) * den

    def within(self, lower: tuple[int, int] | None, upper: tuple[int, int] | None) -> bool:
        """Whether the interval lies in [lower, upper], given in t as
        (num, den) with den > 0, or None for no bound."""
        top = self.a + (self.q is not None)
        return (lower is None or lower[0] << self.j <= self.a * lower[1]) and (
            upper is None or top * upper[1] <= upper[0] << self.j
        )


def _unit_poly(f: Sequence[int], side: int) -> list[int]:
    """The positive roots of f(side * x), scaled onto (0, 1); f(0) != 0.

    With 2^B a bound on them, the scaled polynomial 2^(Bd) f(side 2^B t)
    or 2^(-Bd) f(side 2^B t) has integer coefficients and the same roots
    in (0, 1), and is nonzero at t = 0 and t = 1.
    """
    bound = _root_bound_exponent(f)
    d = len(f) - 1
    h = [c if side > 0 or i % 2 == 0 else -c for i, c in enumerate(f)]
    if bound >= 0:
        return [c << (bound * i) for i, c in enumerate(h)]
    return [c << (-bound * (d - i)) for i, c in enumerate(h)]


@lru_cache(maxsize=1)
def _sides(f: tuple[int, ...]) -> tuple[int, tuple, tuple]:
    """The bound exponent B of f, f(0) != 0, then for each side, negative
    first, the roots (c, k, q) of _unit_roots for _unit_poly(f, side).

    The last answer is kept.  A `roots` job asks about one polynomial in
    count_real_roots, all_real_roots_negative and isolate_real_roots, and
    so bisects each side once.  The leaves are immutable; _real_roots
    builds fresh _Root objects from them on every call, because halve()
    changes those.
    """
    return _root_bound_exponent(f), *(
        tuple((c, k, None if q is None else tuple(q)) for c, k, q in _unit_roots(g, _bernstein(g)))
        for g in (_unit_poly(f, -1), _unit_poly(f, 1))
    )


def _real_roots(f: Sequence[int]) -> list[_Root]:
    """The real roots of the square-free integer polynomial f: zero if it
    is a root, then the negative ones, then the positive ones.

    A side's roots are the positive roots of f(x) or f(-x), found in
    (0, 1) after scaling by 2^B (_unit_poly).
    """
    roots = []
    if f[0] == 0:
        roots.append(_Root(1, 0, 0, 0, None))  # exactly 0
        f = f[1:]
    if len(f) < 2:
        return roots
    bound, *sides = _sides(tuple(f))
    for side, leaves in zip((-1, 1), sides):
        roots.extend(_Root(side, bound, c, k, q) for c, k, q in leaves)
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
    does not; the ends are dyadic and are compared with the endpoints in
    integers.
    """
    f = _square_free(_primitive(p))
    lower, upper = _exact(lower), _exact(upper)
    if lower is not None and upper is not None and lower >= upper:
        raise ValueError("interval must satisfy lower < upper")
    for endpoint in (lower, upper):
        if endpoint is not None and not _sign_at(f, endpoint.numerator, endpoint.denominator):
            raise RootAtEndpointError(
                f"{endpoint} is a root of the polynomial; interval endpoints "
                "must not be roots - shift the endpoint by a small exact rational"
            )
    count = 0
    for root in _real_roots(f):
        # x = side 2^bound t; the endpoints in t, lower first
        ends = [None if e is None else _in_unit(e, root.side, root.bound) for e in (lower, upper)]
        low, high = ends if root.side > 0 else ends[::-1]
        while any(e is not None and root.inside(*e) for e in (low, high)):
            root.halve()
        count += root.within(low, high)
    return count


def _exact(x: Scalar | None) -> int | Fraction | None:
    """x as an int or a Fraction (None stays None): an int as it is, so
    that a count between integers loads no fractions."""
    if x is None or type(x) is int:
        return x
    from fractions import Fraction

    return Fraction(x)


def _in_unit(x: int | Fraction, side: int, bound: int) -> tuple[int, int]:
    """x / (side 2^bound) as (num, den) with den > 0."""
    num, den = side * x.numerator, x.denominator
    return (num, den << bound) if bound >= 0 else (num << -bound, den)


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
    from fractions import Fraction

    f = _square_free(_primitive(p))
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    # a leaf, 2^(bound - j) wide, is narrow enough when bound - j <= top,
    # for 2^top <= max_width < 2^(top + 1)
    top = max_width.numerator.bit_length() - max_width.denominator.bit_length()
    if Fraction(2) ** top > max_width:
        top -= 1
    roots = _real_roots(f)
    # sorted by lower end, an exact root before a leaf that starts at it;
    # every end is a multiple of 2^(bound - depth) (0 for the root at 0)
    depth = max((root.j for root in roots), default=0)
    roots.sort(key=lambda root: (
        root.side * (root.a + (root.side < 0 and not root.exact)) << (depth - root.j),
        not root.exact,
    ))
    exact = {root.point(root.a) for root in roots if root.exact}
    for root in roots:
        while not root.exact and (
            root.bound - root.j > top
            or root.point(root.a) in exact
            or root.point(root.a + 1) in exact
        ):
            root.halve()
    ends = [root.bounds() for root in roots]
    intervals = []
    for i, (lo, hi) in enumerate(ends):
        if roots[i].exact:
            half = max_width / 2
            if i > 0:
                half = min(half, (lo - ends[i - 1][1]) / 2)
            if i + 1 < len(roots):
                half = min(half, (ends[i + 1][0] - hi) / 2)
            lo, hi = lo - half, hi + half
        intervals.append(RootInterval(lo, hi, 1))
    return intervals


# The three largest primes below 2^31 for the one-sided square-freeness
# certificate: residues and their products stay machine words, and the
# first alone decides every P_n numerator for n <= 150.
_SQFREE_PRIMES = (2**31 - 1, 2147483629, 2147483587)


def _gf_gcd_degree(f: Sequence[int], prime: int) -> int:
    """Degree of gcd(f, f') over GF(prime); caller checks leading terms."""
    a = [c % prime for c in f]
    b = [(k * c) % prime for k, c in enumerate(f)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        # reduce a mod b in place
        inv = pow(b[-1], -1, prime)
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
    as its square-free part has degree.

    False is returned as soon as it is proven.  As it bisects a side,
    _unit_roots keeps a bound on that side's roots: the roots found plus
    the Descartes counts of the intervals still open.  The other side's
    roots are bounded by its count while the negative side is bisected,
    and are known when the positive side is.  Once the two, and 0 if it
    is a root, fall below the degree of the square-free part, some root
    is not real.  True needs both sides bisected to the end.
    """
    f = _square_free(_primitive(p))
    if f[0] == 0:
        f = f[1:]
    need = len(f) - 1  # the nonzero roots, each simple
    if need < 1:
        return True
    negative, positive = _unit_poly(f, -1), _unit_poly(f, 1)
    b_negative, b_positive = _bernstein(negative), _bernstein(positive)
    found = _unit_roots(negative, b_negative, least=need - _sign_changes(b_positive))
    if found is None:
        return False
    return _unit_roots(positive, b_positive, least=need - len(found)) is not None


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
