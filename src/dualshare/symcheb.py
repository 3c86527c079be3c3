"""The distinguisher polynomials p_w and their truncation bounds.

The exact-weight test Q_w on K observed bits symmetrises to a univariate
polynomial p_w of degree K in the coordinate t = 1 - 2h/n.  Its value at a
grid point is the hypergeometric probability

    p_w(1 - 2h/n) = C(K, w) C(n-K, h-w) / C(n, h),

it vanishes at the K grid points nearest the ends where that probability is
structurally zero, and it therefore factors as C_w * prod_{z in Z_w} (t - z).
The leading constant is recovered from a single nonzero grid value and then
*certified* against every grid point, which subsumes any closed form.

Truncating the Chebyshev expansion of p_w below index k gives the low-degree
approximant q_w; the sup-norm of the difference is certified by exact sign
decisions and compared against the explicit bound 4 sqrt(K) exp(-k^2/1156K).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from typing import Iterator

from . import certify, ratpoly
from .errors import InvalidInput, PropertyViolation


def hypergeom_row(n: int, K: int, w: int) -> tuple[Fraction, ...]:
    """Pr[exactly w ones among K fixed coordinates | total weight h] =
    C(K, w) C(n-K, h-w) / C(n, h) for h = 0..n, from the exact binomial
    recurrences C(m, j) = C(m, j - 1) (m - j + 1) / j."""
    if not 0 <= w <= K <= n:
        raise ValueError("need 0 <= w <= K <= n")
    lead = comb(K, w)
    row = []
    c_all, c_rest = 1, 0  # C(n, h) and C(n - K, h - w)
    for h in range(n + 1):
        if h == w:
            c_rest = 1
        elif h > w:
            c_rest = c_rest * (n - K - (h - 1 - w)) // (h - w)
        row.append(Fraction(lead * c_rest, c_all))
        c_all = c_all * (n - h) // (h + 1)
    return tuple(row)


def _certify_grid(p: ratpoly.RationalPoly, n: int, K: int, w: int) -> None:
    """Certify p(t_h) = Hyp(w | n, K, h) at every h = 0..n, t_h = (n - 2h)/n,
    from the K+1 points h = 0..K and deg p <= K; PropertyViolation otherwise.

    Hyp(w | n, K, h) = C(K,w) C(n-K,h-w) / C(n,h) = C(K,w) h^(w) (n-h)^(K-w)
    / n^(K) (x^(j) the falling factorial) is of degree K in h, and p(t_h) of
    degree deg p: two such polynomials that agree at h = 0..K agree on the
    whole grid, so a disagreement shows first at some h <= K.  For p =
    sum P_i t^i / D of degree d, p(t_h) = a/b iff b n^d P(t_h) = a D n^d.
    """
    nums, den = p._integer_form
    target, lead = den * n ** p.degree, comb(K, w)
    values = ratpoly._scaled_values(nums, (n - 2 * h for h in range(K + 1)), n)
    for h, v in enumerate(values):
        if v * comb(n, h) != (lead * comb(n - K, h - w) if h >= w else 0) * target:
            raise PropertyViolation(f"product form disagrees with the hypergeometric "
                                    f"value at h={h} (n={n}, K={K}, w={w})")
    if p.degree > K:
        raise PropertyViolation(f"product form has degree {p.degree} > K (n={n}, K={K}, w={w})")


class SymmetrizedTest:
    """p_w in product form: scale * prod (t - z), certified on the whole grid."""

    # "__dict__" holds the cached property
    __slots__ = ("n", "K", "w", "scale", "zeros", "poly", "__dict__")

    def __init__(self, n: int, K: int, w: int, scale: Fraction,
                 zeros: tuple[Fraction, ...], poly: ratpoly.RationalPoly):
        self.n = n
        self.K = K
        self.w = w
        self.scale = scale  # the constant C_w
        self.zeros = zeros
        self.poly = poly

    @cached_property
    def cheb(self) -> ratpoly.ChebyshevExpansion:
        """The Chebyshev expansion of p_w, computed once per test."""
        return ratpoly.cheb_transform_factored(self.zeros, self.scale)

    def generating_poly(self) -> ratpoly.RationalPoly:
        """The ordinary polynomial C_w prod (s^2 - 2 s z + 1)/2 of degree 2K.

        Its coefficient at index K + d is the Chebyshev coefficient c_d of
        p_w (it is s^K times the Laurent product behind the transform).
        """
        return ratpoly.generating_poly(self.zeros, self.scale)


def exact_weight_test(n: int, K: int, w: int) -> SymmetrizedTest:
    """Construct p_w from its zero set and certify it at every grid point."""
    ratpoly._check_grid_size(n)
    if not 0 <= w <= K <= n:
        raise ValueError("need 0 <= w <= K <= n")
    # t_h = (n - 2h)/n: p_w vanishes at -t_h for h < K - w and at t_h for h < w
    zeros = (tuple(Fraction(2 * h - n, n) for h in range(K - w))
             + tuple(Fraction(n - 2 * h, n) for h in range(w)))
    monic = ratpoly.RationalPoly.from_roots(zeros)
    # the hypergeometric value C(K,w)/C(n,w) at h = w is never zero
    denom = monic(Fraction(n - 2 * w, n))
    if denom == 0:
        raise PropertyViolation("anchor point collided with a zero of p_w")
    scale = Fraction(comb(K, w), comb(n, w)) / denom
    poly = scale * monic
    _certify_grid(poly, n, K, w)
    return SymmetrizedTest(n=n, K=K, w=w, scale=scale, zeros=zeros, poly=poly)


def reflection_check(test: SymmetrizedTest) -> bool:
    """Exact reflection identity p_w(t) = p_{K-w}(-t).

    Under t = 1 - 2h/n, complementing the string swaps w with K - w and sends
    t to -t; this is the reflection that holds exactly (the (1-t) variant does
    not, see the repository notes).  It is checked coefficientwise against
    the partner p_{K-w}, which ``exact_weight_test`` certifies on the full
    grid as it certified p_w.
    """
    partner = exact_weight_test(test.n, test.K, test.K - test.w)
    return test.poly == partner.poly.reflect()


# intervals of the dense grid on which ``bounded_check`` samples |p_w|
BOUNDED_GRID = 2048


def bounded_check(test: SymmetrizedTest) -> float:
    """Certify |p_w| <= 2 on [-1, 1]; returns the maximum of |p_w| over
    ``BOUNDED_GRID`` equal steps of [-1, 1] as a float.

    The grid maximum is a lower estimate; the certificate is the exact
    nonnegativity of 2 - p_w and 2 + p_w on [-1, 1].
    """
    if test.n < 64 * test.K:
        warnings.warn(
            f"n={test.n} < 64K={64 * test.K}: outside the guaranteed range, "
            "running the check anyway",
            stacklevel=2,
        )
    p = test.poly
    grid_max = max(
        abs(p.eval_float(-1.0 + 2.0 * i / BOUNDED_GRID)) for i in range(BOUNDED_GRID + 1)
    )
    if not certify.abs_bounded_on(p, 2, -1, 1):
        raise PropertyViolation(
            f"|p_w| exceeds 2 on [-1,1] for (n,K,w)=({test.n},{test.K},{test.w})"
        )
    return grid_max


def truncation_error_bound(K: int, k: int) -> float:
    """The explicit truncation bound 4 sqrt(K) exp(-k^2 / 1156K)."""
    return 4.0 * math.sqrt(K) * math.exp(-(k * k) / (1156.0 * K))


def truncated_approximant(
    test: SymmetrizedTest, k: int
) -> tuple[ratpoly.RationalPoly, float, float]:
    """Truncated approximant q_w plus (error bound, certified sup error).

    q_w keeps the Chebyshev indices |d| < k; the certified error is an exact
    upper bound on sup |p_w - q_w| over [-1, 1] and is asserted to be at most
    the explicit bound.
    """
    if test.n < 64 * test.K:
        warnings.warn(
            f"n={test.n} < 64K={64 * test.K}: the error bound is only "
            "guaranteed in range; certifying anyway",
            stacklevel=2,
        )
    expansion = test.cheb
    q = expansion.truncate(k)
    diff = test.poly - q
    bound = truncation_error_bound(test.K, k)
    if diff.is_zero():
        return q, bound, 0.0
    _, upper = certify.sup_norm_certified(diff, -1, 1)
    if upper > Fraction(bound):
        raise PropertyViolation(
            f"certified truncation error {float(upper)} exceeds the bound {bound} "
            f"for (n,K,w,k)=({test.n},{test.K},{test.w},{k})"
        )
    return q, bound, float(upper)


class AmplificationParams:
    """Amplification parameters: delta = eps^2 / (2 (1 + eps)) and the
    h-subscript delta' = delta (2 + delta) / (1 + delta)^2."""

    __slots__ = ("epsilon",)

    def __init__(self, epsilon):
        self.epsilon = Fraction(epsilon)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def delta(self) -> Fraction:
        e = self.epsilon
        return e * e / (2 * (1 + e))

    @property
    def h_subscript(self) -> Fraction:
        """delta', from the exact per-factor identity |(s^2 - 2sz + 1)/2|^2 =
        (1+eps)^2 ((cos theta - (1+delta) z)^2 + (1 - z^2)(2 delta + delta^2))
        at s = (1+eps) e^{i theta}, rescaled by (1+delta)^2; the (1+delta)-inflated
        subscript delta (1 + 1/(1+delta)) that is sometimes quoted fails (see the
        test suite)."""
        d = self.delta
        return d * (2 + d) / (1 + d) ** 2


def shifted_square(s, z, delta) -> Fraction:
    """(s - z)^2 + delta (1 - z^2)."""
    s, z, delta = Fraction(s), Fraction(z), Fraction(delta)
    return (s - z) ** 2 + delta * (1 - z * z)


def _eval_abs_squared_exact(g: ratpoly.RationalPoly, re, im) -> Fraction:
    """|g(re + i im)|^2 with float or rational input taken as an exact rational
    pair: over one common denominator L, z = (x + i y) / L, and for g = G / D
    of degree d, L^d G(z) is a Gaussian integer, summed by homogeneous Horner."""
    (x, x_den), (y, y_den) = re.as_integer_ratio(), im.as_integer_ratio()
    big_l = lcm(x_den, y_den)
    x, y = x * (big_l // x_den), y * (big_l // y_den)
    nums, den = g._integer_form
    acc_re, acc_im, l_pow = nums[-1], 0, 1
    for c in reversed(nums[:-1]):
        l_pow *= big_l
        acc_re, acc_im = acc_re * x - acc_im * y + c * l_pow, acc_re * y + acc_im * x
    return Fraction(acc_re * acc_re + acc_im * acc_im, (den * l_pow) ** 2)


def circle_identity_check(test: SymmetrizedTest, params: AmplificationParams) -> float:
    """Exact check of the amplified circle identity at every angle; returns its
    relative error, 0.0.

    Route A is |g((1+eps) e^{i theta})|^2 on the expanded polynomial
    g(s) = C_w prod (s^2 - 2zs + 1)/2; route B is the product formula
    (1+eps)^{2K} (1+delta)^{2K} C_w^2 prod h_{delta'}(cos theta / (1+delta), z),
    h_{delta'}(c, z) = (c - z)^2 + delta' (1 - z^2), delta' = ``h_subscript``.

    Lemma: both routes are polynomials of degree <= 2K in x = cos theta, so if
    they agree at 2K+1 distinct values of x they agree at every theta.  Route
    A is, because for deg g <= 2K and real coefficients
    |g(r e^{i theta})|^2 = sum_{|d| <= 2K} b_d cos(d theta) = sum b_d T_d(x);
    route B is a product of K quadratics in x.  The routes are compared in
    rationals at (cos, sin) = (1 - t^2, 2t) / (1 + t^2) for t = j/(2K+1),
    j = 0..2K: the cosines fall strictly as t rises in [0, 1), and
    sin^2 = 1 - cos^2 holds exactly, so each is a point of the circle.  The
    lemma's hypothesis deg g <= 2K is checked first (g and route B are built
    from the same zeros, so route B then has at most K factors); a failed
    check or a disagreement raises PropertyViolation.

    The domain, checked before any point: eps of at most 1024 bits over at
    most 1024 bits, and (1+eps)^{2K} (1+delta)^{2K} < 2^1024; InvalidInput
    naming --eps otherwise.
    """
    eps, delta, K = params.epsilon, params.delta, test.K
    if max(eps.numerator.bit_length(), eps.denominator.bit_length()) > 1024:
        raise InvalidInput("--eps needs a numerator and a denominator of at most 1024 bits "
                           "for the circle check")
    ampl = ((1 + eps) * (1 + delta)) ** (2 * K)  # the prefactor (1+eps)^2K (1+delta)^2K
    if ampl >= 2 ** 1024:
        raise InvalidInput("--eps is too large for the circle check: "
                           "(1+eps)^2K (1+delta)^2K reaches 2^1024")
    g = test.generating_poly()
    if g.degree > 2 * K:
        raise PropertyViolation(f"generating polynomial has degree {g.degree} > 2K={2 * K}")
    prefactor = ampl * test.scale ** 2
    # route B on integers: 1 + delta = a/b, delta' = dn/dd, z = zn/zd, and at
    # cos = u/v each factor h is H / (dd (a v zd)^2) with
    # H = dd (b u zd - a v zn)^2 + dn (a v)^2 (zd^2 - zn^2)
    a, b = delta.numerator + delta.denominator, delta.denominator
    dn, dd = params.h_subscript.as_integer_ratio()
    zns, zd = ratpoly._over_lcm(test.zeros)
    r, m = 1 + eps, 2 * K + 1
    for j in range(m):
        u, v = m * m - j * j, m * m + j * j
        lhs = _eval_abs_squared_exact(g, r * u / v, r * (2 * j * m) / v)
        bu, av = b * u * zd, a * v
        rhs = prefactor.numerator
        for zn in zns:
            rhs *= dd * (bu - av * zn) ** 2 + dn * av * av * (zd * zd - zn * zn)
        rhs_den = prefactor.denominator * (dd * (av * zd) ** 2) ** len(zns)
        if lhs.numerator * rhs_den != rhs * lhs.denominator:
            raise PropertyViolation(f"circle identity fails exactly at cos theta={u}/{v}")
    return 0.0


_EXP_TERMS = 200  # series terms after which shifted_product_check calls the cap undecided


def _exp_brackets(x: Fraction) -> Iterator[tuple[Fraction, Fraction | None]]:
    """Rational brackets (low, high) of e^x for x >= 0, one per series term
    from the 12th to the _EXP_TERMS-th, each at least as tight as the last.
    low is the series to x^i/i!; high adds the tail bound
    x^{i+1}/(i+1)! * (i+2)/(i+2-x), and is None while i + 2 <= x, where that
    bound does not hold."""
    low = term = Fraction(1)
    for i in range(1, _EXP_TERMS + 1):
        term = term * x / i
        low += term
        if i >= 12:
            yield low, low + term * x / (i + 1) * (i + 2) / (i + 2 - x) if i + 2 > x else None


def shifted_product_check(test: SymmetrizedTest, delta, grid) -> bool:
    """Grid check of C_w^2 prod shifted_square(s, z) <= e^{65 delta K} * cap(s).

    cap(s) is p_w(|s|)^2 for |s| <= 1 - w/16K and 1 beyond; requires
    w <= K/2.  The negative half-line is always reduced to |s| (the product
    only grows under s -> |s| for these zero sets), since the raw p_w(s)^2
    version fails near negative zeros where the delta (1 - z^2) floor keeps
    the product positive while p_w vanishes.  Left-hand sides are exact
    rationals, and so is the largest ratio lhs / cap over the grid; rational
    brackets of the exponential are refined until they decide that one ratio,
    and if _EXP_TERMS series terms leave it undecided, PropertyViolation is
    raised.  A negative delta is invalid input.
    """
    if 2 * test.w > test.K:
        raise ValueError("claim applies for w <= K/2")
    delta = Fraction(delta)
    if delta < 0:
        # the series brackets bound e^x only for x >= 0
        raise InvalidInput(f"the shift delta must be nonnegative, got {delta}")
    if test.n < 64 * test.K:
        warnings.warn("n < 64K: outside the guaranteed range", stacklevel=2)
    K, w = test.K, test.w
    cut = 1 - Fraction(w, 16 * K) if w else Fraction(1)
    cw2 = test.scale * test.scale
    worst = Fraction(0)  # the largest lhs / cap over the points where cap > 0
    for s in grid:
        s = Fraction(s)
        if abs(s) > 1:
            raise ValueError("grid must lie in [-1, 1]")
        lhs = cw2
        for z in test.zeros:
            lhs *= shifted_square(s, z, delta)
        cap = test.poly(abs(s)) ** 2 if abs(s) <= cut else Fraction(1)
        if cap:
            worst = max(worst, lhs / cap)
        elif lhs > 0:  # no factor e^x makes 0 cover it
            return False
    for low, high in _exp_brackets(65 * delta * K):
        if worst <= low:
            return True
        if high is not None and worst > high:
            return False
    raise PropertyViolation(f"shifted-product cap undecided after {_EXP_TERMS} terms "
                            "of the exponential series")


def indistinguishability_bound_holds(dist: Fraction, k: int, K: int) -> bool:
    """Whether dist <= (K+1) * 8 sqrt(K) * exp(-k^2/1156K), decided exactly.

    Both sides are nonnegative, so squaring clears sqrt(K): the claim is
    dist^2 e^{k^2/578K} <= 64 K (K+1)^2, decided against rational brackets
    of the exponential, refined until they decide; PropertyViolation
    ("undecided") if _EXP_TERMS series terms leave it open.
    """
    if k < 1 or K < 1:
        raise ValueError("need positive k and K")
    lhs, cap = Fraction(dist) ** 2, 64 * K * (K + 1) ** 2
    if not lhs:
        return True
    for low, high in _exp_brackets(Fraction(k * k, 578 * K)):
        if lhs * low > cap:
            return False
        if high is not None and lhs * high <= cap:
            return True
    raise PropertyViolation(f"projected-distance bound undecided after {_EXP_TERMS} terms "
                            "of the exponential series")


def indistinguishability_bound(k: int, K: int) -> float:
    """Explicit proof-level constant (K+1) * 8 sqrt(K) * exp(-k^2/1156K).

    The K-bit distinguisher decomposes into at most K+1 exact-weight tests,
    each contributing 8 sqrt(K) exp(-k^2/1156K) of advantage.  The guarantee
    is stated for 1 <= k < K <= n/64; the formula itself is evaluated for any
    positive k, K (downstream consolidation plugs in k >= K).
    """
    if k < 1 or K < 1:
        raise ValueError("need positive k and K")
    return (K + 1) * 8.0 * math.sqrt(K) * math.exp(-(k * k) / (1156.0 * K))
