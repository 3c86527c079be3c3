"""Exact sign decisions (Sturm sequences) and certified sup norms.

Every decision runs on integers: a polynomial enters as its numerators over
one positive denominator, its Sturm chain is the primitive pseudo-remainder
sequence (Collins 1967), each remainder scaled by the positive
|lc|^(delta+1) so no sign changes, and a sign at a rational a/b is read by
homogeneous Horner; the products, the evaluation and the integer form are
``ratpoly``'s integer kernel.  Floating point only appears in the convenience
estimates returned alongside the certified bounds.  The central primitive
is ``poly_nonneg_on``: an exact decision procedure for ``p(t) >= 0 for all t
in [lo, hi]``.  ``abs_bounded_on`` decides |p| <= B as the pair B - p >= 0
and B + p >= 0, both of the degree of p (the equivalent B^2 - p^2 >= 0 has
twice that degree), and sup-norm certification is bisection on B over that
decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import ratpoly
from .errors import PropertyViolation


def _primitive(cs: list[int]) -> list[int]:
    """Divide by the content, which is positive, so every sign stays."""
    g = gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _derivative(cs: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(cs) if i]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of |lc(b)|^(deg a - deg b + 1) a by b, a positive
    multiple of the rational remainder of a by b."""
    rem, scale, sign = list(a), abs(b[-1]), 1 if b[-1] > 0 else -1
    for shift in range(len(a) - len(b), -1, -1):
        # |lc(b)| rem - sign(lc(b)) top t^shift b cancels the top coefficient
        top = sign * rem.pop()
        rem = [scale * c for c in rem]
        for i, c in enumerate(b[:-1]):
            rem[shift + i] -= top * c
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """The quotient a / b, which must be an integer polynomial with no remainder."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quo) - 1, -1, -1):
        # an inexact step leaves its top coefficient nonzero
        quo[shift] = q = rem[shift + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
    if any(rem):
        raise PropertyViolation("integer polynomial division left a remainder")
    return quo


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, by the primitive pseudo-remainder sequence."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return _primitive(a)


def _odd_part(p: list[int]) -> list[int]:
    """Squarefree product of the factors of odd multiplicity in the primitive
    ``p`` (up to a positive constant), from the gcd chain p_0 = p, p_{k+1} =
    gcd(p_k, p_k'): the quotient s_k = p_k / p_{k+1} collects the factors of
    multiplicity above k, so s_0 s_2 ... / (s_1 s_3 ...) keeps each factor to
    its multiplicity mod 2 (Yun's square-free decomposition).  Every
    quotient is of primitive integer polynomials, so by Gauss's lemma it is
    exact in integers."""
    num, den, k = [1], [1], 0
    while len(p) > 1:
        nxt = _gcd(p, _derivative(p))
        s = _exact_quo(p, nxt)
        if k % 2:
            den = ratpoly._mul(den, s)
        else:
            num = ratpoly._mul(num, s)
        p, k = nxt, k + 1
    return _primitive(_exact_quo(num, den))


def _grid(lo: Fraction, hi: Fraction, steps: int) -> tuple[list[int], int]:
    """The points lo + (hi - lo) j / steps, j = 0..steps, as integer
    numerators over one positive denominator."""
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    den = lo.denominator * hi.denominator * steps
    return [a * (steps - j) + b * j for j in range(steps + 1)], den


def sturm_chain(q: ratpoly.RationalPoly) -> list[list[int]]:
    """Sturm chain of a squarefree polynomial, as primitive integer
    coefficient lists: q, q', then the negated primitive pseudo-remainders."""
    chain = [_primitive(list(q._integer_form[0]))]
    chain.append(_primitive(_derivative(chain[0])))
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _prem(chain[-2], chain[-1])]))
    if not chain[-1]:
        chain.pop()
    return chain


def _sign_changes(chain: list[list[int]], x: Fraction) -> int:
    signs = [v > 0 for f in chain
             for v in ratpoly._scaled_values(f, (x.numerator,), x.denominator) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_roots_open(chain: list[list[int]], a: Fraction, b: Fraction) -> int:
    """Distinct roots in (a, b); requires chain[0](a) != 0 != chain[0](b)."""
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def poly_nonneg_on(p: ratpoly.RationalPoly, lo, hi) -> bool:
    """Exact decision of ``p(t) >= 0`` for every t in [lo, hi].

    p changes sign only at its roots of odd multiplicity, so it has one sign
    on (lo, hi) exactly when the odd part o has no root there, which one
    Sturm count decides; that sign is read at the first of deg p + 1
    interior points where p is nonzero.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    nums = list(p._integer_form[0])
    o = _odd_part(_primitive(nums))
    for r in (lo, hi):
        if not any(ratpoly._scaled_values(o, (r.numerator,), r.denominator)):
            o = _primitive(_exact_quo(o, [-r.numerator, r.denominator]))
    if count_roots_open(sturm_chain(ratpoly.RationalPoly.from_coeffs(o)), lo, hi):
        return False
    xs, den = _grid(lo, hi, p.degree + 2)
    for v in ratpoly._scaled_values(nums, xs[1:-1], den):
        if v:
            return v > 0
    return True  # p = 0, or lo == hi and p(lo) = 0


def abs_bounded_on(p: ratpoly.RationalPoly, bound, lo, hi) -> bool:
    """Exact decision of ``|p(t)| <= bound`` for every t in [lo, hi], bound >= 0."""
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("the bound on |p| must be nonnegative")
    b = ratpoly.RationalPoly.of(bound)
    return poly_nonneg_on(b - p, lo, hi) and poly_nonneg_on(b + p, lo, hi)


_SUP_GRID = 256  # grid steps of the attained maximum
_SUP_REL_TOL = Fraction(1, 1 << 20)  # relative width of the certified enclosure


def sup_norm_certified(p: ratpoly.RationalPoly, lo=-1, hi=1) -> tuple[Fraction, Fraction]:
    """Certified enclosure [attained, upper] of sup |p| on [lo, hi].

    ``attained`` is the exact maximum of |p| over a rational grid of
    _SUP_GRID steps (a lower bound on the sup); ``upper`` satisfies
    |p| <= upper on the whole interval, proved by the nonnegativity of
    upper - p and upper + p, with upper <= sup * (1 + _SUP_REL_TOL) + tiny.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if p.is_zero():
        return Fraction(0), Fraction(0)

    def certifies(bound: Fraction) -> bool:
        return abs_bounded_on(p, bound, lo, hi)

    # over the grid's one denominator c, every value of p = P / D is an
    # integer over D c^deg p
    nums, den = p._integer_form
    xs, c = _grid(lo, hi, _SUP_GRID)
    values = ratpoly._scaled_values(nums, xs, c)
    attained = Fraction(max(map(abs, values)), den * c ** p.degree)
    if certifies(attained):
        return attained, attained
    # grow until certified, then bisect back down
    step = max(attained, Fraction(1)) * _SUP_REL_TOL
    high = attained + step
    while not certifies(high):
        step *= 2
        high += step
    low = high - step  # known not to certify (or the grid value)
    while high - low > _SUP_REL_TOL * high:
        mid = ((low + high) / 2).limit_denominator(1 << 48)  # keeps the Sturm inputs short
        if not (low < mid < high):
            mid = (low + high) / 2
        if certifies(mid):
            high = mid
        else:
            low = mid
    return attained, high
