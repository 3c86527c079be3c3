"""Exact sign decisions (Sturm sequences) and certified sup norms.

Everything here is rational arithmetic; floating point only appears in the
convenience estimates returned alongside the certified bounds.  The central
primitive is ``poly_nonneg_on``: an exact decision procedure for
``p(t) >= 0 for all t in [lo, hi]``.  ``abs_bounded_on`` decides |p| <= B as
the pair B - p >= 0 and B + p >= 0, both of the degree of p (the equivalent
B^2 - p^2 >= 0 has twice that degree), and sup-norm certification is
bisection on B over that decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .ratpoly import RationalPoly


def _primitive(p: RationalPoly) -> RationalPoly:
    """Scale by a positive rational so coefficients are coprime integers."""
    if p.is_zero():
        return p
    nums, _ = p._integer_form
    g = gcd(*nums)
    return RationalPoly.from_coeffs(v // g for v in nums)


def poly_divmod(a: RationalPoly, b: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    db, lead = b.degree, b.coeffs[-1]
    while len(rem) - 1 >= db and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        shift = len(rem) - 1 - db
        q = rem[-1] / lead
        quo[shift] = q
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= q * c
        rem.pop()
    return RationalPoly.from_coeffs(quo), RationalPoly.from_coeffs(rem)


def poly_gcd(a: RationalPoly, b: RationalPoly) -> RationalPoly:
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
        b = _primitive(b)
    return _primitive(a)


def _odd_part(p: RationalPoly) -> RationalPoly:
    """Squarefree product of the factors of odd multiplicity in ``p`` (up to a
    constant), from the gcd chain p_0 = p, p_{k+1} = gcd(p_k, p_k'): the
    quotient s_k = p_k / p_{k+1} collects the factors of multiplicity above
    k, so s_0 s_2 ... / (s_1 s_3 ...) keeps each factor to its multiplicity
    mod 2 (Yun's square-free decomposition)."""
    num = den = RationalPoly.of(1)
    k = 0
    while p.degree > 0:
        nxt = poly_gcd(p, p.derivative())
        s = poly_divmod(p, nxt)[0]
        if k % 2:
            den = den * s
        else:
            num = num * s
        p, k = nxt, k + 1
    return _primitive(poly_divmod(num, den)[0])


def sturm_chain(q: RationalPoly) -> list[RationalPoly]:
    """Sturm chain of a squarefree polynomial (primitive-part normalised)."""
    chain = [q, _primitive(q.derivative())]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        chain.append(_primitive(-rem))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _sign_changes(chain: list[RationalPoly], x: Fraction) -> int:
    prev, count = 0, 0
    for f in chain:
        v = f(x)
        s = (v > 0) - (v < 0)
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count


def count_roots_open(chain: list[RationalPoly], a: Fraction, b: Fraction) -> int:
    """Distinct roots in (a, b); requires chain[0](a) != 0 != chain[0](b)."""
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def poly_nonneg_on(p: RationalPoly, lo, hi) -> bool:
    """Exact decision of ``p(t) >= 0`` for every t in [lo, hi].

    p changes sign only at its roots of odd multiplicity, so it has one sign
    on (lo, hi) exactly when the odd part o has no root there, which one
    Sturm count decides; that sign is read at the first of deg p + 1
    interior points where p is nonzero.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    o = _odd_part(p)
    for r in (lo, hi):
        if o(r) == 0:
            o = _primitive(poly_divmod(o, RationalPoly.of(-r, 1))[0])
    if count_roots_open(sturm_chain(o), lo, hi):
        return False
    steps = p.degree + 2
    for j in range(1, steps):
        v = p(lo + (hi - lo) * Fraction(j, steps))
        if v:
            return v > 0
    return True  # p = 0, or lo == hi and p(lo) = 0


def abs_bounded_on(p: RationalPoly, bound, lo, hi) -> bool:
    """Exact decision of ``|p(t)| <= bound`` for every t in [lo, hi], bound >= 0."""
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("the bound on |p| must be nonnegative")
    b = RationalPoly.of(bound)
    return poly_nonneg_on(b - p, lo, hi) and poly_nonneg_on(b + p, lo, hi)


def _snap(x: Fraction, max_den: int = 1 << 48) -> Fraction:
    return x.limit_denominator(max_den)


def sup_norm_certified(
    p: RationalPoly, lo=-1, hi=1, grid: int = 256, rel_tol: Fraction = Fraction(1, 1 << 20)
) -> tuple[Fraction, Fraction]:
    """Certified enclosure [attained, upper] of sup |p| on [lo, hi].

    ``attained`` is the exact maximum of |p| over a rational grid (a lower
    bound on the sup); ``upper`` satisfies |p| <= upper on the whole interval,
    proved by the nonnegativity of upper - p and upper + p, with
    upper <= sup * (1 + rel_tol) + tiny.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if p.is_zero():
        return Fraction(0), Fraction(0)

    def certifies(bound: Fraction) -> bool:
        return abs_bounded_on(p, bound, lo, hi)

    attained = max(
        abs(p(lo + (hi - lo) * Fraction(i, grid))) for i in range(grid + 1)
    )
    if certifies(attained):
        return attained, attained
    # grow until certified, then bisect back down
    step = max(attained, Fraction(1)) * rel_tol
    high = attained + step
    while not certifies(high):
        step *= 2
        high += step
    low = high - step  # known not to certify (or the grid value)
    while high - low > rel_tol * high:
        mid = _snap((low + high) / 2)
        if not (low < mid < high):
            mid = (low + high) / 2
        if certifies(mid):
            high = mid
        else:
            low = mid
    return attained, high
