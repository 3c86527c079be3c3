"""Exact real-root isolation (Sturm sequences) and certified sup norms.

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

from .errors import PropertyViolation
from .ratpoly import RationalPoly


def _primitive(p: RationalPoly) -> RationalPoly:
    """Scale by a positive rational so coefficients are coprime integers."""
    if p.is_zero():
        return p
    from math import lcm

    den = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return RationalPoly.from_coeffs(Fraction(v, g) for v in ints)


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


def squarefree_part(p: RationalPoly) -> RationalPoly:
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    return _primitive(poly_divmod(p, g)[0])


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


def isolate_real_roots(
    p: RationalPoly, lo, hi
) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    """All distinct real roots of ``p`` in [lo, hi].

    Returns (exact rational roots, open isolating intervals), where each
    interval contains exactly one root, the interval endpoints are not roots,
    and no exact rational root lies inside any interval.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if p.is_zero():
        raise ValueError("cannot isolate the roots of the zero polynomial")
    if lo > hi:
        raise ValueError("empty interval")
    q = squarefree_part(p)
    if q.degree <= 0:
        return [], []
    exact: list[Fraction] = []

    def strip_root(poly: RationalPoly, r: Fraction) -> RationalPoly:
        quo, rem = poly_divmod(poly, RationalPoly.of(-r, 1))
        if not rem.is_zero():
            raise PropertyViolation(f"{r} is not a root of the polynomial being stripped")
        return _primitive(quo)

    while True:
        # restart whenever a rational root is discovered at a probe point;
        # root counts of q change after dividing it out
        for r in (lo, hi):
            if q.degree >= 1 and q(r) == 0 and r not in exact:
                exact.append(r)
        for r in exact:
            while q.degree >= 1 and q(r) == 0:
                q = strip_root(q, r)
        if q.degree <= 0:
            return sorted(exact), []
        chain = sturm_chain(q)
        intervals: list[tuple[Fraction, Fraction]] = []
        stack = [(lo, hi)]
        restart = False
        while stack:
            a, b = stack.pop()
            cnt = count_roots_open(chain, a, b)
            if cnt == 0:
                continue
            if cnt == 1:
                intervals.append((a, b))
                continue
            m = (a + b) / 2
            if q(m) == 0:
                exact.append(m)
                restart = True
                break
            stack.extend([(a, m), (m, b)])
        if restart:
            continue
        # shrink intervals until their closures avoid every exact root: an
        # endpoint that is a root of p (though not of the reduced q) would
        # break downstream sign sampling
        final: list[tuple[Fraction, Fraction]] = []
        for a, b in intervals:
            degenerate = None
            while True:
                touching = [r for r in exact if a <= r <= b]
                if not touching:
                    break
                m = (a + b) / 2
                if q(m) == 0:
                    degenerate = m
                    break
                if count_roots_open(chain, a, m) == 1:
                    b = m
                else:
                    a = m
            if degenerate is not None:
                exact.append(degenerate)
                restart = True
                break
            final.append((a, b))
        if restart:
            continue
        return sorted(exact), sorted(final)


def poly_nonneg_on(p: RationalPoly, lo, hi) -> bool:
    """Exact decision of ``p(t) >= 0`` for every t in [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if p.is_zero():
        return True
    if p.degree == 0:
        return p.coeffs[0] >= 0
    exact, intervals = isolate_real_roots(p, lo, hi)
    markers = sorted({lo, hi, *exact, *(x for ab in intervals for x in ab)})
    samples = set(markers)
    for u, v in zip(markers, markers[1:]):
        samples.add((u + v) / 2)
    # every maximal sign-constant region between roots contains a sample, so
    # negativity anywhere is witnessed by some sample point
    return all(p(x) >= 0 for x in samples)


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
    proved by root isolation on upper - p and upper + p, with
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
