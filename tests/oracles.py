"""Independent routes kept only as test oracles.

The package computes Chebyshev expansions of factored polynomials by the
generating-polynomial route (``ratpoly.cheb_transform_factored``).  The
routes here reach the same objects another way, so tests can check one
against the other:

* ``cheb_transform`` peels the power-basis coefficients from the top degree
  down (T_d has leading coefficient 2^{d-1}), for any polynomial;
* ``laurent_from_roots`` builds the Laurent product
  ``scale * prod (s + 1/s - 2z)/2`` whose regular coefficients are the
  symmetric Chebyshev coefficients, and ``parseval_circle_check`` compares
  its coefficient energy with its mean square on the unit circle (floating
  point).

``and_cube`` is AND as a function on bit tuples, so that the correlation
``dualand.verify_witness`` reads at mask 0 can be checked against a full
pairing over the cube.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from dualshare.ratpoly import ChebyshevExpansion, RationalPoly, cheb_T, generating_poly


@dataclass(frozen=True)
class LaurentPoly:
    """Finite Laurent polynomial over Q, stored as sorted (exponent, coeff) pairs."""

    terms: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def from_dict(d: dict) -> "LaurentPoly":
        return LaurentPoly(
            tuple(sorted((e, Fraction(c)) for e, c in d.items() if c != 0))
        )

    def coeff(self, e: int) -> Fraction:
        for exp, c in self.terms:
            if exp == e:
                return c
        return Fraction(0)

    def span(self) -> int:
        """Max exponent minus min exponent (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return self.terms[-1][0] - self.terms[0][0]

    def evaluate(self, z: complex) -> complex:
        return sum(float(c) * z**e for e, c in self.terms)


def laurent_from_roots(roots: Iterable, scale=1) -> LaurentPoly:
    """The Laurent polynomial ``scale * prod (s + 1/s - 2z)/2``, i.e.
    ``generating_poly`` with its exponents shifted down by the number of roots."""
    roots = list(roots)
    g = generating_poly(roots, scale)
    return LaurentPoly.from_dict({i - len(roots): c for i, c in enumerate(g.coeffs)})


def cheb_transform(p: RationalPoly) -> ChebyshevExpansion:
    """Symmetric Chebyshev expansion of ``p`` by inverting the triangular basis change.

    T_d has leading coefficient 2^{d-1} for d >= 1, so peeling from the top
    degree down is exact and needs no linear solver.
    """
    if p.is_zero():
        return ChebyshevExpansion()
    work = list(p.coeffs)
    deg = p.degree
    half = [Fraction(0)] * (deg + 1)
    for d in range(deg, 0, -1):
        a = work[d]
        if a:
            one_sided = a / Fraction(2 ** (d - 1))
            half[d] = one_sided / 2
            for i, tc in enumerate(cheb_T(d).coeffs):
                work[i] -= one_sided * tc
    half[0] = work[0]
    return ChebyshevExpansion.from_coeffs(half)


def parseval_circle_check(g: LaurentPoly, samples: int) -> float:
    """|sum |coeff|^2  -  average of |g(z)|^2 over the samples-th roots of unity|.

    The discrete average is exact (in infinite precision) once ``samples``
    exceeds the exponent span of |g|^2, so the return value is pure floating
    point rounding.
    """
    if samples <= 2 * g.span():
        raise ValueError(
            f"need more than {2 * g.span()} samples for an exact circle average"
        )
    lhs = sum(float(c) * float(c) for _, c in g.terms)
    rhs = 0.0
    for j in range(samples):
        z = cmath.exp(2j * cmath.pi * j / samples)
        rhs += abs(g.evaluate(z)) ** 2
    rhs /= samples
    return abs(lhs - rhs)


def and_cube(n: int):
    """AND: {-1,1}^n -> {0,1}, accepting only x = 1^n (all bits zero)."""

    def f(bits):
        return 1 if not any(bits) else 0

    return f
