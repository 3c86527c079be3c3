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

The AND witness is built and verified on integers in the package.  The
``Fraction`` routes it replaced stay here: ``subset_weight_table_fraction``
(the low-bit recursion over exact weights), ``walsh_hadamard_inplace`` (the
in-place butterfly), and ``build_and_witness_fraction`` /
``verify_and_witness_fraction``, which compare the weights with the
thresholds as ``Fraction``s and rescale the witness with ``Fraction``
multiplies.  They share no code with ``dualand`` beyond its data types.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from dualshare.boolcube import DualWitness, WeightVector
from dualshare.dualand import DualAndParams, WitnessReport
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


def walsh_hadamard_inplace(values) -> list:
    """out[x] = sum_S in[S] * chi_S(x) by the in-place radix-2 butterfly."""
    v = list(values)
    size = len(v)
    if size == 0 or size & (size - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < size:
        for i in range(0, size, 2 * h):
            for j in range(i, i + h):
                a, b = v[j], v[j + h]
                v[j], v[j + h] = a + b, a - b
        h *= 2
    return v


def subset_weight_table_fraction(w: WeightVector) -> list[Fraction]:
    """w(S) for every subset mask S, by the low-bit recursion."""
    tab = [Fraction(0)] * (1 << w.n)
    for m in range(1, 1 << w.n):
        low = m & -m
        tab[m] = tab[m ^ low] + w.entries[low.bit_length() - 1]
    return tab


def build_and_witness_fraction(params: DualAndParams):
    """(H_size, char_sums, witness values) with H tested in ``Fraction``s."""
    n, w, d = params.n, params.w, params.d
    threshold = (w.l1() - d) / 2
    weights = subset_weight_table_fraction(w)
    indicator = [1 if weights[s] <= threshold else 0 for s in range(1 << n)]
    h_size = sum(indicator)
    char_sums = walsh_hadamard_inplace(indicator)
    denom = (1 << n) * h_size
    values = tuple(
        Fraction((-1 if x.bit_count() & 1 else 1) * m * m, denom)
        for x, m in enumerate(char_sums)
    )
    return h_size, tuple(char_sums), values


def verify_and_witness_fraction(wit: DualWitness, d, w: WeightVector) -> WitnessReport:
    """``dualand.verify_witness``'s report, with ``Fraction`` rescaling and weights."""
    vals = wit.cube_values()
    scale = lcm(*(v.denominator for v in vals))
    scaled = [int(v * scale) for v in vals]
    transform = walsh_hadamard_inplace(scaled)
    weights = subset_weight_table_fraction(w)
    d = Fraction(d)
    violations = tuple(
        s for s in range(1 << wit.n) if weights[s] < d and transform[s] != 0
    )
    return WitnessReport(
        pure_high_degree=not violations,
        violations=violations,
        l1_norm=Fraction(sum(abs(v) for v in scaled), scale),
        correlation=vals[0],
    )
