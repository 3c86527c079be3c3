"""Exact univariate polynomials over Q and Chebyshev-basis machinery.

Conventions used throughout the package:

* polynomials are dense tuples of ``Fraction`` coefficients, lowest power
  first; the zero polynomial has an empty coefficient tuple;
* Chebyshev expansions are *symmetric*: ``p = sum_{d=-K}^{K} c_d T_d`` with
  ``c_{-d} = c_d`` and ``T_{-d} = T_d``.  Only the half ``c_0..c_K`` is
  stored, so ``p = c_0 + sum_{d>0} 2 c_d T_d``.  Under this convention the
  coefficients of a monic product ``prod (t - z)`` are exactly the regular
  coefficients of the Laurent polynomial ``prod (s + 1/s - 2z)/2``, which is
  the identity the factored transform uses.

One integer kernel lives here, and every layer imports it: ``_over_lcm``
(numerators over the lcm of the denominators, the form
``RationalPoly._integer_form`` keeps), ``_scaled_values`` (homogeneous
Horner), ``_mul`` (products) and ``_weights`` / ``_lagrange`` (the integer
Lagrange form, which ``simplex`` fits with).  ``RationalPoly`` multiplies
on it.
Floating point appears only in ``eval_float``, which the estimates beside
the certificates use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import InvalidInput, PropertyViolation


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _over_lcm(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(numerators, den): values[i] = numerators[i] / den, den the lcm of the
    denominators (1 for no values)."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _scaled_values(coeffs: Sequence[int], xs: Iterable[int], den: int) -> Iterator[int]:
    """den^d p(x / den) for each x in xs, p = sum coeffs[i] t^i of degree d,
    by Horner on the integer coefficients scaled by den^(d - i).  For den > 0
    each value has the sign of p(x / den)."""
    scaled, power = [], 1
    for c in reversed(coeffs):
        scaled.append(c * power)
        power *= den
    for x in xs:
        acc = 0
        for c in scaled:
            acc = acc * x + c
        yield acc


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _weights(xs: Sequence[int]) -> tuple[list[int], int]:
    """(w, Q) with w_i = Q / prod_{j != i} (x_i - x_j) for distinct integers
    xs and Q the lcm of those products: integer multiples of the levelling
    weights, which annihilate every polynomial of degree below len(xs) - 1
    and alternate in sign along increasing xs."""
    prods = []
    for i, x in enumerate(xs):
        p = 1
        for j, y in enumerate(xs):
            if j != i:
                p *= x - y
        prods.append(p)
    q = lcm(*prods)
    return [q // p for p in prods], q


def _lagrange(xs: Sequence[int], cs: Sequence[int]) -> list[int]:
    """Coefficients, lowest power first, of sum_i cs[i] prod_{j != i} (u - xs[j])."""
    full = [1]
    for x in xs:  # full <- full * (u - x)
        full = [0, *full]
        for i in range(len(full) - 1):
            full[i] -= x * full[i + 1]
    out = [0] * len(xs)
    for x, c in zip(xs, cs):
        if c:
            acc = 0
            for d in range(len(xs) - 1, -1, -1):  # full / (u - x), top down
                acc = full[d + 1] + x * acc
                out[d] += c * acc
    return out


def _check_grid_size(n: int) -> None:
    if n < 1:
        raise InvalidInput(f"the weight grid needs n >= 1, got n={n}")


def weight_grid(n: int) -> tuple[Fraction, ...]:
    """t_h = 1 - 2h/n for h = 0..n (descending from 1 to -1); needs n >= 1."""
    _check_grid_size(n)
    return tuple(Fraction(n - 2 * h, n) for h in range(n + 1))


class RationalPoly:
    """Dense univariate polynomial over Q, coefficients lowest power first."""

    # "__dict__" holds the cached properties
    __slots__ = ("coeffs", "__dict__")

    def __init__(self, coeffs: tuple[Fraction, ...] = ()):
        self.coeffs = coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    @staticmethod
    def of(*coeffs) -> "RationalPoly":
        return RationalPoly.from_coeffs(coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "RationalPoly":
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPoly(tuple(cs))

    @staticmethod
    def from_roots(roots: Iterable) -> "RationalPoly":
        """The expanded monic polynomial ``prod (t - z)``."""
        p = RationalPoly.of(1)
        for z in roots:
            p = p * RationalPoly.from_coeffs([-_frac(z), Fraction(1)])
        return p

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators P_i over one common denominator D: p = sum P_i t^i / D."""
        return _over_lcm(self.coeffs)

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coeffs)

    def __call__(self, t) -> Fraction:
        """Exact value at a rational t = a/b (ints and floats are taken exactly).

        Homogeneous Horner on integers, sum P_i a^i b^(d-i), over D b^d: one
        Fraction per call, whatever the degree d.
        """
        nums, den = self._integer_form
        if not nums:
            return Fraction(0)
        t = _frac(t)
        (value,) = _scaled_values(nums, (t.numerator,), t.denominator)
        return Fraction(value, den * t.denominator ** self.degree)

    def eval_float(self, t: float) -> float:
        acc = 0.0
        for c in reversed(self._float_coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly.from_coeffs(out)

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            (a, da), (b, db) = self._integer_form, other._integer_form
            return RationalPoly.from_coeffs(Fraction(c, da * db) for c in _mul(a, b))
        s = _frac(other)
        return RationalPoly.from_coeffs(c * s for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPoly":
        if n < 0:
            raise ValueError("negative power")
        out = RationalPoly.of(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def reflect(self) -> "RationalPoly":
        """The polynomial t -> p(-t)."""
        return RationalPoly(
            tuple(-c if i & 1 else c for i, c in enumerate(self.coeffs))
        )


def generating_poly(roots: Iterable, scale=1) -> RationalPoly:
    """The polynomial ``g(s) = scale * prod (s^2 - 2 z s + 1)/2`` of degree 2 deg.

    ``g`` is s^deg times the Laurent product ``scale * prod (s + 1/s - 2z)/2``
    (deg = number of roots), so its coefficients deg..2 deg are the symmetric
    Chebyshev coefficients of ``scale * prod (t - z)``.
    """
    g = RationalPoly.of(scale)
    for z in roots:
        g = g * RationalPoly.of(Fraction(1, 2), -_frac(z), Fraction(1, 2))
    return g


_CHEB_CACHE: list[RationalPoly] = [RationalPoly.of(1), RationalPoly.of(0, 1)]


def cheb_T(d: int) -> RationalPoly:
    """Chebyshev polynomial T_d from T_0 = 1, T_1 = t, T_{d+1} = 2t T_d - T_{d-1}."""
    if d < 0:
        raise ValueError("index must be nonnegative")
    two_t = RationalPoly.of(0, 2)
    while len(_CHEB_CACHE) <= d:
        _CHEB_CACHE.append(two_t * _CHEB_CACHE[-1] - _CHEB_CACHE[-2])
    return _CHEB_CACHE[d]


class ChebyshevExpansion:
    """Half-coefficients c_0..c_K of the symmetric expansion sum_{|d|<=K} c_d T_d."""

    __slots__ = ("half_coeffs",)

    def __init__(self, half_coeffs: tuple[Fraction, ...] = ()):
        self.half_coeffs = half_coeffs

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "ChebyshevExpansion":
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return ChebyshevExpansion(tuple(cs))

    def truncate(self, k: int) -> RationalPoly:
        """The power-basis expansion of sum_{|d| < k} c_d T_d."""
        if k < 0:
            raise ValueError("truncation index must be nonnegative")
        acc = RationalPoly()
        for d, c in enumerate(self.half_coeffs[: max(k, 0)]):
            if c:
                acc = acc + cheb_T(d) * (c if d == 0 else 2 * c)
        return acc


def cheb_transform_factored(roots: Iterable, scale=1) -> ChebyshevExpansion:
    """Chebyshev expansion of ``scale * prod (t - z)``: coefficients deg..2 deg of
    ``generating_poly``, after checking the palindrome g[deg - d] = g[deg + d]
    (the s <-> 1/s symmetry of the Laurent product)."""
    roots = list(roots)
    deg = len(roots)
    g = generating_poly(roots, scale).coeffs
    if not g:
        return ChebyshevExpansion()
    for d in range(1, deg + 1):
        if g[deg - d] != g[deg + d]:
            raise PropertyViolation("generating polynomial lost its s <-> 1/s symmetry")
    return ChebyshevExpansion.from_coeffs(g[deg:])

