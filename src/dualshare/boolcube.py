"""Boolean-cube Fourier analysis and symmetric distributions over Hamming weights.

Bit encoding, fixed once for the whole package: a bit ``b in {0, 1}`` maps to
``x = 1 - 2b in {-1, 1}``, so the all-ones cube point ``x = 1^n`` is the
all-zeros bit string, and a Hamming weight ``h`` (number of ONE bits) sits at
the symmetrised coordinate ``t = 1 - 2h/n``.  Characters follow the same
convention: ``chi_S(x) = prod_{i in S} x_i = (-1)^{|S & ones(b)|}``.

Cube points are represented as integer bitmasks internally and as 0/1 tuples
at API boundaries.  Symmetric distributions store one probability per
Hamming weight (the total mass of the weight class, not per string).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from operator import mul
from typing import Iterable, Sequence

CUBE_CAP = 22  # largest n for which any routine enumerates all 2^n cube points


def mask_to_bits(n: int, mask: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def walsh_hadamard(values: Sequence, sizes: Sequence[int] | None = None) -> list:
    """Unnormalised character transform on per-group counts of ONE bits.

    The coordinates fall into groups of sizes n_1..n_m, and a class
    j = (j_1..j_m) counts the ONE bits in each group; classes are indexed in
    mixed radix, group 1 lowest, so there are prod (n_g + 1) of them.  The
    transform is out[j] = sum_s in[s] prod_g K_{s_g}(j_g; n_g): prod_g K is
    the sum of chi_S(x) over the S of class s, at any x of class j.
    ``sizes`` defaults to n ones, which makes a class a bitmask and the
    transform the Walsh-Hadamard transform out[x] = sum_S in[S] chi_S(x).

    Constant-geometry form: a stage transforms the lowest axis through its
    n_g + 1 strided slices v[j::n_g+1] and concatenates the n_g + 1 outputs,
    which rotates that axis to the top; after m stages every axis is
    transformed once and back in place.  A size-1 axis is the butterfly
    v[i] = v[2i] + v[2i+1], v[i + size/2] = v[2i] - v[2i+1], so the cube
    transform costs O(n 2^n) ring operations and a size-n_g axis
    O((n_g + 1) * length).  Exact on ints and Fractions; with all sizes 1
    the routine inverts itself up to the factor 2^n.
    """
    v = list(values)
    size = len(v)
    if sizes is None:
        if size == 0 or size & (size - 1):
            raise ValueError("length must be a power of two")
        sizes = [1] * (size.bit_length() - 1)
    elif size != prod(g + 1 for g in sizes) or min(sizes, default=1) < 1:
        raise ValueError("length must be the product of the group sizes plus one")
    for g in sizes:
        if g == 1:
            a, b = v[0::2], v[1::2]
            v = [x + y for x, y in zip(a, b)] + [x - y for x, y in zip(a, b)]
            continue
        cols = list(zip(*(v[j::g + 1] for j in range(g + 1))))
        rows = _kravchuk_rows(g, g)
        v = [
            sum(map(mul, coeffs, col))
            for coeffs in zip(*rows[:g + 1])  # coeffs[s] = K_s(t; g) for output count t
            for col in cols
        ]
    return v


class WeightVector:
    """Nonnegative per-variable weights."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[Fraction, ...]):
        self.entries = entries

    @staticmethod
    def of(values: Iterable) -> "WeightVector":
        entries = tuple(Fraction(v) for v in values)
        if any(e < 0 for e in entries):
            raise ValueError("weights must be nonnegative")
        return WeightVector(entries)

    @staticmethod
    def uniform(n: int) -> "WeightVector":
        return WeightVector(tuple([Fraction(1)] * n))

    @property
    def n(self) -> int:
        return len(self.entries)

    def l1(self) -> Fraction:
        return sum(self.entries, Fraction(0))

    def l2_squared(self) -> Fraction:
        return sum((e * e for e in self.entries), Fraction(0))


class SymmetricDistribution:
    """Distribution over {0,1}^n invariant under coordinate permutations.

    ``weight_probs[h]`` is the total probability of Hamming weight h; each of
    the C(n, h) strings in the class carries ``weight_probs[h] / C(n, h)``.
    """

    __slots__ = ("n", "weight_probs")

    def __init__(self, n: int, weight_probs: tuple[Fraction, ...]):
        self.n = n
        self.weight_probs = weight_probs
        if len(self.weight_probs) != self.n + 1:
            raise ValueError("need one probability per weight 0..n")
        if any(p < 0 for p in self.weight_probs):
            raise ValueError("negative probability")
        if sum(self.weight_probs) != 1:
            raise ValueError("probabilities must sum to exactly 1")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @staticmethod
    def of(n: int, probs: Iterable) -> "SymmetricDistribution":
        return SymmetricDistribution(n, tuple(Fraction(p) for p in probs))

    def reflected(self) -> "SymmetricDistribution":
        """Distribution of the bitwise complement."""
        return SymmetricDistribution(self.n, tuple(reversed(self.weight_probs)))

    def expectation(self, values_by_weight: Sequence) -> Fraction:
        return sum(
            (p * Fraction(values_by_weight[h]) for h, p in enumerate(self.weight_probs) if p),
            Fraction(0),
        )


def project_symmetric(d: SymmetricDistribution, k: int) -> SymmetricDistribution:
    """Marginal of any k coordinates; symmetric again, so one formula serves all.

    Per-string probability of a weight-w substring is
    sum_h C(n-k, h) * weight_probs[h+w] / C(n, h+w), aggregated with C(k, w).
    """
    n = d.n
    if not 0 <= k <= n:
        raise ValueError("projection size out of range")
    if k == 0:
        return SymmetricDistribution.of(0, [1])
    out = []
    for w in range(k + 1):
        per_string = sum(
            (
                comb(n - k, h) * d.weight_probs[h + w] / comb(n, h + w)
                for h in range(n - k + 1)
                if d.weight_probs[h + w]
            ),
            Fraction(0),
        )
        out.append(comb(k, w) * per_string)
    return SymmetricDistribution.of(k, out)


def stat_distance_symmetric(
    d1: SymmetricDistribution, d2: SymmetricDistribution
) -> Fraction:
    """(1/2) sum_h |p1[h] - p2[h]|; equals the best distinguishing advantage."""
    if d1.n != d2.n:
        raise ValueError("mismatched n")
    return sum(
        (abs(a - b) for a, b in zip(d1.weight_probs, d2.weight_probs)), Fraction(0)
    ) / 2


def kwise_indistinguishable(
    d1: SymmetricDistribution, d2: SymmetricDistribution, k: int
) -> bool:
    """True iff the size-k projections agree exactly.

    Projections commute, so equality at size k implies it for all smaller
    sizes.
    """
    if d1.n != d2.n:
        raise ValueError("mismatched n")
    if not 0 <= k <= d1.n:
        raise ValueError("k out of range")
    if k == 0:
        return True
    return project_symmetric(d1, k) == project_symmetric(d2, k)


_KRAVCHUK_ROWS: dict[int, list[list[int]]] = {}


def _kravchuk_rows(n: int, r: int) -> list[list[int]]:
    """Rows 0..r (at least) of the table rows[r][h] = K_r(h; n).

    One integer table per n, grown a row at a time by the three-term
    recurrence (r+1) K_{r+1}(h) = (n - 2h) K_r(h) - (n - r + 1) K_{r-1}(h).
    """
    rows = _KRAVCHUK_ROWS.get(n)
    if rows is None:
        rows = _KRAVCHUK_ROWS[n] = [[1] * (n + 1), [n - 2 * x for x in range(n + 1)]]
    while len(rows) <= r:
        r0 = len(rows) - 1
        rows.append([
            ((n - 2 * x) * a - (n - r0 + 1) * b) // (r0 + 1)
            for x, (a, b) in enumerate(zip(rows[r0], rows[r0 - 1]))
        ])
    return rows


def kravchuk(n: int, r: int, h: int) -> int:
    """sum over |S| = r of chi_S at any input of Hamming weight h (0 for r > n)."""
    return _kravchuk_rows(n, r)[r][h]
