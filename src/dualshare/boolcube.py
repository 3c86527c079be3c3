"""Boolean-cube Fourier analysis and symmetric distributions over Hamming weights.

Bit encoding, fixed once for the whole package: a bit ``b in {0, 1}`` maps to
``x = 1 - 2b in {-1, 1}``, so the all-ones cube point ``x = 1^n`` is the
all-zeros bit string, and a Hamming weight ``h`` (number of ONE bits) sits at
the symmetrised coordinate ``t = 1 - 2h/n``.  Characters follow the same
convention: ``chi_S(x) = prod_{i in S} x_i = (-1)^{|S & ones(b)|}``.

Cube points are represented as integer bitmasks internally and as 0/1 tuples
at API boundaries.  Symmetric distributions store one probability per
Hamming weight (the total mass of the weight class, not per string).
``dual_pairings`` is the package's one check of a dual certificate, on
classes of per-group ONE-bit counts; Hamming weights are the one-group case.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import comb, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

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
    # coeffs[s] = K_s(t; g) for output count t
    return _class_transform(v, sizes, lambda g: zip(*_kravchuk_rows(g, g)[:g + 1]))


def _class_transform(v: list, sizes: Sequence[int], rows_of) -> list:
    """``walsh_hadamard``'s stages, an axis of size g through the rows ``rows_of(g)``."""
    for g in sizes:
        if g == 1:  # the butterfly: a symmetric matrix, so either orientation
            a, b = v[0::2], v[1::2]
            v = [x + y for x, y in zip(a, b)] + [x - y for x, y in zip(a, b)]
            continue
        cols = list(zip(*(v[j::g + 1] for j in range(g + 1))))
        v = [sum(map(mul, coeffs, col)) for coeffs in rows_of(g) for col in cols]
    return v


def class_sizes(sizes: Sequence[int]) -> list[int]:
    """prod_g C(n_g, j_g) per class j: its number of cube points, or of subsets."""
    tab = [1]
    for g in sizes:
        tab = [comb(g, j) * t for j in range(g + 1) for t in tab]
    return tab


def dual_pairings(
    psi: Sequence, sizes: Sequence[int], tested: Sequence[int]
) -> tuple[dict[int, Fraction], Fraction]:
    """The tested classes s where <psi, chi_S> is not zero, with those exact
    pairings, and the exact L1 norm of psi: the one check of a dual
    certificate, a unit-L1 psi = (mu - nu)/2 pairing to zero with every
    low-degree character.  psi[j] is psi's mass on class j of
    ``walsh_hadamard``'s classes; a symmetric psi is the one group (n,).

    S of class s pairs as sum_j psi[j] prod_g K_{s_g}(j_g; n_g) / C_s, C_s
    the class size: the transposed class transform, on integers.
    """
    scale = lcm(*(p.denominator for p in psi))
    scaled = [p.numerator * (scale // p.denominator) for p in psi]
    # each axis reads its rows once, so they stream; one group stops at the largest tested class
    top = max(tested, default=-1) if len(sizes) == 1 else max(sizes)
    totals = _class_transform(scaled, sizes, lambda g: islice(_kravchuk_stream(g), min(g, top) + 1))
    size = class_sizes(sizes) if any(totals[s] for s in tested) else ()
    return ({s: Fraction(totals[s], size[s] * scale) for s in tested if totals[s]},
            Fraction(sum(map(abs, scaled)), scale))


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
    """True iff d1 - d2 pairs to zero with every chi_S, |S| <= k
    (``dual_pairings``): equality of the size-k projections."""
    if d1.n != d2.n:
        raise ValueError("mismatched n")
    if not 0 <= k <= d1.n:
        raise ValueError("k out of range")
    psi = [a - b for a, b in zip(d1.weight_probs, d2.weight_probs)]
    return not dual_pairings(psi, (d1.n,), range(k + 1))[0]


_KRAVCHUK_ROWS: dict[int, tuple[list[list[int]], Iterator[list[int]]]] = {}


def _kravchuk_stream(n: int) -> Iterator[list[int]]:
    """The rows K_0(.; n), K_1(.; n), ... with rows[r][h] = K_r(h; n), by the
    three-term recurrence (r+1) K_{r+1}(h) = (n - 2h) K_r(h) - (n - r + 1) K_{r-1}(h)."""
    prev, row = [1] * (n + 1), [n - 2 * x for x in range(n + 1)]
    yield prev
    for r in count(1):
        yield row
        prev, row = row, [((n - 2 * x) * a - (n - r + 1) * b) // (r + 1)
                          for x, (a, b) in enumerate(zip(row, prev))]


def _kravchuk_rows(n: int, r: int) -> list[list[int]]:
    """Rows 0..r (at least) of ``_kravchuk_stream(n)``: one table per n, kept
    and grown as callers ask for more rows."""
    rows, stream = _KRAVCHUK_ROWS.get(n) or _KRAVCHUK_ROWS.setdefault(n, ([], _kravchuk_stream(n)))
    while len(rows) <= r:
        rows.append(next(stream))
    return rows


def kravchuk(n: int, r: int, h: int) -> int:
    """sum over |S| = r of chi_S at any input of Hamming weight h (0 for r > n)."""
    return _kravchuk_rows(n, r)[r][h]
