"""Boolean-cube Fourier analysis and symmetric distributions over Hamming weights.

Bit encoding, fixed once for the whole package: a bit ``b in {0, 1}`` maps to
``x = 1 - 2b in {-1, 1}``, so the all-ones cube point ``x = 1^n`` is the
all-zeros bit string, and a Hamming weight ``h`` (number of ONE bits) sits at
the symmetrised coordinate ``t = 1 - 2h/n``.  Characters follow the same
convention: ``chi_S(x) = prod_{i in S} x_i = (-1)^{|S & ones(b)|}``.

Cube points are represented as integer bitmasks.  Symmetric distributions
store one probability per Hamming weight (the total mass of the weight
class, not per string), and their file form is read and written here.
``dual_pairings`` is the package's one check of a dual certificate, on
classes of per-group ONE-bit counts; Hamming weights are the one-group case.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import comb, exp, lcm, prod, sqrt
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import serialize
from .errors import InvalidInput, PropertyViolation

CUBE_CAP = 22  # largest n for which any routine enumerates all 2^n cube points
MAX_DIST_N = 1000  # largest n of a distribution file: approxlab.MAX_N, where ramp --finite stops


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


def dist_to_json(d: SymmetricDistribution) -> dict:
    return {"n": d.n, "weight_probs": [serialize.rat_to_str(p) for p in d.weight_probs]}


def dist_from_json(obj: dict) -> SymmetricDistribution:
    """A distribution from a JSON integer n <= ``MAX_DIST_N`` and rational-string
    probabilities; a larger n exits 2 before any probability is parsed."""
    try:
        n, probs = obj["n"], obj["weight_probs"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed distribution (n, weight_probs): {exc!r}") from exc
    if type(n) is not int or type(probs) is not list:  # bool is an int subclass
        raise InvalidInput(f"distribution needs an integer n and a list of rational strings, "
                           f"got n={n!r}, weight_probs={probs!r}")
    if n > MAX_DIST_N:
        raise InvalidInput(f"distribution n={n} exceeds the cap n <= {MAX_DIST_N}")
    # the package's one rational reader: a JSON float, a bool or 1/0 exits 2
    return SymmetricDistribution(n, tuple(map(serialize._parse_rational, probs)))


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


_EXP_TERMS = 200  # series terms after which an exponential bracket is called undecided


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


def _exp_at_least(c: Fraction, x: Fraction, what: str) -> bool:
    """Whether e^x >= c, decided against ``_exp_brackets(x)``; PropertyViolation
    ("``what`` undecided") if _EXP_TERMS series terms leave it open."""
    for low, high in _exp_brackets(x):
        if c <= low:
            return True
        if high is not None and c > high:
            return False
    raise PropertyViolation(f"{what} undecided after {_EXP_TERMS} terms of the exponential series")


def indistinguishability_bound_holds(dist: Fraction, k: int, K: int) -> bool:
    """Whether dist <= (K+1) * 8 sqrt(K) * exp(-k^2/1156K), decided exactly.

    Both sides are nonnegative, so squaring clears sqrt(K): the claim is
    dist^2 e^{k^2/578K} <= 64 K (K+1)^2, decided against rational brackets
    of the exponential, refined until they decide; PropertyViolation
    ("undecided") if _EXP_TERMS series terms leave it open.
    """
    if k < 1 or K < 1:
        raise ValueError("need positive k and K")
    lhs = Fraction(dist) ** 2
    # e^x is irrational for rational x > 0, so e^x >= cap / lhs means e^x > cap / lhs
    return not lhs or not _exp_at_least(64 * K * (K + 1) ** 2 / lhs, Fraction(k * k, 578 * K),
                                        "projected-distance bound")


def indistinguishability_bound(k: int, K: int) -> float:
    """Explicit proof-level constant (K+1) * 8 sqrt(K) * exp(-k^2/1156K).

    The K-bit distinguisher decomposes into at most K+1 exact-weight tests,
    each contributing 8 sqrt(K) exp(-k^2/1156K) of advantage.  The guarantee
    is stated for 1 <= k < K <= n/64; the formula itself is evaluated for any
    positive k, K (downstream consolidation plugs in k >= K).
    """
    if k < 1 or K < 1:
        raise ValueError("need positive k and K")
    return (K + 1) * 8.0 * sqrt(K) * exp(-(k * k) / (1156.0 * K))


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
