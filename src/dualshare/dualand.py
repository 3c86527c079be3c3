"""The explicit dual witness for (weighted) AND and its secret-sharing sampler.

AND here lives on the cube: AND(x) = 1 iff x = 1^n, i.e. iff all bits are 0
under the package's encoding x_i = 1 - 2 b_i.  The witness has the shape

    phi(x)  proportional to  chi_[n](x) * (E_{S ~ H}[chi_S(x)])^2

where H is uniform over the down-set {S : w(S) <= (|w|_1 - d)/2}.

Everything here depends on x and S only through how many ONE bits fall in
each group of equal-weight coordinates.  With groups of sizes n_1..n_m the
classes are the prod (n_g + 1) count vectors j.  The construction runs
``boolcube.walsh_hadamard`` over them, and the verifier
``boolcube.dual_pairings``.  A mask -> class table, built by doubling, reads
per-class results back onto the 2^n points: the emitted witness, the masks
of violating subsets and the sampler's CDF.

Both run on integers: class weights are tabulated as scale * w(j), scale
clearing the denominators of the weights and d, and a witness holds one
integer numerator over 2^n |H| per class.  The share sampler draws from
these, built here or read from a file; one ``Fraction`` per class is built
only to be emitted.

Sign orientation: the construction carries a global (-1)^n; we negate the
witness when that factor would make the correlation with AND negative (an
equivalent witness), which works out to sign(phi(x)) = chi_[n](x) always.

Pure high degree is *strict*: every monomial of chi_[n] E^2 has weighted
degree at least d and can sit exactly at d, so pairings are guaranteed to
vanish only for w(S) < d.  That is what certifies that no polynomial of
weighted degree below d achieves the approximation error.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, lcm
from operator import mul
from typing import Sequence

from . import boolcube
from .errors import PropertyViolation


class DualAndParams:
    __slots__ = ("n", "w", "d")

    def __init__(self, n: int, w: boolcube.WeightVector, d: Fraction):
        self.n = n
        self.w = w
        self.d = d
        if self.w.n != self.n:
            raise ValueError("weight vector length must equal n")
        if not 0 < self.d <= self.w.l1():
            raise ValueError("need 0 < d <= |w|_1")
        if self.n > boolcube.CUBE_CAP:
            raise ValueError(f"exact cube construction capped at n <= {boolcube.CUBE_CAP}")


class BitCountClasses:
    """The cube points classed by how many ONE bits fall in each coordinate group.

    A class j = (j_1..j_m) is indexed in mixed radix, group 1 lowest, as
    ``boolcube.walsh_hadamard`` reads it.  Per class the tables hold
    scale * w(j), the class size prod C(n_g, j_g) and the number of ONE bits,
    scale being the least that makes every weight and d integral.
    """

    # "__dict__" holds the cached tables
    __slots__ = ("sizes", "group_weights", "class_of", "scaled_d", "__dict__")

    def __init__(self, sizes: tuple[int, ...], group_weights: tuple[int, ...],
                 class_of: Sequence[int], scaled_d: int):
        self.sizes = sizes  # n_g per group
        self.group_weights = group_weights  # scale * weight per group
        self.class_of = class_of  # cube mask -> class
        self.scaled_d = scaled_d

    @staticmethod
    def of(w: boolcube.WeightVector, d: Fraction) -> "BitCountClasses":
        """Group the coordinates of equal weight, first occurrence first."""
        scale = lcm(d.denominator, *(e.denominator for e in w.entries))
        groups: dict = {}  # weight -> [size, scaled weight], in first-occurrence order
        for e in w.entries:
            groups.setdefault(e, [0, e.numerator * (scale // e.denominator)])[0] += 1
        if len(groups) == w.n:  # singleton groups in coordinate order: class = mask
            class_of: Sequence[int] = range(1 << w.n)
        else:
            strides, step = {}, 1
            for key, (size, _) in groups.items():
                strides[key] = step
                step *= size + 1
            class_of = [0]  # doubling: coordinate i appends the masks with bit i set
            for stride in [strides[e] for e in w.entries]:
                class_of += [s + stride for s in class_of]
        return BitCountClasses(
            sizes=tuple(size for size, _ in groups.values()),
            group_weights=tuple(wg for _, wg in groups.values()),
            class_of=class_of,
            scaled_d=d.numerator * (scale // d.denominator),
        )

    def expand(self, per_class: Sequence) -> tuple:
        """One entry per cube point, read from ``per_class`` through its class."""
        if isinstance(self.class_of, range):  # singleton classes: class = mask
            return tuple(per_class)
        return tuple(map(per_class.__getitem__, self.class_of))

    def _sums(self, per_group: Sequence[int]) -> list[int]:
        """sum_g j_g * per_group[g] for every class j."""
        tab = [0]
        for size, wg in zip(self.sizes, per_group):
            tab = [t + j * wg for j in range(size + 1) for t in tab]
        return tab

    @cached_property
    def weights(self) -> list[int]:
        return self._sums(self.group_weights)

    @cached_property
    def ones(self) -> list[int]:
        return self._sums([1] * len(self.sizes))

    @cached_property
    def mult(self) -> list[int]:
        return boolcube.class_sizes(self.sizes)


class DualAndWitness:
    """|H| and the witness value of each class, as an integer numerator over
    2^n |H|."""

    __slots__ = ("params", "H_size", "classes", "numerators")

    def __init__(self, params: DualAndParams, H_size: int, classes: BitCountClasses,
                 numerators: Sequence[int]):
        self.params = params
        self.H_size = H_size
        self.classes = classes
        self.numerators = numerators  # phi(j) * 2^n |H| for every class j

    @property
    def denominator(self) -> int:
        return (1 << self.params.n) * self.H_size

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.H_size, 1 << self.params.n)

    @property
    def Z(self) -> Fraction:
        return Fraction(1 << self.params.n, self.H_size)

    @property
    def class_values(self) -> list[Fraction]:
        den = self.denominator
        return [Fraction(v, den) for v in self.numerators]


class WitnessReport:
    __slots__ = ("violations", "l1_norm", "correlation")

    def __init__(self, violations: tuple[int, ...], l1_norm: Fraction, correlation: Fraction):
        self.violations = violations  # subset masks with w(S) < d but nonzero pairing
        self.l1_norm = l1_norm
        self.correlation = correlation

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @property
    def pure_high_degree(self) -> bool:
        return not self.violations

    def require(self, epsilon: Fraction) -> None:
        """Raise PropertyViolation unless pure, of unit L1 norm and correlation ``epsilon``."""
        if self.violations or self.l1_norm != 1 or self.correlation != epsilon:
            raise PropertyViolation(f"witness conditions failed: pure={self.pure_high_degree}, "
                                    f"l1={self.l1_norm}, corr={self.correlation}, eps={epsilon}")


def build_witness(params: DualAndParams) -> DualAndWitness:
    """Construct the witness; errors out if the down-set H is empty.

    H is a union of classes: S is in H iff w(S) <= (|w|_1 - d)/2, tested on
    W = scale * w as 2 W(s) <= W([n]) - scale * d.  The character sums are
    the transform of H's class indicator; every chi_S is 1 at class 0, so
    that sum is |H|.  phi(j) = (-1)^{|j|} sum_j^2 / (2^n |H|).
    """
    classes = BitCountClasses.of(params.w, params.d)
    slack = classes.weights[-1] - classes.scaled_d  # the last class is [n] itself
    if slack < 0:
        raise ValueError("d exceeds |w|_1: H is empty")
    top = slack // 2  # 2 W(s) <= slack iff W(s) <= floor(slack / 2)
    indicator = [1 if t <= top else 0 for t in classes.weights]
    sums = boolcube.walsh_hadamard(indicator, classes.sizes)
    # slack >= 0 puts the empty set in H, so H_size >= 1 here
    return DualAndWitness(params, sums[0], classes,
                          [-m * m if k & 1 else m * m for m, k in zip(sums, classes.ones)])


def verify_witness(wit: DualAndWitness) -> WitnessReport:
    """The AND-witness conditions, exactly, for ``WitnessReport.require``:
    ``boolcube.dual_pairings`` on the class masses (numerator times class
    size) tests the classes with W(s) < scale * d, and a violating class is
    reported as its masks.  AND accepts only mask 0, of class 0, so the
    correlation <phi, AND> is phi(0).
    """
    classes = wit.classes
    nums, den = wit.numerators, wit.denominator
    tested = [s for s, t in enumerate(classes.weights) if t < classes.scaled_d]
    low, l1 = boolcube.dual_pairings(list(map(mul, nums, classes.mult)), classes.sizes, tested)
    violations = tuple(x for x, s in enumerate(classes.class_of) if s in low) if low else ()
    return WitnessReport(
        violations=violations,
        l1_norm=l1 / den,
        correlation=Fraction(nums[0], den),
    )


def _signed_sum_counts(w: boolcube.WeightVector) -> tuple[dict[int, int], int]:
    """Distribution of scale * <w, X> over uniform X in {-1,1}^n as value ->
    count, and the scale, the least that makes every weight integral.

    Equal weights are grouped: j of a group's n_g signs negative add
    (n_g - 2j) * scale * w_g in C(n_g, j) ways.
    """
    scale = lcm(*(e.denominator for e in w.entries))
    counts = {0: 1}
    for e, size in Counter(w.entries).items():
        v = e.numerator * (scale // e.denominator)
        group = [((size - 2 * j) * v, comb(size, j)) for j in range(size + 1)]
        nxt: dict[int, int] = {}
        for s, c in counts.items():
            for g, m in group:
                nxt[s + g] = nxt.get(s + g, 0) + c * m
        counts = nxt
    return counts, scale


def epsilon_of(params: DualAndParams) -> Fraction:
    """Pr[<w, X> >= d] over uniform signs, exactly."""
    counts, scale = _signed_sum_counts(params.w)
    d = params.d
    hits = sum(c for s, c in counts.items() if s * d.denominator >= d.numerator * scale)
    return Fraction(hits, 1 << params.n)


class ShareSampler:
    """Exact inverse-CDF sampler for the witness's share distribution.

    Shares are drawn with probability proportional to |phi(x)| conditioned
    on the parity prod x_i equalling the secret; the convention is secret
    +1 <-> prod x_i = +1 (even number of ONE bits, where phi > 0).
    Deterministic given the seed; the CDF table is integer-exact, its masses
    read from the per-class numerators through the mask -> class table.
    """

    def __init__(self, wit: DualAndWitness, secret: int, seed: int):
        if secret not in (1, -1):
            raise ValueError("secret must be +1 or -1")
        n = wit.params.n
        parity = 1 if secret == -1 else 0
        self._n = n
        self._points = [x for x in range(1 << n) if x.bit_count() & 1 == parity]
        masses = list(map(abs, wit.numerators))
        class_of = wit.classes.class_of
        self._cum = list(accumulate(
            map(masses.__getitem__, map(class_of.__getitem__, self._points))
        ))
        self._total = self._cum[-1]
        if self._total <= 0:
            raise PropertyViolation("the witness has no mass on the secret's parity")
        self._rng = random.Random(seed)

    def sample_mask(self) -> int:
        r = self._rng.randrange(self._total)
        return self._points[bisect_right(self._cum, r)]

    def sample(self) -> tuple[int, ...]:
        return boolcube.mask_to_bits(self._n, self.sample_mask())
