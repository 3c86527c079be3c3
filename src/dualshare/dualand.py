"""The explicit dual witness for (weighted) AND and its secret-sharing sampler.

AND here lives on the cube: AND(x) = 1 iff x = 1^n, i.e. iff all bits are 0
under the package's encoding x_i = 1 - 2 b_i.  The witness has the shape

    phi(x)  proportional to  chi_[n](x) * (E_{S ~ H}[chi_S(x)])^2

where H is uniform over the down-set {S : w(S) <= (|w|_1 - d)/2}.  The
character average for all x at once is one Walsh-Hadamard transform of the
indicator of H, which keeps construction and verification at O(n 2^n).

Both run on integers: subset weights are tabulated as scale * w(S), scale
clearing the denominators of the weights and d, and the verifier scales the
witness values to integers before its transform.  The construction keeps
|H| and the character sums; the share sampler reads only those, and the 2^n
``Fraction`` witness values are derived on first use.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, lcm

from . import boolcube
from .errors import PropertyViolation


@dataclass(frozen=True)
class DualAndParams:
    n: int
    w: boolcube.WeightVector
    d: Fraction

    def __post_init__(self):
        if self.w.n != self.n:
            raise ValueError("weight vector length must equal n")
        if not 0 < self.d <= self.w.l1():
            raise ValueError("need 0 < d <= |w|_1")
        if self.n > boolcube.CUBE_CAP:
            raise ValueError(f"exact cube construction capped at n <= {boolcube.CUBE_CAP}")

    @staticmethod
    def uniform(n: int, d) -> "DualAndParams":
        return DualAndParams(n, boolcube.WeightVector.uniform(n), Fraction(d))


@dataclass(frozen=True)
class DualAndWitness:
    """|H| and the character sums; the 2^n witness values are built on first use."""

    params: DualAndParams
    H_size: int
    char_sums: tuple[int, ...]  # sum_{S in H} chi_S(x) for every x

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.H_size, 1 << self.params.n)

    @property
    def Z(self) -> Fraction:
        return Fraction(1 << self.params.n, self.H_size)

    @cached_property
    def witness(self) -> boolcube.DualWitness:
        """phi(x) = chi_[n](x) * char_sums[x]^2 / (2^n |H|)."""
        n = self.params.n
        denom = (1 << n) * self.H_size
        values = tuple(
            Fraction(-m * m if x.bit_count() & 1 else m * m, denom)
            for x, m in enumerate(self.char_sums)
        )
        return boolcube.DualWitness(n, values, "cube", claimed_degree=self.params.d)


@dataclass(frozen=True)
class WitnessReport:
    pure_high_degree: bool
    violations: tuple[int, ...]  # subset masks with w(S) < d but nonzero pairing
    l1_norm: Fraction
    correlation: Fraction


def subset_weight_table(w: boolcube.WeightVector, scale: int) -> list[int]:
    """scale * w(S) for every subset mask S, as ints; ``scale`` must clear
    every weight's denominator.  Built by doubling: weight i appends the masks
    with bit i set, each being the one without it plus w_i."""
    tab = [0]
    for e in w.entries:
        q, r = divmod(scale, e.denominator)
        if r:
            raise ValueError(f"scale {scale} does not clear the denominator of {e}")
        tab += [t + e.numerator * q for t in tab]
    return tab


def _integer_weights(w: boolcube.WeightVector, d: Fraction) -> tuple[list[int], int]:
    """(scale * w(S) for every mask S, scale * d), for the least scale making
    every weight and d integral."""
    scale = lcm(d.denominator, *(e.denominator for e in w.entries))
    return subset_weight_table(w, scale), d.numerator * (scale // d.denominator)


def build_witness(params: DualAndParams) -> DualAndWitness:
    """Construct the witness; errors out if the down-set H is empty.

    S is in H iff w(S) <= (|w|_1 - d)/2, tested on W = scale * w as
    2 W(S) <= W([n]) - scale * d.
    """
    weights, scaled_d = _integer_weights(params.w, params.d)
    slack = weights[-1] - scaled_d
    if slack < 0:
        raise ValueError("d exceeds |w|_1: H is empty")
    top = slack // 2  # 2 W(S) <= slack iff W(S) <= floor(slack / 2)
    indicator = [1 if t <= top else 0 for t in weights]
    # slack >= 0 puts the empty set in H, so H_size >= 1 here
    return DualAndWitness(
        params=params,
        H_size=sum(indicator),
        char_sums=tuple(boolcube.walsh_hadamard(indicator)),
    )


def verify_witness(wit: boolcube.DualWitness, d, w: boolcube.WeightVector) -> WitnessReport:
    """Check the three AND-witness conditions exactly.

    (a) <phi, chi_S> = 0 for every S with w(S) strictly below d (all pairings
        are read off one Walsh-Hadamard transform of the values scaled to
        integers; w(S) < d is tested as W(S) < scale * d on a subset weight
        table of the verifier's own);
    (b) the L1 norm is exactly 1;
    (c) the exact correlation <phi, AND>, for the caller to compare with the
        claimed epsilon.  AND accepts only mask 0 (all bits zero), so the
        correlation is phi(0^n).
    """
    if w.n != wit.n:
        raise ValueError("weight vector length must equal n")
    vals = wit.cube_values()
    scale = lcm(*{v.denominator for v in vals})
    scaled = [v.numerator * (scale // v.denominator) for v in vals]
    transform = boolcube.walsh_hadamard(scaled)
    weights, scaled_d = _integer_weights(w, Fraction(d))
    violations = tuple(
        s for s, (t, c) in enumerate(zip(weights, transform)) if t < scaled_d and c
    )
    l1 = Fraction(sum(abs(v) for v in scaled), scale)
    return WitnessReport(
        pure_high_degree=not violations,
        violations=violations,
        l1_norm=l1,
        correlation=vals[0],
    )


def _signed_sum_counts(w: boolcube.WeightVector) -> dict[Fraction, int]:
    """Distribution of <w, X> over uniform X in {-1,1}^n as value -> count."""
    counts: dict[Fraction, int] = {Fraction(0): 1}
    for wi in w.entries:
        nxt: dict[Fraction, int] = {}
        for s, c in counts.items():
            for v in (s + wi, s - wi):
                nxt[v] = nxt.get(v, 0) + c
        counts = nxt
    return counts


def epsilon_of(params: DualAndParams) -> Fraction:
    """Pr[<w, X> >= d] over uniform signs, exactly."""
    counts = _signed_sum_counts(params.w)
    hits = sum(c for s, c in counts.items() if s >= params.d)
    return Fraction(hits, 1 << params.n)


def binomial_tail_epsilon(n: int, d: int) -> Fraction:
    """Uniform-weights formula: 2^-n * sum_{k <= (n-d)/2} C(n, k)."""
    top = (n - int(d)) // 2
    return Fraction(sum(comb(n, k) for k in range(top + 1)), 1 << n)


def weighted_anticoncentration_check(w: boolcube.WeightVector) -> tuple[Fraction, bool]:
    """Pr[<w, X> >= |w|_2 / 2] by exact enumeration, and whether it is >= 3/32.

    The irrational threshold is compared by squaring: s >= |w|_2/2 iff s >= 0
    and 4 s^2 >= |w|_2^2.
    """
    q = w.l2_squared()
    counts = _signed_sum_counts(w)
    hits = sum(c for s, c in counts.items() if s >= 0 and 4 * s * s >= q)
    prob = Fraction(hits, 1 << w.n)
    return prob, prob >= Fraction(3, 32)


class ShareSampler:
    """Exact inverse-CDF sampler for the witness's share distribution.

    Shares are drawn with probability proportional to (E_{S~H}[chi_S(x)])^2
    conditioned on the parity prod x_i equalling the secret; the convention
    is secret +1 <-> prod x_i = +1 (even number of ONE bits).  Deterministic
    given the seed; the CDF table is integer-exact.
    """

    def __init__(self, wit: DualAndWitness, secret: int, seed: int):
        if secret not in (1, -1):
            raise ValueError("secret must be +1 or -1")
        n = wit.params.n
        want_odd = secret == -1
        self._n = n
        self._points: list[int] = []
        masses: list[int] = []
        for x in range(1 << n):
            if (x.bit_count() & 1 == 1) == want_odd:
                m = wit.char_sums[x]
                self._points.append(x)
                masses.append(m * m)
        self._cum = list(accumulate(masses))
        self._total = self._cum[-1]
        if self._total <= 0:
            raise PropertyViolation("conditional support is empty although |H| >= 1")
        self._rng = random.Random(seed)

    def exact_distribution(self) -> dict[int, Fraction]:
        """mask -> exact conditional probability."""
        out = {}
        prev = 0
        for x, c in zip(self._points, self._cum):
            if c != prev:
                out[x] = Fraction(c - prev, self._total)
            prev = c
        return out

    def sample_mask(self) -> int:
        r = self._rng.randrange(self._total)
        return self._points[bisect_right(self._cum, r)]

    def sample(self) -> tuple[int, ...]:
        return boolcube.mask_to_bits(self._n, self.sample_mask())


def reconstruction_advantage(wit: DualAndWitness) -> Fraction:
    """E[AND(shares | secret=+1)] - E[AND(shares | secret=-1)], exactly.

    Computed from the two conditional tables; equals 2 <phi, AND>.
    """
    adv = Fraction(0)
    for secret in (1, -1):
        sampler = ShareSampler(wit, secret, seed=0)
        dist = sampler.exact_distribution()
        adv += secret * dist.get(0, Fraction(0))  # mask 0 is the accepting point
    return adv
