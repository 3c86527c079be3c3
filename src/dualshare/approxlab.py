"""Approximate-degree oracle, dual distribution pairs, and the ramp formulas.

Everything runs through exact discrete minimax on the weight grid
(``minimax_on_weight_grid``, single-point exchange in
``simplex.solve_minimax``): the minimax error of a symmetric function on its
weight grid equals its multivariate symmetric approximation error, and the
optimal dual measure psi of the returned ``MinimaxSolution`` is a dual
witness, which ``dual_distributions`` splits into a pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Sequence

from . import boolcube, ratpoly, simplex, symcheb
from .errors import InvalidInput, PropertyViolation

# desk-scale cap on the weight grid's n
MAX_N = 1000


def minimax_on_weight_grid(values: Sequence, degree: int) -> simplex.MinimaxSolution:
    """Exact degree-``degree`` minimax fit of ``values`` (indexed by Hamming
    weight h = 0..n) on the weight grid t_h = 1 - 2h/n."""
    return simplex.solve_minimax(ratpoly.weight_grid(len(values) - 1), values, degree)


def grid_n(sol: simplex.MinimaxSolution) -> int:
    """The n for which the solution's points are the weight grid; errors otherwise."""
    n = len(sol.points) - 1
    if sol.points != ratpoly.weight_grid(n):
        raise ValueError("certificate does not live on a Hamming-weight grid")
    return n


def approx_degree(
    values_by_weight: Sequence, epsilon
) -> tuple[simplex.MinimaxSolution, simplex.MinimaxSolution | None]:
    """Minimax solutions at the least degree k whose error on the weight grid
    is <= epsilon, and at degree k - 1 (None when k = 0).

    The degree-(k - 1) solution is the certificate that degree k is needed,
    so callers read both answers without solving either degree again.
    Symmetrisation is lossless for symmetric functions: a univariate
    approximant on the grid lifts to a symmetric multilinear one of equal
    degree and error, and averaging projects any approximant back down.
    A negative epsilon raises InvalidInput (a ValueError).
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InvalidInput(f"epsilon must be nonnegative, got {epsilon}")
    values = [Fraction(v) for v in values_by_weight]
    if len(values) - 1 > MAX_N:
        raise ValueError(f"desk-scale cap: n <= {MAX_N}")
    below, sol = None, minimax_on_weight_grid(values, 0)
    while sol.epsilon > epsilon:  # stops by degree n, which fits all n+1 points
        below, sol = sol, minimax_on_weight_grid(values, sol.degree + 1)
    return sol, below


def dual_distributions(
    cert: simplex.MinimaxSolution,
) -> tuple[boolcube.SymmetricDistribution, boolcube.SymmetricDistribution]:
    """Split psi = (mu - nu)/2 into the perfectly indistinguishable pair.

    mu doubles the positive part and nu the negative part; psi must have
    unit L1 norm and pair to zero with every chi_S, |S| <= ``degree``
    (``boolcube.dual_pairings``), so both sum to 1 and no test of that
    degree tells them apart.
    """
    n = grid_n(cert)
    pairings, l1 = boolcube.dual_pairings(cert.psi, (n,), range(cert.degree + 1))
    if l1 != 1:
        raise ValueError("witness must have unit total variation")
    if pairings:
        raise ValueError(f"witness pairs nonzero with characters of sizes {sorted(pairings)}")
    mu = tuple(2 * q if q > 0 else Fraction(0) for q in cert.psi)
    nu = tuple(-2 * q if q < 0 else Fraction(0) for q in cert.psi)
    return boolcube.SymmetricDistribution(n, mu), boolcube.SymmetricDistribution(n, nu)


class RampParams:
    """Secrecy threshold k, reconstruction size K, optional finite n.

    The headline statement ranges over 2 <= k < K; the advantage formula is
    well defined from k = 1, which the radicand examples exercise.
    """

    __slots__ = ("k", "K", "n")

    def __init__(self, k: int, K: int, n: int | None = None):
        self.k = k
        self.K = K
        self.n = n
        if not 1 <= self.k < self.K:
            raise ValueError("need 1 <= k < K")
        if self.n is not None and self.K > self.n:
            raise ValueError("need K <= n")


def _tail_sum(K: int, k: int) -> int:
    """sum_{d=k+1..K} C(2K,K+d)^2 = (C(4K,2K) - C(2K,K)^2)/2 - sum_{d=1..k}, 0 <= k <= K."""
    if not 0 <= k <= K:
        raise ValueError("need 0 <= k <= K")
    head = sum(comb(2 * K, K + d) ** 2 for d in range(1, k + 1))
    return (comb(4 * K, 2 * K) - comb(2 * K, K) ** 2) // 2 - head


def ramp_radicand(k: int, K: int, shift: int) -> Fraction:
    """2^{-4K + shift} * sum_{d > k} C(2K, K+d)^2.

    The statement-level constant uses shift 3; the proof-level derivation
    (which matches the L2 identity exactly) uses shift 1.  Both are exposed.
    """
    return Fraction(_tail_sum(K, k) * 2**shift, 2 ** (4 * K))


def ramp_advantage(params: RampParams) -> tuple[Fraction, float]:
    """Exact radicand (statement constant 2^{-4K+3}) and its floating root."""
    radicand = ramp_radicand(params.k, params.K, 3)
    return radicand, math.sqrt(radicand)


def ramp_advantage_proof_constant(params: RampParams) -> tuple[Fraction, float]:
    """Same with the proof-level constant 2^{-4K+1}; its square equals
    the L2 tail bound exactly."""
    radicand = ramp_radicand(params.k, params.K, 1)
    return radicand, math.sqrt(radicand)


def l2_tail_bound(K: int, k: int) -> Fraction:
    """sum_{d > k} 2 (2^{-2K} C(2K, K+d))^2: the exact sigma-measure floor on
    (p_0^infty - q)^2 for any degree-k q."""
    return Fraction(2 * _tail_sum(K, k), 2 ** (4 * K))


def finite_n_ramp(
    params: RampParams,
) -> tuple[boolcube.SymmetricDistribution, boolcube.SymmetricDistribution, Fraction]:
    """Minimax-built k-wise indistinguishable pair reconstructible by the
    first-K AND.

    Solves the degree-k minimax problem for p_0 (its ``hypergeom_row``
    values on the weight grid), splits its dual measure psi, and flips both
    distributions so the reconstruction test is the AND (rather than the NOR)
    of the first K bits.  The returned advantage is exact and equals twice the
    minimax error.  ``dual_distributions`` checks the pair perfectly k-wise
    indistinguishable, and the flip only multiplies each pairing with chi_S
    by (-1)^|S|.  Those checks and the solver's own audit of psi certify
    every output; none reads p_0's product form, so it is not built here.
    """
    n, K, k = params.n, params.K, params.k
    if n is None:
        raise ValueError("finite ramp needs n")
    if n > MAX_N or K > 8:
        raise ValueError(f"desk-scale caps: n <= {MAX_N}, K <= 8")
    sol = minimax_on_weight_grid(symcheb.hypergeom_row(n, K, 0), k)
    mu, nu = dual_distributions(sol)
    mu, nu = mu.reflected(), nu.reflected()
    and_values = symcheb.hypergeom_row(n, K, K)
    advantage = mu.expectation(and_values) - nu.expectation(and_values)
    if advantage != 2 * sol.epsilon:
        raise PropertyViolation("advantage of the LP pair differs from twice its error")
    return mu, nu, advantage


def consolidate_and(d: boolcube.SymmetricDistribution, t: int) -> boolcube.SymmetricDistribution:
    """Distribution of the per-block AND bits under a symmetric share vector.

    The tn positions split into m = n/t blocks of size t; conditioned on
    total weight h the ones are uniformly placed, so the number of full
    blocks follows from an exact placement count.  A block that is not full
    holds c < t ones in C(t, c) ways, the coefficients of the integer
    polynomial Q(x) = (1+x)^t - x^t, so h ones fill exactly f blocks in
    C(m, f) * [x^(h - tf)] Q^(m-f) ways.  The powers Q^0..Q^m are built one
    from the last, and each weight's share over C(n, h) is summed on integer
    numerators over one common denominator.
    """
    if t <= 0:
        raise ValueError("block size must be positive")
    if d.n % t:
        raise ValueError("number of positions must be divisible by the block size")
    big_n = d.n
    n_out = big_n // t
    # p_h / C(n, h) = num / common for each (h, num) of a weight that carries mass
    dens = {h: p.denominator * comb(big_n, h) for h, p in enumerate(d.weight_probs) if p}
    common = math.lcm(*dens.values())
    scaled = [(h, d.weight_probs[h].numerator * (common // den)) for h, den in dens.items()]
    q = [comb(t, c) for c in range(t)]
    power = [1]  # Q^(m - full)
    out = [Fraction(0)] * (n_out + 1)
    for full in range(n_out, -1, -1):
        base = t * full
        total = sum(num * power[h - base] for h, num in scaled if 0 <= h - base < len(power))
        if total:
            out[full] = Fraction(comb(n_out, full) * total, common)
        if full:
            nxt = [0] * (len(power) + t - 1)
            for i, a in enumerate(power):
                for c, b in enumerate(q):
                    nxt[i + c] += a * b
            power = nxt
    return boolcube.SymmetricDistribution(n_out, tuple(out))
