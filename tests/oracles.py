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

The AND witness is built and verified on integers in the package, on the
classes of per-group ONE-bit counts.  The cube routes stay here, in
``Fraction``s, over all 2^n points: ``subset_weight_table_fraction`` (the
low-bit recursion over exact weights), ``walsh_hadamard_inplace`` (the
in-place butterfly), and ``build_and_witness_fraction`` /
``verify_and_witness_fraction``, which compare the weights with the
thresholds as ``Fraction``s and rescale the witness with ``Fraction``
multiplies.  They share no code with ``dualand`` beyond its data types.
``dualand.verify_witness`` takes the built witness and reads its per-class
numerators; ``witness_values`` expands its values onto the cube, and
``verify_and_witness_fraction`` takes any cube values, so a witness
tampered anywhere on the cube is checked there.  ``uniform_and_params`` is
the unit-weight AND the tests build most often.
``signed_sum_counts_fraction`` is the distribution of <w, X> that
``dualand.epsilon_of`` counts on scaled integers per equal-weight group,
built here one coordinate at a time over ``Fraction`` keys.

The LP behind ``weightdeg._aggregate_optimal`` runs on integers in the
package.  ``solve_lp_fraction`` is the ``Fraction`` tableau it replaced (the
same two phases and the same pricing, largest reduced cost with a Bland
fallback, or Bland's rule throughout; no audit).  ``solve_lp_rational``
hands any rational LP to the package's integer ``solve_lp`` (rows with a
negative right-hand side negated, columns scaled to integers) and turns its
integer optimum back into rationals, so the two tableaux can be compared
on every LP, not only on the moment LPs the package builds.
``kravchuk(n, r, h)`` is the Kravchuk value as a signed binomial sum,
independent of the package's three-term recurrence.

``weightdeg``'s block route runs on integer numerators over one
denominator.  The ``Fraction`` helpers it replaced stay here:
``finite_differences_fraction`` (binomial sums), ``touched_block_coeffs_fraction``,
``chat_from_core_fraction`` (with ``kappa_sums``, the per-size sign-flip
multipliers), ``symmetric_values_fraction`` and ``chat_weight_fraction``;
``aggregate_certificate_fraction`` chains them from an outer polynomial's
values to its error, and ``aggregate_design_fraction`` builds the aggregate
design column by column from ``Fraction`` unit vectors through them.
``core_weight`` reads an ``_AndCore``'s weight as a ``Fraction``.

The Sturm decisions of ``certify`` run on integers in the package.  The
``Fraction`` routes they replaced stay here: ``poly_divmod`` (rational long
division), ``poly_gcd``, ``odd_part_fraction`` (Yun's odd part through
rational quotients), ``sturm_chain_fraction`` (the rational remainder
sequence with primitive parts) and ``poly_nonneg_on_fraction``, which reads
every sign through ``RationalPoly.__call__``.

``symcheb.circle_identity_check`` compares its two routes at 2K+1 rational
points of the circle, route B on integers.  ``circle_routes_fraction`` gives
both routes in ``Fraction``s at any rational point, route A through
``circle_abs_squared_fraction`` (complex Horner on ``Fraction`` pairs).

``simplex.solve_minimax`` runs its exchange on one scaled integer form.
``solve_minimax_fraction`` is the ``Fraction`` exchange it replaced
(``exchange_fraction``, ``levelling_weights_fraction``): the same reference
walk and the same psi tie rule, with no audit.  It shares only ``_swap_in``
with the package, the step that picks the next reference.

``simplex`` fits on ``ratpoly``'s integer Lagrange form (``_weights``,
``_lagrange``); ``lagrange_interpolate`` composes that kernel into a
``RationalPoly`` interpolant so tests can reach it directly.
``interpolate_fraction`` is the route it replaced, Newton's divided
differences in ``Fraction``s, and the minimax oracle interpolates with it, so
it stays independent of the kernel it checks.

``weightdeg.low_weight_report`` gives an approximant's degree, weight and
certified error in closed form and returns the compact form it certified.
The expansion over the cube stays here: ``ParityPoly`` (subset mask ->
coefficient, with ``basis_convert`` from the 0/1 monomial basis),
``materialize_and`` (the block core, one term per subset touching r
blocks), ``approx_eq_y`` (that core retargeted to any point),
``symmetric_parity_poly`` (one term per subset of each size),
``expand_approximant`` (whichever of the two the report came from) and
``cube_error`` (the exact sup distance to a target over all 2^n points).

The package reads symmetric objects per Hamming weight and never enumerates
the cube for them.  The cube routes stay here: ``chi``, ``bits_to_mask``,
``parity_values`` (a ``ParityPoly``'s value table) and ``cube_pairing``
(sum_x psi(x) f(x) over all 2^n points); ``symmetrize`` (class averages by enumeration, then
interpolation on the weight grid); ``split_cube_witness`` (the per-weight
(mu, nu) split of a witness that is constant on weight classes);
``share_distribution``, the law ``dualand.ShareSampler`` draws from, read
off the witness values as |phi| on one parity, and
``reconstruction_advantage`` from it.  ``consolidate_and_dp`` is the placement
count ``approxlab.consolidate_and`` replaced: a dynamic program over
(blocks processed, ones placed, full blocks so far) in a dict, its
probabilities summed one ``Fraction`` at a time.  ``uniform_distribution``,
``point_mass``, ``per_string_prob``, ``hypergeom_prob``, ``limit_ramp_poly``
(p_0^infty = 2^-K (t+1)^K), ``binomial_tail_epsilon`` (the uniform AND's
epsilon in closed form) and ``derivative`` are the closed forms tests compare
against.

No command reads these, so they live here: ``cheb_coeff`` (the symmetric
accessor c_{-d} = c_d of a Chebyshev expansion), ``sigma_inner`` (inner
products under the Chebyshev measure, from orthogonality), ``l2_squared``,
``weighted_anticoncentration_check`` (Pr[<w, X> >= |w|_2 / 2] >= 3/32, by
enumeration) and ``consolidation_bound``.

``symcheb.exact_weight_test`` certifies p_w on the weight grid from the
K+1 points h = 0..K and a degree bound.  ``certify_grid_all_points`` is the
check it replaced: every grid point h = 0..n against the hypergeometric
row of ``symcheb.hypergeom_row``, with the same messages.  The ramp
radicand of ``approxlab`` comes from one closed form;
``ramp_radicand_by_sum`` and ``l2_tail_bound_by_sum`` (a quarter of it) are
the O(K) sums it replaced.

Every dual certificate is checked in the package by one routine,
``boolcube.dual_pairings``.  The forms it replaced stay here:
``kwise_by_projection`` (perfect k-wise indistinguishability as equality of
the size-k projections), ``kravchuk_weight_floor`` (the weight floor from
the Kravchuk row sums of psi) and ``class_pairings_on_cube`` (a class-form
psi spread over all 2^n points and paired by the in-place butterfly).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable

from dualshare.boolcube import (
    SymmetricDistribution,
    indistinguishability_bound,
    project_symmetric,
)
from dualshare.dualand import (
    DualAndParams,
    DualAndWitness,
    WeightVector,
    WitnessReport,
    mask_to_bits,
)
from dualshare.errors import PropertyViolation
from dualshare.ratpoly import (
    ChebyshevExpansion,
    RationalPoly,
    _lagrange,
    _over_lcm,
    _scaled_values,
    _weights,
    cheb_T,
    generating_poly,
)
from dualshare.simplex import SimplexError, _swap_in, solve_lp
from dualshare.symcheb import (
    AmplificationParams,
    SymmetrizedTest,
    hypergeom_row,
)
from dualshare.weightdeg import (
    SymmetricSpec,
    _and_approx_core,
    _AndCore,
    _block_count_poly,
    _work_side,
)


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


def cheb_coeff(e: ChebyshevExpansion, d: int) -> Fraction:
    """c_d of a symmetric expansion: c_{-d} = c_d, and 0 past its top index."""
    d = abs(d)
    return e.half_coeffs[d] if d < len(e.half_coeffs) else Fraction(0)


def sigma_inner(e1: ChebyshevExpansion, e2: ChebyshevExpansion) -> Fraction:
    """E_{t~sigma}[p1(t) p2(t)] for the Chebyshev measure sigma, from
    E[T_0^2] = 1, E[T_d^2] = 1/2 for d > 0 and orthogonality:
    a_0 b_0 + 2 sum_{d>0} a_d b_d."""
    top = max(len(e1.half_coeffs), len(e2.half_coeffs))
    return sum((cheb_coeff(e1, d) * cheb_coeff(e2, d) * (1 if d == 0 else 2)
                for d in range(top)), Fraction(0))


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


def uniform_and_params(n: int, d) -> DualAndParams:
    """AND with unit weights on n variables and degree threshold d."""
    return DualAndParams(n, WeightVector.uniform(n), Fraction(d))


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


def witness_values(wit: DualAndWitness) -> tuple[Fraction, ...]:
    """phi at every cube point, read off the per-class values by class."""
    return wit.classes.expand(wit.class_values)


def verify_and_witness_fraction(vals, d, w: WeightVector) -> WitnessReport:
    """``dualand.verify_witness``'s report for any cube values ``vals``, by
    the cube transform, with ``Fraction`` rescaling and weights."""
    scale = lcm(*(v.denominator for v in vals))
    scaled = [int(v * scale) for v in vals]
    transform = walsh_hadamard_inplace(scaled)
    weights = subset_weight_table_fraction(w)
    d = Fraction(d)
    violations = tuple(
        s for s in range(len(vals)) if weights[s] < d and transform[s] != 0
    )
    return WitnessReport(
        violations=violations,
        l1_norm=Fraction(sum(abs(v) for v in scaled), scale),
        correlation=vals[0],
    )



def signed_sum_counts_fraction(w: WeightVector) -> dict[Fraction, int]:
    """Distribution of <w, X> over uniform X in {-1,1}^n as value -> count."""
    counts: dict[Fraction, int] = {Fraction(0): 1}
    for wi in w.entries:
        nxt: dict[Fraction, int] = {}
        for s, c in counts.items():
            for v in (s + wi, s - wi):
                nxt[v] = nxt.get(v, 0) + c
        counts = nxt
    return counts


def l2_squared(w: WeightVector) -> Fraction:
    """|w|_2^2."""
    return sum((e * e for e in w.entries), Fraction(0))


def weighted_anticoncentration_check(w: WeightVector) -> tuple[Fraction, bool]:
    """Pr[<w, X> >= |w|_2 / 2] over uniform X in {-1,1}^n, by exact
    enumeration, and whether it is >= 3/32.  The irrational threshold is
    compared by squaring: s >= |w|_2/2 iff s >= 0 and 4 s^2 >= |w|_2^2."""
    q = l2_squared(w)
    hits = sum(c for s, c in signed_sum_counts_fraction(w).items() if s >= 0 and 4 * s * s >= q)
    prob = Fraction(hits, 1 << w.n)
    return prob, prob >= Fraction(3, 32)


def solve_lp_fraction(A, b, c, pivots: list | None = None, bland: bool = False):
    """(x, value, y) of max c.x s.t. A x = b, x >= 0 on a ``Fraction`` tableau.

    Two phases, artificial columns kept through phase two for the dual
    read-off, redundant rows dropped after phase one.  The column of largest
    reduced cost enters (ties to the smallest column), and Bland's rule (the
    smallest improving column) after as many consecutive degenerate pivots as
    there are rows, until a pivot moves the objective; with ``bland`` Bland's
    rule prices every pivot.  Among ratio ties the smallest basic column
    leaves.  Each pivot is appended to ``pivots`` as (phase, row, column,
    pivot element), phase being 1, "out" (driving a basic artificial out)
    or 2.
    """
    m, n = len(A), len(A[0])
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    flips = [1] * m
    for i in range(m):
        if b[i] < 0:
            flips[i] = -1
            b[i] = -b[i]
            A[i] = [-v for v in A[i]]

    ncols = n + m
    tableau = [A[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    phase = 1

    def pivot(row: int, col: int) -> None:
        piv = tableau[row][col]
        if pivots is not None:
            pivots.append((phase, row, col, piv))
        tableau[row] = [v / piv for v in tableau[row]]
        for r in range(len(tableau)):
            if r != row and tableau[r][col]:
                f = tableau[r][col]
                tableau[r] = [v - f * w for v, w in zip(tableau[r], tableau[row])]
        basis[row] = col

    def run(cost, allowed: int) -> None:
        stalled = 0
        while True:
            cb = [cost[v] for v in basis]
            in_basis = set(basis)
            reduced = {
                j: cost[j] - sum(cbi * tableau[i][j] for i, cbi in enumerate(cb) if cbi)
                for j in range(allowed) if j not in in_basis
            }
            improving = [j for j, r in reduced.items() if r > 0]
            if not improving:
                return
            if bland or stalled >= len(tableau):
                enter = min(improving)
            else:
                enter = max(improving, key=lambda j: (reduced[j], -j))
            leave, best = -1, None
            for i in range(len(tableau)):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best, leave = ratio, i
            if leave < 0:
                raise SimplexError("unbounded")
            stalled = stalled + 1 if best == 0 else 0
            pivot(leave, enter)

    run([Fraction(0)] * n + [Fraction(-1)] * m, ncols)
    if sum(tableau[i][-1] for i in range(len(tableau)) if basis[i] >= n) != 0:
        raise SimplexError("infeasible")
    phase = "out"
    for i in range(len(tableau)):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    keep = [i for i in range(len(tableau)) if basis[i] < n]
    dropped = {basis[i] - n for i in range(len(tableau)) if basis[i] >= n}
    tableau[:] = [tableau[i] for i in keep]
    basis[:] = [basis[i] for i in keep]

    phase = 2
    cost = list(c) + [Fraction(0)] * m
    run(cost, n)

    x = [Fraction(0)] * n
    for i, v in enumerate(basis):
        x[v] = tableau[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    y = [Fraction(0)] * m
    for art in range(m):
        if art not in dropped:
            y[art] = flips[art] * sum(
                cost[basis[i]] * tableau[i][n + art]
                for i in range(len(tableau))
                if cost[basis[i]]
            )
    return x, value, y


def solve_lp_rational(A, b, c):
    """(x, value, y) of max c.x s.t. A x = b, x >= 0 on rational A, b and c,
    solved by ``simplex.solve_lp``: row i negated when b_i < 0, column j
    scaled by sigma_j (the lcm of its denominators), b and c over the lcms
    of theirs, and the cost of column j times sigma_j.  Raises SimplexError
    as ``solve_lp`` does."""
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    flips = [-1 if v < 0 else 1 for v in b]
    columns, sigma = zip(*(_over_lcm(col) for col in zip(*A)))
    cols = [[f * v for v in row] for row, f in zip(zip(*columns), flips)]
    rhs, sigma_b = _over_lcm(b)
    cost, scale = _over_lcm([Fraction(v) for v in c])
    cost = [v * s for v, s in zip(cost, sigma)]
    X, Y, det = solve_lp(cols, [f * v for v, f in zip(rhs, flips)], cost, sigma)
    x = [Fraction(s * v, det * sigma_b) for s, v in zip(sigma, X)]
    value = Fraction(sum(cv * v for cv, v in zip(cost, X)), scale * det * sigma_b)
    y = [f * Fraction(v, scale * det) for f, v in zip(flips, Y)]
    return x, value, y


def kravchuk(n: int, r: int, h: int) -> int:
    """sum over |S| = r of chi_S at any input of Hamming weight h (0 for r > n):
    sum_j (-1)^j C(h, j) C(n - h, r - j)."""
    return sum((-1) ** j * comb(h, j) * comb(n - h, r - j) for j in range(min(h, r) + 1))


def kappa_sums(n: int, supp_weights) -> list[int]:
    """sum over the support classes h of kravchuk(n, n - h, m), for m = 0..n."""
    return [sum(kravchuk(n, n - h, m) for h in supp_weights) for m in range(n + 1)]


def finite_differences_fraction(p_values) -> list[Fraction]:
    """Multilinear coefficients over 0/1 block indicators: c_u = Delta^u p(0),
    each by its binomial sum."""
    return [
        sum((Fraction((-1) ** (u - i) * comb(u, i)) * p_values[i] for i in range(u + 1)),
            Fraction(0))
        for u in range(len(p_values))
    ]


def touched_block_coeffs_fraction(c, ell: int, s: int) -> list[Fraction]:
    """D_r = sum_{u >= r} C(ell-r, u-r) c_u 2^{-su} for each touched-block count r."""
    return [
        sum((comb(ell - r, u - r) * c[u] / Fraction(2) ** (s * u) for u in range(r, ell + 1)),
            Fraction(0))
        for r in range(ell + 1)
    ]


def chat_from_core_fraction(n: int, ell: int, s: int, D, kappa) -> list[Fraction]:
    """Per-size parity coefficients of the symmetrised class-aggregated sum of
    the AND approximant with touched-block coefficients D."""
    chat = [Fraction(0)] * (n + 1)
    for r, d_r in enumerate(D):
        for m, cnt in enumerate(_block_count_poly(s, r)):
            chat[m] += d_r * comb(ell, r) * cnt * (-1) ** m
    return [v * kappa[m] / comb(n, m) for m, v in enumerate(chat)]


def symmetric_values_fraction(chat, n: int) -> list[Fraction]:
    """Value of sum_m chat[m] sum_{|S| = m} chi_S at each Hamming weight."""
    return [sum((chat[m] * kravchuk(n, m, h) for m in range(n + 1)), Fraction(0))
            for h in range(n + 1)]


def chat_weight_fraction(chat, complemented: bool) -> Fraction:
    """Parity weight of sum_m chat[m] sum_{|S| = m} chi_S, or of 1 minus it."""
    n = len(chat) - 1
    head = 1 - chat[0] if complemented else chat[0]
    return abs(head) + sum((comb(n, m) * abs(chat[m]) for m in range(1, n + 1)), Fraction(0))


def aggregate_certificate_fraction(n: int, ell: int, p_values, kappa, work):
    """(D, chat, values, error) of the outer polynomial with values p_values at
    block counts 0..ell, in ``Fraction``s: the route ``weightdeg`` replaced."""
    D = touched_block_coeffs_fraction(finite_differences_fraction(p_values), ell, n // ell)
    chat = chat_from_core_fraction(n, ell, n // ell, D, kappa)
    values = symmetric_values_fraction(chat, n)
    return D, chat, values, max(abs(v - w) for v, w in zip(values, work))


def aggregate_design_fraction(n: int, ell: int, s: int, d_out: int, kappa) -> list:
    """rows[h][r]: the aggregate's value at weight h when the outer polynomial
    is j -> j^r, built from the image of every unit vector e_j in ``Fraction``s."""
    columns = []
    for j in range(ell + 1):
        e_j = [Fraction(int(i == j)) for i in range(ell + 1)]
        D = touched_block_coeffs_fraction(finite_differences_fraction(e_j), ell, s)
        columns.append(symmetric_values_fraction(chat_from_core_fraction(n, ell, s, D, kappa), n))
    return [
        [
            sum(columns[j][h] * Fraction(j) ** r for j in range(ell + 1))
            for r in range(d_out + 1)
        ]
        for h in range(n + 1)
    ]


def _primitive_fraction(p: RationalPoly) -> RationalPoly:
    """Scale by a positive rational so coefficients are coprime integers."""
    if p.is_zero():
        return p
    den = lcm(*(c.denominator for c in p.coeffs))
    nums = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = gcd(*nums)
    return RationalPoly.from_coeffs(v // g for v in nums)


def poly_divmod(a: RationalPoly, b: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """Quotient and remainder of rational long division."""
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
        a, b = b, _primitive_fraction(poly_divmod(a, b)[1])
    return _primitive_fraction(a)


def odd_part_fraction(p: RationalPoly) -> RationalPoly:
    """Yun's odd part s_0 s_2 ... / (s_1 s_3 ...), s_k = p_k / gcd(p_k, p_k'),
    through rational quotients."""
    num = den = RationalPoly.of(1)
    k = 0
    while p.degree > 0:
        nxt = poly_gcd(p, derivative(p))
        s = poly_divmod(p, nxt)[0]
        if k % 2:
            den = den * s
        else:
            num = num * s
        p, k = nxt, k + 1
    return _primitive_fraction(poly_divmod(num, den)[0])


def sturm_chain_fraction(q: RationalPoly) -> list[RationalPoly]:
    """Sturm chain by rational remainders, each negated and made primitive."""
    chain = [q, _primitive_fraction(derivative(q))]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        chain.append(_primitive_fraction(-poly_divmod(chain[-2], chain[-1])[1]))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _sign_changes_fraction(chain: list[RationalPoly], x: Fraction) -> int:
    prev, count = 0, 0
    for f in chain:
        v = f(x)
        s = (v > 0) - (v < 0)
        if s != 0:
            if prev != 0 and s != prev:
                count += 1
            prev = s
    return count


def poly_nonneg_on_fraction(p: RationalPoly, lo, hi) -> bool:
    """``certify.poly_nonneg_on`` with every quotient and sign taken in ``Fraction``s."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    o = odd_part_fraction(p)
    for r in (lo, hi):
        if o(r) == 0:
            o = _primitive_fraction(poly_divmod(o, RationalPoly.of(-r, 1))[0])
    chain = sturm_chain_fraction(o)
    if _sign_changes_fraction(chain, lo) - _sign_changes_fraction(chain, hi):
        return False
    steps = p.degree + 2
    for j in range(1, steps):
        v = p(lo + (hi - lo) * Fraction(j, steps))
        if v:
            return v > 0
    return True


def circle_abs_squared_fraction(g: RationalPoly, re, im) -> Fraction:
    """|g(re + i im)|^2 by complex Horner on ``Fraction`` pairs (float or
    rational input, taken exactly)."""
    re, im = Fraction(re), Fraction(im)
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(g.coeffs):
        acc_re, acc_im = acc_re * re - acc_im * im + c, acc_re * im + acc_im * re
    return acc_re * acc_re + acc_im * acc_im


def circle_routes_fraction(test: SymmetrizedTest, params: AmplificationParams,
                           t: Fraction) -> tuple[Fraction, Fraction]:
    """(route A, route B) of ``symcheb.circle_identity_check`` in ``Fraction``s
    at the point (cos, sin) = (1 - t^2, 2t) / (1 + t^2) of the unit circle, for
    any rational t: |g((1+eps)(cos + i sin))|^2 by ``circle_abs_squared_fraction``,
    and (1+eps)^2K (1+delta)^2K C_w^2 prod h_{delta'}(cos / (1+delta), z) with
    delta' = delta (2 + delta) / (1 + delta)^2."""
    cos, sin = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    r, delta = 1 + params.epsilon, params.delta
    g = generating_poly(test.zeros, test.scale)
    lhs = circle_abs_squared_fraction(g, r * cos, r * sin)
    c, dprime = cos / (1 + delta), delta * (2 + delta) / (1 + delta) ** 2
    rhs = (r * (1 + delta)) ** (2 * test.K) * test.scale ** 2
    for z in test.zeros:
        rhs *= (c - z) ** 2 + dprime * (1 - z * z)
    return lhs, rhs


def solve_minimax_fraction(points, values, degree):
    """(poly, epsilon, psi) of ``simplex.solve_minimax`` with one ``Fraction``
    per arithmetic step: the exchange levels each reference with ``Fraction``
    weights, interpolates with ``interpolate_fraction`` and reads every
    residual through ``RationalPoly.__call__``; psi follows the same tie rule."""
    points = [Fraction(p) for p in points]
    values = [Fraction(v) for v in values]
    m = len(points)
    order = sorted(range(m), key=points.__getitem__)
    ts = [points[i] for i in order]
    fs = [values[i] for i in order]
    if m <= degree + 1:
        poly, eps = interpolate_fraction(ts, fs), Fraction(0)
    else:
        poly, eps = exchange_fraction(ts, fs, degree)
    residuals = _residuals_fraction(poly, points, values)
    psi = [Fraction(0)] * m
    if eps > 0:
        walk = order[::-1] if 2 * order.index(0) > m - 1 else order
        support: list[int] = []
        for i in walk:
            r = residuals[i]
            if abs(r) == eps and (not support or (r > 0) != (residuals[support[-1]] > 0)):
                support.append(i)
                if len(support) == degree + 2:
                    break
        if len(support) < degree + 2:
            raise SimplexError("optimum is not levelled on degree+2 alternating points")
        lams = levelling_weights_fraction([points[i] for i in support])
        sign = 1 if lams[0] * residuals[support[0]] > 0 else -1
        total = sum(abs(lam) for lam in lams)
        for i, lam in zip(support, lams):
            psi[i] = sign * lam / total
    return poly, eps, tuple(psi)


def exchange_fraction(ts, fs, degree):
    """Single-point exchange on increasing points ts (at least degree+2 of
    them); returns the optimal polynomial and the minimax error."""
    m = len(ts)
    ref = [i * (m - 1) // (degree + 1) for i in range(degree + 2)]
    level = Fraction(-1)
    while True:
        lams = levelling_weights_fraction([ts[i] for i in ref])
        h = sum(lam * fs[i] for lam, i in zip(lams, ref)) / sum(abs(lam) for lam in lams)
        if abs(h) <= level:
            raise SimplexError("levelled error did not increase across an exchange")
        level = abs(h)
        signs = [1 if (lam > 0) == (h >= 0) else -1 for lam in lams]
        poly = interpolate_fraction(
            [ts[i] for i in ref[:-1]],
            [fs[i] - s * level for s, i in zip(signs, ref[:-1])],
        )
        residuals = _residuals_fraction(poly, ts, fs)
        k = max(range(m), key=lambda i: abs(residuals[i]))
        if abs(residuals[k]) == level:
            return poly, level
        ref = _swap_in(ref, signs, k, 1 if residuals[k] > 0 else -1)


def interpolate_fraction(xs, ys) -> RationalPoly:
    """The interpolant of degree < len(xs) through the points (xs[i], ys[i]),
    by Newton's divided differences in ``Fraction``s (xs distinct)."""
    xs = [Fraction(x) for x in xs]
    c = [Fraction(y) for y in ys]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    coeffs = c[-1:]
    for i in range(n - 2, -1, -1):
        # coeffs <- coeffs * (t - xs[i]) + c[i]
        shifted = [Fraction(0)] + coeffs
        for j, a in enumerate(coeffs):
            shifted[j] -= a * xs[i]
        shifted[0] += c[i]
        coeffs = shifted
    return RationalPoly.from_coeffs(coeffs)


def lagrange_interpolate(xs, ys) -> RationalPoly:
    """The interpolant of degree < len(xs) through (xs[i], ys[i]) on the
    integer Lagrange kernel: with u_i = L x_i and g_i = F y_i over the lcms L
    and F, and weights w_i over Q from ``_weights``,
    p(u / L) = sum_i g_i w_i prod_{j != i} (u - u_j) / (F Q)."""
    us, big_l = _over_lcm([Fraction(x) for x in xs])
    gs, big_f = _over_lcm([Fraction(y) for y in ys])
    weights, q = _weights(us)
    coeffs = _lagrange(us, [g * w for g, w in zip(gs, weights)])
    return RationalPoly.from_coeffs(
        Fraction(c * big_l**j, q * big_f) for j, c in enumerate(coeffs))


def levelling_weights_fraction(xs):
    """lambda_i = 1 / prod_{j != i} (x_i - x_j) in ``Fraction``s."""
    out = []
    for i, x in enumerate(xs):
        denom = Fraction(1)
        for j, y in enumerate(xs):
            if j != i:
                denom *= x - y
        out.append(1 / denom)
    return out


def _residuals_fraction(p: RationalPoly, ts, fs) -> list[Fraction]:
    return [f - p(t) for t, f in zip(ts, fs)]


def derivative(p: RationalPoly) -> RationalPoly:
    return RationalPoly.from_coeffs(i * c for i, c in enumerate(p.coeffs) if i > 0)


def bits_to_mask(bits) -> int:
    m = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("bits must be 0/1")
        m |= b << i
    return m


@dataclass
class ParityPoly:
    """Multilinear polynomial over {-1,1}^n as subset-bitmask -> coefficient."""

    n: int
    coeffs: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {
            s: Fraction(c) for s, c in self.coeffs.items() if c != 0
        }

    def weight(self) -> Fraction:
        """L1 norm of the coefficients in the parity basis."""
        return sum((abs(c) for c in self.coeffs.values()), Fraction(0))

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(s.bit_count() for s in self.coeffs)

    def negate_vars(self, var_mask: int) -> "ParityPoly":
        """Substitute x_i -> -x_i for every i in var_mask; weight is preserved."""
        return ParityPoly(
            self.n,
            {
                s: (-c if (s & var_mask).bit_count() & 1 else c)
                for s, c in self.coeffs.items()
            },
        )


def basis_convert(monomial_coeffs: dict[int, Fraction], n: int) -> ParityPoly:
    """Multilinear polynomial in 0/1 variables -> parity basis.

    Input maps a bitmask S to the coefficient of prod_{i in S} b_i; the
    substitution b_i = (1 - x_i)/2 is expanded exactly, so evaluations agree
    at all 2^n points.
    """
    out: dict[int, Fraction] = {}
    for s, a in monomial_coeffs.items():
        a = Fraction(a)
        if not a:
            continue
        scale = Fraction(1, 1 << s.bit_count())
        sub = s
        while True:
            sign = -1 if sub.bit_count() & 1 else 1
            out[sub] = out.get(sub, Fraction(0)) + sign * a * scale
            if sub == 0:
                break
            sub = (sub - 1) & s
    return ParityPoly(n, out)


def materialize_and(core: _AndCore) -> ParityPoly:
    """The block-composed AND approximant as an explicit ParityPoly: every
    subset touching r blocks, each in a nonempty part, gets (-1)^{|S|} D_r."""
    ell, s = core.ell, core.s
    block_subsets = [[m << (j * s) for m in range(1, 1 << s)] for j in range(ell)]
    coeffs: dict[int, Fraction] = {}
    for r, d_r in enumerate(core.D):
        if not d_r:
            continue
        d_r = Fraction(d_r, core.den)
        for blocks in combinations(range(ell), r):
            for parts in product(*(block_subsets[j] for j in blocks)):
                mask = 0
                for p in parts:
                    mask |= p
                coeffs[mask] = -d_r if mask.bit_count() & 1 else d_r
    return ParityPoly(ell * s, coeffs)


def approx_eq_y(n: int, y: int, degree_budget: int, error_target):
    """(poly, core): the AND construction for the point indicator EQ_y, the
    variables at y's zero bits negated, expanded; ``core`` holds the closed
    forms (``core.degree``, ``core_weight(core)``, ``core.error``)."""
    core = _and_approx_core(n, degree_budget, Fraction(error_target), False)
    return materialize_and(core).negate_vars(((1 << n) - 1) ^ y), core


def core_weight(core: _AndCore) -> Fraction:
    """The block core's parity weight in closed form."""
    return Fraction(core.scaled_weight(False), core.den)


def symmetric_parity_poly(n: int, chat) -> ParityPoly:
    """sum_m chat[m] sum_{|S| = m} chi_S, one term per subset."""
    return ParityPoly(n, {
        sum(1 << i for i in idxs): chat[m]
        for m in range(n + 1) if chat[m]
        for idxs in combinations(range(n), m)
    })


def expand_approximant(spec: SymmetricSpec, form) -> ParityPoly:
    """The approximant ``weightdeg.low_weight_report`` certified, rebuilt
    over the cube from the compact form it returned."""
    if not isinstance(form, _AndCore):
        return symmetric_parity_poly(spec.n, form)
    complemented, work = _work_side(spec)
    poly = materialize_and(form)
    if work[0]:  # the all-zeros point: every variable negated
        poly = poly.negate_vars((1 << spec.n) - 1)
    if complemented:
        out = {s: -c for s, c in poly.coeffs.items()}
        out[0] = 1 + out.get(0, Fraction(0))
        poly = ParityPoly(spec.n, out)
    return poly


def chi(s_mask: int, x_mask: int) -> int:
    """chi_S(x) for the cube point with ONE-bits ``x_mask``."""
    return -1 if (s_mask & x_mask).bit_count() & 1 else 1


def parity_values(poly: ParityPoly) -> list[Fraction]:
    """The value of ``poly`` at every cube point, by the in-place butterfly."""
    vec = [Fraction(0)] * (1 << poly.n)
    for s, c in poly.coeffs.items():
        vec[s] = c
    return walsh_hadamard_inplace(vec)


def cube_error(poly: ParityPoly, target) -> Fraction:
    """Exact max |poly(x) - target(x)| over all 2^n points; ``target`` takes
    the mask.  The butterfly runs on the coefficients scaled to integers."""
    scale = lcm(*(c.denominator for c in poly.coeffs.values()))
    vec = [0] * (1 << poly.n)
    for s, c in poly.coeffs.items():
        vec[s] = c.numerator * (scale // c.denominator)
    values = walsh_hadamard_inplace(vec)
    return Fraction(max(abs(v - scale * target(m)) for m, v in enumerate(values)), scale)


def cube_pairing(values, f) -> Fraction:
    """sum_x values[x] f(x) over the cube; ``f`` is a ParityPoly or a
    callable on 0/1 tuples."""
    n = len(values).bit_length() - 1
    if isinstance(f, ParityPoly):
        table = parity_values(f)
    else:
        table = [f(mask_to_bits(n, m)) for m in range(1 << n)]
    return sum(map(mul, values, table), Fraction(0))


def symmetrize(f, n: int) -> RationalPoly:
    """The P of degree <= n with P(1 - 2h/n) = E_{|x|=h}[f(x)], f a callable
    on 0/1 tuples."""
    sums = [Fraction(0)] * (n + 1)
    for m in range(1 << n):
        sums[m.bit_count()] += Fraction(f(mask_to_bits(n, m)))
    grid = [Fraction(n - 2 * h, n) for h in range(n + 1)]
    return interpolate_fraction(grid, [v / comb(n, h) for h, v in enumerate(sums)])


def split_cube_witness(values):
    """(mu, nu) doubling the positive and the negative per-weight mass of
    cube values that must be constant on weight classes."""
    n = len(values).bit_length() - 1
    mass = [Fraction(0)] * (n + 1)
    for m, v in enumerate(values):
        mass[m.bit_count()] += v
    for m, v in enumerate(values):
        if v * comb(n, m.bit_count()) != mass[m.bit_count()]:
            raise ValueError("witness is not symmetric")
    mu = [2 * q if q > 0 else 0 for q in mass]
    nu = [-2 * q if q < 0 else 0 for q in mass]
    return SymmetricDistribution.of(n, mu), SymmetricDistribution.of(n, nu)


def share_distribution(wit: DualAndWitness, secret: int) -> dict[int, Fraction]:
    """mask -> Pr[shares = mask | secret]: |phi| renormalised over the masks
    whose parity encodes the secret (+1 <-> an even number of ONE bits)."""
    parity = 0 if secret == 1 else 1
    mass = {x: abs(v) for x, v in enumerate(witness_values(wit))
            if v and x.bit_count() & 1 == parity}
    total = sum(mass.values())
    return {x: v / total for x, v in mass.items()}


def reconstruction_advantage(wit: DualAndWitness) -> Fraction:
    """E[AND(shares) | secret = +1] - E[AND(shares) | secret = -1]; AND
    accepts mask 0 only."""
    return sum((secret * share_distribution(wit, secret).get(0, Fraction(0))
                for secret in (1, -1)), Fraction(0))


def hypergeom_prob(n: int, K: int, w: int, h: int) -> Fraction:
    """Pr[exactly w ones among K fixed coordinates | total weight h]."""
    if h < w or h - w > n - K:
        return Fraction(0)
    return Fraction(comb(K, w) * comb(n - K, h - w), comb(n, h))


def certify_grid_all_points(p: RationalPoly, n: int, K: int, w: int) -> None:
    """p(t_h) = Hyp(w | n, K, h) at every h = 0..n, one integer comparison per
    grid point; PropertyViolation at the first h where it fails."""
    nums, den = p._integer_form
    target = den * n ** p.degree
    values = _scaled_values(nums, (n - 2 * h for h in range(n + 1)), n)
    for h, (v, prob) in enumerate(zip(values, hypergeom_row(n, K, w))):
        if v * prob.denominator != prob.numerator * target:
            raise PropertyViolation(f"product form disagrees with the hypergeometric "
                                    f"value at h={h} (n={n}, K={K}, w={w})")


def ramp_radicand_by_sum(k: int, K: int) -> Fraction:
    """2^{-4K + 3} * sum_{d > k} C(2K, K+d)^2, term by term."""
    total = sum(comb(2 * K, K + d) ** 2 for d in range(k + 1, K + 1))
    return Fraction(8 * total, 2 ** (4 * K))


def l2_tail_bound_by_sum(K: int, k: int) -> Fraction:
    """sum_{d > k} 2 (2^{-2K} C(2K, K+d))^2, one Fraction per term."""
    return sum((2 * Fraction(comb(2 * K, K + d), 2 ** (2 * K)) ** 2
                for d in range(k + 1, K + 1)), Fraction(0))


def uniform_distribution(n: int) -> SymmetricDistribution:
    return SymmetricDistribution.of(n, [Fraction(comb(n, h), 2**n) for h in range(n + 1)])


def point_mass(n: int, h: int) -> SymmetricDistribution:
    return SymmetricDistribution.of(n, [int(w == h) for w in range(n + 1)])


def per_string_prob(d: SymmetricDistribution, h: int) -> Fraction:
    return d.weight_probs[h] / comb(d.n, h)


def limit_ramp_poly(K: int) -> RationalPoly:
    """p_0^infty(t) = 2^-K (t+1)^K, the n -> infinity limit of p_0."""
    return Fraction(1, 2**K) * RationalPoly.from_roots([Fraction(-1)] * K)


def binomial_tail_epsilon(n: int, d: int) -> Fraction:
    """Uniform-weights AND epsilon: 2^-n * sum_{k <= (n-d)/2} C(n, k)."""
    return Fraction(sum(comb(n, k) for k in range((n - d) // 2 + 1)), 1 << n)


def consolidation_bound(k: int, K: int, t: int, n: int) -> float:
    """2 * indistinguishability_bound(k, tK) * n^K: distance to a perfectly
    indistinguishable pair after consolidating blocks of size t."""
    return 2.0 * indistinguishability_bound(k, t * K) * float(n) ** K


def consolidate_and_dp(d: SymmetricDistribution, t: int) -> SymmetricDistribution:
    """``approxlab.consolidate_and`` by the (ones, full) dict DP."""
    big_n = d.n
    n_out = big_n // t
    ways: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(n_out):
        nxt: dict[tuple[int, int], int] = {}
        for (ones, full), cnt in ways.items():
            for c in range(t + 1):
                key = (ones + c, full + (c == t))
                nxt[key] = nxt.get(key, 0) + cnt * comb(t, c)
        ways = nxt
    out = [Fraction(0)] * (n_out + 1)
    for h, p in enumerate(d.weight_probs):
        if not p:
            continue
        denom = comb(big_n, h)
        for full in range(n_out + 1):
            w = ways.get((h, full), 0)
            if w:
                out[full] += p * Fraction(w, denom)
    return SymmetricDistribution(n_out, tuple(out))


def kwise_by_projection(d1: SymmetricDistribution, d2: SymmetricDistribution, k: int) -> bool:
    """Equal size-k projections; projections commute, so equality at size k
    implies it at every smaller size."""
    return k == 0 or project_symmetric(d1, k) == project_symmetric(d2, k)


def kravchuk_weight_floor(cert, K: int, target_error) -> Fraction | float:
    """``weightdeg.weight_lower_bound`` for a certificate whose error exceeds
    the target: the pairing with a size-r chi_S is the Kravchuk row sum
    sum_h psi_h K_r(h; n) / C(n, r)."""
    n = len(cert.psi) - 1
    best = max(
        (abs(Fraction(sum(p * kravchuk(n, r, h) for h, p in enumerate(cert.psi))) / comb(n, r))
         for r in range(min(K, n) + 1)),
        default=Fraction(0),
    )
    return float("inf") if best == 0 else (cert.epsilon - Fraction(target_error)) / best


def class_pairings_on_cube(psi, sizes) -> tuple[dict[int, Fraction], Fraction]:
    """(class -> <psi, chi_S> for every class whose pairing is not zero, L1
    norm) with psi[j] the mass of class j (group g holds the next sizes[g]
    coordinates): spread evenly over the cube, paired by the butterfly, and
    checked constant on every class of S."""
    strides = [1]
    for g in sizes:
        strides.append(strides[-1] * (g + 1))
    group_of = [g for g, size in enumerate(sizes) for _ in range(size)]
    n = len(group_of)
    class_of = [sum(strides[group_of[i]] for i in range(n) if x >> i & 1) for x in range(1 << n)]
    count = [class_of.count(j) for j in range(len(psi))]
    values = [Fraction(psi[j]) / count[j] for j in class_of]
    transform = walsh_hadamard_inplace(values)
    pairings: dict[int, Fraction] = {}
    for s_mask, s in enumerate(class_of):
        if pairings.setdefault(s, transform[s_mask]) != transform[s_mask]:
            raise AssertionError(f"pairing not constant on class {s}")
    return {s: v for s, v in pairings.items() if v}, sum(abs(v) for v in values)
