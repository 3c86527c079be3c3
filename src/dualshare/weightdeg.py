"""Low-weight approximants for point indicators and symmetric functions.

The constructive side composes an exact inner AND on blocks with a
minimax-optimal outer univariate approximant of the block-count AND: with
blocks of size s = n/l, the composition q(b) = p(#full blocks) has degree
s * deg(p), its pointwise error equals the outer minimax error exactly (the
inner ANDs are exact), and its parity-basis coefficients collapse to one
value per number of blocks touched, so weights are computed in closed form
instead of by expanding 2^n terms.

Nothing here expands an approximant over the cube: ``low_weight_report``
returns its degree, weight and certified error, all in closed form, with
the compact form they were read from (the block core, or one parity
coefficient per subset size), which is enough to rebuild it.

Symmetric functions are sums of point indicators over their support; the sum
is aggregated weight-class by weight-class (a sign-flip average with a closed
form) and then symmetrised over variable relabelings, which never increases
weight or error and makes the exact per-weight error certificate a single
Kravchuk evaluation.  The shared outer polynomial is chosen by the
union-bound rule (per-term error at most eps/|supp|) whenever some block
split meets it; when no split does, the same polynomial is re-optimised by a
second LP directly against the exact aggregate certificate, which is strictly
stronger than the union bound and keeps the construction otherwise unchanged.

The dual side pairs the dual measure of a weight-grid minimax solution
against all characters of size at most K: a degree-K polynomial of weight W
can correlate with the witness by at most W times the largest character
pairing, which rearranges into a weight lower bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, lcm
from operator import mul

from . import approxlab, boolcube, ratpoly, simplex
from .errors import InfeasibleBudget, InvalidInput, PropertyViolation


class WeightDegreeReport:
    __slots__ = ("degree", "weight", "error", "bound_exponent")

    def __init__(self, degree: int, weight: Fraction, error: Fraction, bound_exponent: float):
        self.degree = degree
        self.weight = weight
        self.error = error
        self.bound_exponent = bound_exponent


class SymmetricSpec:
    """A symmetric predicate by its weight-value vector."""

    __slots__ = ("n", "predicate")

    def __init__(self, n: int, predicate: tuple[int, ...]):
        self.n = n
        self.predicate = predicate
        if len(self.predicate) != self.n + 1:
            raise ValueError("predicate must have length n+1")
        if any(v not in (0, 1) for v in self.predicate):
            raise ValueError("predicate values must be 0/1")

    @property
    def k_f(self) -> int:
        """Smallest i with the predicate constant on weights in [i+1, n-i-1]."""
        for i in range(self.n + 1):
            mid = self.predicate[i + 1 : self.n - i]
            if all(v == mid[0] for v in mid) if mid else True:
                return i
        return self.n


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _finite_differences(p_values: list[Fraction]) -> list[Fraction]:
    """Multilinear coefficients over 0/1 block indicators: c_u = Delta^u p(0)."""
    ell = len(p_values) - 1
    return [
        sum(
            ((-1) ** (u - i) * comb(u, i) * p_values[i] for i in range(u + 1)),
            Fraction(0),
        )
        for u in range(ell + 1)
    ]


def _touched_block_coeffs(c: list[Fraction], ell: int, s: int) -> list[Fraction]:
    """Parity coefficient per touched-block count.

    The parity coefficient of a subset S touching r blocks is
    (-1)^{|S|} D_r with D_r = sum_{u >= r} C(ell-r, u-r) c_u 2^{-su}.
    """
    return [
        sum(
            (
                comb(ell - r, u - r) * c[u] / Fraction(2) ** (s * u)
                for u in range(r, ell + 1)
                if c[u]
            ),
            Fraction(0),
        )
        for r in range(ell + 1)
    ]


class _AndCore:
    """Outer/inner decomposition data for the n-bit AND approximant."""

    __slots__ = ("ell", "s", "error", "D")

    def __init__(self, ell: int, s: int, error: Fraction, D: tuple[Fraction, ...]):
        self.ell = ell  # number of blocks
        self.s = s  # block size
        self.error = error  # max_j |p(j) - [j == ell]|
        self.D = D  # parity coefficient per touched-block count

    @property
    def degree(self) -> int:
        top = max((r for r, v in enumerate(self.D) if v), default=0)
        return self.s * top

    def weight(self) -> Fraction:
        per_block = (1 << self.s) - 1
        return sum(
            (
                comb(self.ell, r) * Fraction(per_block) ** r * abs(v)
                for r, v in enumerate(self.D)
                if v
            ),
            Fraction(0),
        )


def _and_core_for_split(n: int, ell: int, degree_budget: int) -> _AndCore:
    s = n // ell
    outer_degree = min(ell, degree_budget // s)
    values = [Fraction(0)] * ell + [Fraction(1)]
    points = [Fraction(j) for j in range(ell + 1)]
    sol = simplex.solve_minimax(points, values, outer_degree)
    p_values = [sol.poly(Fraction(j)) for j in range(ell + 1)]
    c = _finite_differences(p_values)
    if any(c[outer_degree + 1 :]):
        raise PropertyViolation("outer polynomial has differences above its degree")
    return _AndCore(
        ell=ell,
        s=s,
        error=sol.epsilon,
        D=tuple(_touched_block_coeffs(c, ell, s)),
    )


def _and_approx_core(n: int, degree_budget: int, error_target: Fraction) -> _AndCore:
    """Best split: exhaustive over divisors of n, minimum weight subject to
    degree <= budget and certified error <= target."""
    if degree_budget < 1:
        raise ValueError("degree budget must be at least 1")
    best: _AndCore | None = None
    best_errors: dict[int, Fraction] = {}
    for ell in _divisors(n):
        core = _and_core_for_split(n, ell, degree_budget)
        best_errors[ell] = core.error
        if core.error <= error_target and (
            best is None or (core.weight(), core.ell) < (best.weight(), best.ell)
        ):
            best = core
    if best is None:
        raise InfeasibleBudget(
            f"no block split of n={n} meets error {error_target} at degree "
            f"{degree_budget}; best errors per split: "
            + ", ".join(f"l={l}: {float(e):.4g}" for l, e in sorted(best_errors.items())),
            best_errors,
        )
    return best


def _trend_exponent(n: int, supp_size: int, eps: Fraction, budget: int) -> float:
    """n * log(supp/eps) * log(n) / budget: the upper-bound trend to compare
    measured weights against."""
    return n * math.log(float(supp_size / eps)) * math.log(n) / budget


def _block_count_poly(s: int, r: int) -> list[int]:
    """Coefficients of ((1+z)^s - 1)^r: subset sizes touching r fixed blocks."""
    base = [comb(s, i) for i in range(s + 1)]
    base[0] -= 1  # exclude the empty choice per block
    out = [1]
    for _ in range(r):
        out = ratpoly._mul(out, base)
    return out


def _kappa_sums(n: int, supp_weights: list[int]) -> list[int]:
    """sum over the support classes h of kappa_h(m) = kravchuk(n, n - h, m), the
    sign-flip multiplier a size-m parity coefficient picks up when the AND
    approximant is summed over all targets y of weight h."""
    return [sum(boolcube.kravchuk(n, n - h, m) for h in supp_weights) for m in range(n + 1)]


def _chat_from_core(
    n: int, ell: int, s: int, D: tuple[Fraction, ...], kappa: list[int]
) -> list[Fraction]:
    """Per-size parity coefficients of the symmetrised class-aggregated sum."""
    chat = [Fraction(0)] * (n + 1)
    for r, d_r in enumerate(D):
        if not d_r:
            continue
        counts = _block_count_poly(s, r)
        scale = comb(ell, r)
        for m, cnt in enumerate(counts):
            if cnt:
                chat[m] += d_r * scale * cnt * (-1) ** m
    for m in range(n + 1):
        if chat[m]:
            chat[m] = chat[m] * kappa[m] / comb(n, m)
    return chat


def _symmetric_values(chat: list[Fraction], n: int) -> list[Fraction]:
    """Value of the symmetric polynomial at each Hamming weight."""
    return [
        sum((chat[m] * boolcube.kravchuk(n, m, h) for m in range(n + 1) if chat[m]), Fraction(0))
        for h in range(n + 1)
    ]


def _max_error(values: list[Fraction], predicate) -> Fraction:
    return max(abs(v - p) for v, p in zip(values, predicate))


def low_weight_report(
    spec: SymmetricSpec, K: int, eps
) -> tuple[WeightDegreeReport, _AndCore | list[Fraction]]:
    """Low-weight degree-<=K approximant of a symmetric predicate, reported
    with the compact form it certified.

    Writes the minority side as a sum of point indicators over its support,
    approximates every indicator by one shared block-composed AND polynomial,
    aggregates weight-class by weight-class in closed form, symmetrises, and
    certifies the total error exactly at every Hamming weight.  The shared
    polynomial follows the union-bound target eps/|supp| when achievable and
    is otherwise re-optimised against the exact aggregate certificate.

    A support of one point, all bits zero or all bits one, keeps the block
    construction of that point's indicator, and the compact form is its
    ``_AndCore`` q; the approximant is q with every variable negated for the
    all-zeros point, and 1 - q when the middle value is 1, which only moves
    the constant coefficient D_0 to 1 - D_0.  Otherwise the compact form is
    the per-size parity coefficients chat of the symmetric approximant
    sum_m chat[m] sum_{|S| = m} chi_S.
    """
    eps = Fraction(eps)
    if K < 1:
        raise ValueError("K must be at least 1")
    n = spec.n
    complemented, work = _work_side(spec)
    supp_weights = [h for h, v in enumerate(work) if v]
    supp_size = sum(comb(n, h) for h in supp_weights)
    if supp_size == 0:
        chat = [Fraction(int(complemented))] + [Fraction(0)] * n
        return WeightDegreeReport(0, chat[0], Fraction(0), 0.0), chat
    bound_exponent = _trend_exponent(n, supp_size, eps, K)

    if supp_weights in ([0], [n]):
        # a single point indicator: the direct construction, unchanged
        core = _and_approx_core(n, K, eps)
        weight = core.weight()
        if complemented:
            weight += abs(1 - core.D[0]) - abs(core.D[0])
        return WeightDegreeReport(core.degree, weight, core.error, bound_exponent), core

    per_term = eps / supp_size
    kappa = _kappa_sums(n, supp_weights)
    candidates: list[tuple[Fraction, int, list[Fraction], Fraction]] = []
    for ell in _divisors(n):
        core = _and_core_for_split(n, ell, K)
        if core.error > per_term:
            continue
        chat = _chat_from_core(n, ell, core.s, core.D, kappa)
        error = _max_error(_symmetric_values(chat, n), work)
        if error > eps:
            raise PropertyViolation(
                f"aggregate error {error} exceeded eps={eps} despite the union bound"
            )
        weight = _chat_weight(chat, n, complemented)
        candidates.append((weight, ell, chat, error))
    best_errors: dict[int, Fraction] = {}
    if not candidates:
        # no split meets the per-term target: optimise the shared outer
        # polynomial against the exact aggregate certificate instead
        for ell in _divisors(n):
            s = n // ell
            d_out = min(ell, K // s)
            chat, error = _aggregate_optimal(n, ell, s, d_out, work, kappa)
            best_errors[ell] = error
            if error <= eps:
                weight = _chat_weight(chat, n, complemented)
                candidates.append((weight, ell, chat, error))
    if not candidates:
        raise InfeasibleBudget(
            f"degree budget K={K} cannot reach error {eps} for this predicate; "
            "best certified error per split: "
            + ", ".join(f"l={l}: {float(e):.4g}" for l, e in sorted(best_errors.items())),
            best_errors,
        )
    weight, ell, chat, error = min(candidates, key=lambda c: (c[0], c[1]))
    if complemented:
        chat = [Fraction(1) - chat[0]] + [-v for v in chat[1:]]
        error = _max_error(_symmetric_values(chat, n), spec.predicate)
    degree = max((m for m, v in enumerate(chat) if v), default=0)
    return WeightDegreeReport(degree, weight, error, bound_exponent), chat


def _chat_weight(chat: list[Fraction], n: int, complemented: bool) -> Fraction:
    w = sum((comb(n, m) * abs(v) for m, v in enumerate(chat) if m and v), Fraction(0))
    head = abs(Fraction(1) - chat[0]) if complemented else abs(chat[0])
    return w + head


def _aggregate_optimal(
    n: int,
    ell: int,
    s: int,
    d_out: int,
    work: tuple[int, ...],
    kappa: list[int],
) -> tuple[list[Fraction], Fraction]:
    """Outer polynomial minimising the exact aggregated per-weight error.

    The map from the outer polynomial's values at block counts 0..ell to the
    aggregate's values at Hamming weights 0..n is linear; composing it with
    the Vandermonde in the polynomial coefficients gives a plain L-infinity
    fitting problem (``_aggregate_design``) solved by the exact LP.  The
    fitted polynomial is then pushed through the ``Fraction`` construction
    once more, and its certified error must equal the LP's: that checks the
    integer design against an independent route on every call.
    """
    rows = _aggregate_design(n, ell, s, d_out, kappa)
    fit = simplex.solve_linf_fit(rows, [Fraction(v) for v in work])
    p_values = [
        sum(fit.coeffs[r] * Fraction(j) ** r for r in range(d_out + 1))
        for j in range(ell + 1)
    ]
    D = _touched_block_coeffs(_finite_differences(p_values), ell, s)
    chat = _chat_from_core(n, ell, s, tuple(D), kappa)
    error = _max_error(_symmetric_values(chat, n), work)
    if error != fit.epsilon:
        raise PropertyViolation("aggregate map disagrees with the LP residuals")
    return chat, error


def _aggregate_design(
    n: int, ell: int, s: int, d_out: int, kappa: list[int]
) -> list[list[Fraction]]:
    """rows[h][r]: the aggregate's value at weight h when the outer polynomial
    is j -> j^r on block counts j = 0..ell.

    Built in integers over the common denominator 2^(s ell) lcm_m C(n, m).
    The unit vector e_j has finite differences Delta^u e_j(0) =
    (-1)^(u-j) C(u, j), so its touched-block coefficient D_r times 2^(s ell)
    is sum_{u >= r} C(ell-r, u-r) (-1)^(u-j) C(u, j) 2^(s (ell-u)); the size-m
    parity coefficient and the value at weight h follow as in
    ``_chat_from_core`` and ``_symmetric_values``.
    """
    big_l = lcm(*(comb(n, m) for m in range(n + 1)))
    per_size = [(-1) ** m * kappa[m] * (big_l // comb(n, m)) for m in range(n + 1)]
    counts = [_block_count_poly(s, r) for r in range(ell + 1)]
    table = [[boolcube.kravchuk(n, m, h) for h in range(n + 1)] for m in range(n + 1)]
    columns = []
    for j in range(ell + 1):
        chat = [0] * (n + 1)
        for r in range(ell + 1):
            d_r = sum(
                (comb(ell - r, u - r) * (-1) ** (u - j) * comb(u, j)) << (s * (ell - u))
                for u in range(max(r, j), ell + 1)
            )
            if d_r:
                d_r *= comb(ell, r)
                for m, cnt in enumerate(counts[r]):
                    chat[m] += d_r * cnt
        terms = [(v * w, table[m]) for m, (v, w) in enumerate(zip(chat, per_size)) if v * w]
        columns.append([sum(v * row[h] for v, row in terms) for h in range(n + 1)])
    den = big_l << (s * ell)
    return [
        [
            Fraction(sum(col[h] * j**r for j, col in enumerate(columns)), den)
            for r in range(d_out + 1)
        ]
        for h in range(n + 1)
    ]


def _work_side(spec: SymmetricSpec) -> tuple[bool, tuple[int, ...]]:
    """(complemented, work): the side of the predicate written as a sum of
    point indicators, the complement 1 - f when f's middle value is 1, and
    when f has no middle, when f accepts fewer strings than it rejects."""
    n, pred = spec.n, spec.predicate
    mid = pred[spec.k_f + 1 : n - spec.k_f]
    if mid:
        complemented = mid[0] == 1
    else:
        ones = sum(comb(n, h) for h, v in enumerate(pred) if v)
        complemented = ones < (1 << n) - ones
    return complemented, tuple(1 - v for v in pred) if complemented else pred


def weight_lower_bound(
    cert: simplex.MinimaxSolution, K: int, target_error
) -> Fraction | float:
    """Certified floor on the weight of any degree-<=K approximant with error
    <= target_error, from the witness's largest character pairing.

    The certificate must be a weight-grid minimax solution whose error exceeds
    target_error (InvalidInput otherwise: it then certifies nothing).  Its
    dual measure psi puts mass psi_h on weight class h, spread evenly over
    the class, so the pairing with chi_S depends on r = |S| alone: it is the
    Kravchuk row sum_h psi_h K_r(h; n) / C(n, r).  Returns math.inf when every
    pairing up to size K vanishes (then no weight suffices at that degree).
    """
    target_error = Fraction(target_error)
    if cert.epsilon <= target_error:
        raise InvalidInput(
            f"certificate error {cert.epsilon} does not exceed the target "
            f"{target_error}, so it bounds no weight"
        )
    n = approxlab.grid_n(cert)
    top = min(K, n)
    rows = boolcube._kravchuk_rows(n, top)
    best = max(
        (abs(Fraction(sum(map(mul, cert.psi, rows[r])), comb(n, r))) for r in range(top + 1)),
        default=Fraction(0),
    )
    if best == 0:
        return math.inf
    return (cert.epsilon - target_error) / best
