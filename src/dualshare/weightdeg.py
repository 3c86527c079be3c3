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

Each split is worked on integers from start to finish: the outer
polynomial's values at the block counts (read off its integer form), their
finite differences, the touched-block coefficients, the per-size parity
coefficients, the values per Hamming weight, the error and the weight are
all numerators over one denominator per split.  ``_BlockTables`` holds what
every split of a call shares.  ``Fraction``s are made once, for the values
reported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, lcm

from . import approxlab, boolcube, ratpoly, simplex
from .errors import InfeasibleBudget, InvalidInput, PropertyViolation


class WeightDegreeReport:
    __slots__ = ("degree", "weight", "error", "bound_exponent")

    def __init__(self, degree: int, weight: Fraction, error: Fraction,
                 bound_exponent: float | None):
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


def _differences(values: list[int]) -> list[int]:
    """Multilinear coefficients over 0/1 block indicators, c_u = Delta^u p(0),
    from the values p(0..ell)."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def _outer_differences(coeffs, ell: int) -> tuple[list[int], int]:
    """(c, den): the differences of the outer polynomial sum coeffs[r] j^r
    at block counts j = 0..ell, as integers c_u / den, read off its integer
    form."""
    nums, den = ratpoly._over_lcm(coeffs)
    return _differences(list(ratpoly._scaled_values(nums, range(ell + 1), 1))), den


def _touched_block_coeffs(c: list[int], ell: int, s: int) -> list[int]:
    """2^(s ell) D_r for each touched-block count r, over the denominator of
    the multilinear coefficients c.

    The parity coefficient of a subset S touching r blocks is
    (-1)^{|S|} D_r with D_r = sum_{u >= r} C(ell-r, u-r) c_u 2^{-su}.
    """
    return [
        sum(comb(ell - r, u - r) * c[u] << s * (ell - u) for u in range(r, ell + 1) if c[u])
        for r in range(ell + 1)
    ]


class _AndCore:
    """Outer/inner decomposition data for the n-bit AND approximant."""

    __slots__ = ("ell", "s", "error", "D", "den")

    def __init__(self, ell: int, s: int, error: Fraction, D: list[int], den: int):
        self.ell = ell  # number of blocks
        self.s = s  # block size
        self.error = error  # max_j |p(j) - [j == ell]|
        self.D = D  # parity coefficient per touched-block count, times den
        self.den = den

    @property
    def degree(self) -> int:
        top = max((r for r, v in enumerate(self.D) if v), default=0)
        return self.s * top

    def scaled_weight(self, complemented: bool) -> int:
        """The parity weight times den, of 1 - q (D_0 -> den - D_0) when ``complemented``."""
        per_block = (1 << self.s) - 1
        D = [self.den - self.D[0], *self.D[1:]] if complemented else self.D
        return sum(comb(self.ell, r) * per_block**r * abs(v) for r, v in enumerate(D) if v)


def _and_core_for_split(n: int, ell: int, degree_budget: int) -> _AndCore:
    s = n // ell
    outer_degree = min(ell, degree_budget // s)
    sol = simplex.solve_minimax(range(ell + 1), [0] * ell + [1], outer_degree)
    c, den = _outer_differences(sol.poly.coeffs, ell)
    if any(c[outer_degree + 1 :]):
        raise PropertyViolation("outer polynomial has differences above its degree")
    return _AndCore(ell, s, sol.epsilon, _touched_block_coeffs(c, ell, s), den << n)


def _exceeds(num: int, den: int, bound: Fraction) -> bool:
    """num / den > bound, for den > 0."""
    return num * bound.denominator > bound.numerator * den


def _and_approx_core(n: int, degree_budget: int, error_target: Fraction,
                     complemented: bool) -> _AndCore:
    """Best split: exhaustive over divisors of n, least weight (of 1 - q when
    ``complemented``) subject to degree <= budget and certified error <=
    target (ties to fewer blocks), and the least constant, after the splits."""
    if degree_budget < 1:
        raise ValueError("degree budget must be at least 1")
    cores = [_and_core_for_split(n, ell, degree_budget) for ell in _divisors(n)]
    c = _least_constant(error_target)
    if c is not None:  # one block, D_0 = c, or 1 - c when complemented
        head = 1 - c if complemented else c
        cores.append(_AndCore(1, n, 1 - c, [head.numerator, 0], head.denominator))
    feasible = [core for core in cores if core.error <= error_target]
    if not feasible:
        best_errors = {core.ell: core.error for core in cores}
        raise InfeasibleBudget(
            f"no block split of n={n} meets error {error_target} at degree "
            f"{degree_budget}; best errors per split: "
            + ", ".join(f"l={l}: {float(e):.4g}" for l, e in sorted(best_errors.items())),
            best_errors,
        )
    return min(feasible, key=lambda core: Fraction(core.scaled_weight(complemented), core.den))


def _least_constant(eps: Fraction) -> Fraction | None:
    """max(0, 1 - eps), the lightest constant c within eps of both 0 and 1
    (its error is 1 - c); None below eps = 1/2, where no constant is."""
    return max(Fraction(0), 1 - eps) if 2 * eps >= 1 else None


def _trend_exponent(n: int, supp_size: int, eps: Fraction, budget: int) -> float | None:
    """n * log(supp/eps) * log(n) / budget: the upper-bound trend to compare
    measured weights against; None where supp/eps is not a finite positive
    double (eps = 0, which only an exact fit meets, or eps beyond the range of
    a double)."""
    try:
        ratio = float(supp_size / eps) if eps else 0.0
    except OverflowError:  # above the largest double
        return None
    return n * math.log(ratio) * math.log(n) / budget if ratio else None


def _block_count_poly(s: int, r: int) -> list[int]:
    """Coefficients of ((1+z)^s - 1)^r: subset sizes touching r fixed blocks."""
    base = [comb(s, i) for i in range(s + 1)]
    base[0] -= 1  # exclude the empty choice per block
    out = [1]
    for _ in range(r):
        out = ratpoly._mul(out, base)
    return out


class _BlockTables:
    """What every block split of one call shares, on n variables with the
    support classes ``supp_weights`` of the side written as point
    indicators: the Kravchuk rows K_m(h) for m, h <= n, the block-count
    polynomials of each block size, and per size m the factor
    (-1)^m kappa(m) L / C(n, m), with L the lcm of the C(n, m) and
    kappa(m) = sum over the support classes h of K_(n-h)(m), the sign-flip
    multiplier a size-m parity coefficient picks up when the AND
    approximant is summed over all targets y of weight h."""

    __slots__ = ("n", "rows", "big_l", "per_size", "counts")

    def __init__(self, n: int, supp_weights: list[int]):
        self.n = n
        self.rows = boolcube.kravchuk_table(n)
        self.big_l = lcm(*(comb(n, m) for m in range(n + 1)))
        self.per_size = [
            (-1) ** m * sum(self.rows[n - h][m] for h in supp_weights) * (self.big_l // comb(n, m))
            for m in range(n + 1)
        ]
        self.counts = {s: [_block_count_poly(s, r) for r in range(n // s + 1)]
                       for s in _divisors(n)}

    def chat(self, D: list[int], ell: int) -> list[int]:
        """L times the per-size parity coefficients of the symmetrised,
        class-aggregated sum of the AND approximant with touched-block
        coefficients D (all over D's denominator)."""
        out = [0] * (self.n + 1)
        for r, (d, counts) in enumerate(zip(D, self.counts[self.n // ell])):
            if d:
                d *= comb(ell, r)
                for m, cnt in enumerate(counts):
                    out[m] += d * cnt
        return [v * f for v, f in zip(out, self.per_size)]

    def values(self, chat: list[int]) -> list[int]:
        """The symmetric polynomial sum_m chat[m] sum_{|S| = m} chi_S at
        each Hamming weight."""
        terms = [(v, row) for v, row in zip(chat, self.rows) if v]
        return [sum(v * row[h] for v, row in terms) for h in range(self.n + 1)]

    def certificate(self, D: list[int], ell: int, den: int, work) -> tuple[list[int], int, int]:
        """(chat, den', error): the aggregate of the core with touched-block
        coefficients D / den, as per-size parity coefficients chat / den',
        and its largest error against ``work`` over all Hamming weights,
        error / den'."""
        chat = self.chat(D, ell)
        den *= self.big_l
        error = max(abs(v - w * den) for v, w in zip(self.values(chat), work))
        return chat, den, error


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
    sum_m chat[m] sum_{|S| = m} chi_S.  From eps = 1/2 up the lightest
    constant within eps, max(0, 1 - eps), competes on both branches, after
    the constructions.
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
    if eps < 0:
        raise InvalidInput(f"eps must be nonnegative, got {eps}")
    bound_exponent = _trend_exponent(n, supp_size, eps, K)

    if supp_weights in ([0], [n]):
        # a single point indicator: the direct construction, unchanged
        core = _and_approx_core(n, K, eps, complemented)
        weight = Fraction(core.scaled_weight(complemented), core.den)
        return WeightDegreeReport(core.degree, weight, core.error, bound_exponent), core

    tables = _BlockTables(n, supp_weights)
    # (weight, den, chat, error) per split that meets eps, in split order:
    # weight, chat and error over den
    candidates: list[tuple[int, int, list[int], int]] = []
    for ell in _divisors(n):
        core = _and_core_for_split(n, ell, K)
        if _exceeds(core.error.numerator * supp_size, core.error.denominator, eps):
            continue  # misses the per-term target eps / |supp|
        chat, den, error = tables.certificate(core.D, ell, core.den, work)
        if _exceeds(error, den, eps):
            raise PropertyViolation(
                f"aggregate error {Fraction(error, den)} exceeded eps={eps} despite the union bound"
            )
        candidates.append((_chat_weight(chat, den, complemented), den, chat, error))
    best_errors: dict[int, Fraction] = {}
    if not candidates:
        # no split meets the per-term target: optimise the shared outer
        # polynomial against the exact aggregate certificate instead
        for ell in _divisors(n):
            chat, den, error = _aggregate_optimal(tables, ell, min(ell, K // (n // ell)), work)
            if _exceeds(error, den, eps):
                best_errors[ell] = Fraction(error, den)
            else:
                candidates.append((_chat_weight(chat, den, complemented), den, chat, error))
    c = _least_constant(eps)
    if c is not None:  # its weight c once complemented back, its error 1 - c
        chat = [(1 - c if complemented else c).numerator] + [0] * n
        candidates.append((c.numerator, c.denominator, chat, c.denominator - c.numerator))
    if not candidates:
        raise InfeasibleBudget(
            f"degree budget K={K} cannot reach error {eps} for this predicate; "
            "best certified error per split: "
            + ", ".join(f"l={l}: {float(e):.4g}" for l, e in sorted(best_errors.items())),
            best_errors,
        )
    weight, den, chat, error = candidates[0]
    for cand in candidates[1:]:  # least weight, ties to fewer blocks
        if cand[0] * den < weight * cand[1]:
            weight, den, chat, error = cand
    if complemented:
        chat = [den - chat[0]] + [-v for v in chat[1:]]
    degree = max((m for m, v in enumerate(chat) if v), default=0)
    return (WeightDegreeReport(degree, Fraction(weight, den), Fraction(error, den), bound_exponent),
            [Fraction(v, den) for v in chat])


def _chat_weight(chat: list[int], den: int, complemented: bool) -> int:
    """den times the parity weight of sum_m chat[m] / den sum_{|S| = m} chi_S,
    or of 1 minus it when ``complemented``."""
    n = len(chat) - 1
    head = den - chat[0] if complemented else chat[0]
    return abs(head) + sum(comb(n, m) * abs(v) for m, v in enumerate(chat) if m and v)


def _aggregate_optimal(
    tables: _BlockTables, ell: int, d_out: int, work: tuple[int, ...]
) -> tuple[list[int], int, int]:
    """Outer polynomial minimising the exact aggregated per-weight error,
    as ``_BlockTables.certificate`` reports it.

    The map from the outer polynomial's values at block counts 0..ell to the
    aggregate's values at Hamming weights 0..n is linear; composing it with
    the Vandermonde in the polynomial coefficients gives a plain L-infinity
    fitting problem (``_aggregate_design``) solved by the exact LP.  The
    fitted polynomial is then pushed through the construction once more, and
    its certified error must equal the LP's: that checks the design, built
    from unit vectors, against the fitted polynomial's own route on every
    call.
    """
    coeffs, epsilon = simplex.solve_linf_fit(_aggregate_design(tables, ell, d_out), work)
    s = tables.n // ell
    c, den = _outer_differences(coeffs, ell)
    chat, den, error = tables.certificate(_touched_block_coeffs(c, ell, s), ell, den << tables.n,
                                          work)
    if error * epsilon.denominator != epsilon.numerator * den:
        raise PropertyViolation("aggregate map disagrees with the LP residuals")
    return chat, den, error


def _aggregate_design(tables: _BlockTables, ell: int, d_out: int) -> list[list[Fraction]]:
    """rows[h][r]: the aggregate's value at weight h when the outer polynomial
    is j -> j^r on block counts j = 0..ell, each column built like any
    outer polynomial's certificate, over the common denominator 2^n L."""
    s = tables.n // ell
    columns = [
        tables.values(tables.chat(
            _touched_block_coeffs(_differences([j**r for j in range(ell + 1)]), ell, s), ell))
        for r in range(d_out + 1)
    ]
    den = tables.big_l << tables.n
    return [[Fraction(v, den) for v in row] for row in zip(*columns)]


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
    <= target_error: such a polynomial of weight W correlates with the
    witness psi by at most W times its largest pairing with a chi_S, |S| <= K
    (``boolcube.dual_pairings``).

    The certificate must be a weight-grid minimax solution whose error exceeds
    target_error (InvalidInput otherwise: it then certifies nothing).  Returns
    math.inf when every pairing up to size K vanishes (then no weight
    suffices at that degree).
    """
    target_error = Fraction(target_error)
    if cert.epsilon <= target_error:
        raise InvalidInput(
            f"certificate error {cert.epsilon} does not exceed the target "
            f"{target_error}, so it bounds no weight"
        )
    n = approxlab.grid_n(cert)
    pairings, _ = boolcube.dual_pairings(cert.psi, (n,), range(min(K, n) + 1))
    if not pairings:
        return math.inf
    return (cert.epsilon - target_error) / max(map(abs, pairings.values()))
