"""Exact discrete Chebyshev approximation: polynomial exchange and general LP.

Polynomial minimax on distinct points (``solve_minimax``) runs Stiefel's
single-point exchange, the discrete form of Remez's algorithm (Cheney,
*Introduction to Approximation Theory*, ch. 2).  Powers up to the degree
satisfy the Haar condition on distinct points, so the optimum is levelled on
a reference of degree+2 points: the divided-difference weights
lambda_i = 1 / prod_{j != i} (t_i - t_j) annihilate every polynomial of that
degree, the levelled error of a reference is h = sum lambda_i f_i /
sum |lambda_i|, and swapping in the point of largest residual (keeping the
residual signs alternating) strictly increases |h| until no residual exceeds
it.  The exchange runs on one scaled integer form: the points u_i = L t_i and
the values g_i = F f_i (L and F the lcms of their denominators), levelling
weights Q / prod_{j != i} (u_i - u_j) over the lcm Q of those products, and
every residual read from the Lagrange form of the levelled interpolant over
one common denominator (Berrut & Trefethen, *SIAM Review* 46, 2004).  The
scaling (``_over_lcm``), the weights (``_weights``) and the Lagrange form
(``_lagrange``) are ``ratpoly``'s integer kernel.  The ``RationalPoly`` is
built once, at the end, after the certificate has passed the audit on the
same integers.

General design matrices (``solve_linf_fit``) go through a textbook two-phase
primal simplex with Bland's anti-cycling rule on a fraction-free integer
tableau (integer-preserving pivots, Edmonds 1967 and Bareiss 1968).  The LP
is the moment form of the fit: variables are the positive and negative parts
of a signed measure psi on the rows, constrained to annihilate every design
column and to have unit total variation, maximising the pairing with the
target values.  Its dual variables are the fit coefficients together with the
error.  The artificial columns are kept through phase two (barred from
entering), which makes them a running copy of D B^{-1} (D the basis
determinant) and lets the dual vector be read off the final tableau.  The LP
optimum is audited on the scaled integer columns the tableau is built from.
No floating point enters either path.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import ratpoly
from .errors import PropertyViolation


class SimplexError(Exception):
    pass


def _exact(v):
    """v as an exact rational; ints and Fractions pass through unconverted."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def solve_lp(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> tuple[list[Fraction], Fraction, list[Fraction]]:
    """Maximise c.x subject to A x = b, x >= 0 (all exact rationals).

    Returns (x, value, y) where y is a dual optimum: y.A_j >= c_j for all j,
    with equality whenever x_j > 0, and y.b == value == c.x.  These facts are
    checked on the result (PropertyViolation otherwise).  Raises SimplexError
    when infeasible or unbounded.

    The tableau is kept fraction-free.  Row i of A and b is negated when
    b_i < 0, column j of A is scaled by sigma_j > 0 (the lcm of its
    denominators), b by sigma_b and c by the lcm of its denominators times
    sigma_j.  The tableau starts as [cols | I | rhs] on those integer
    columns and stays an integer matrix over one denominator det > 0, the
    basis determinant.  Positive column scales keep every reduced-cost sign,
    ratio order and tie, and zero test, so the pivots are those of the
    rational tableau.  Rows are never scaled: a row scale would change the
    phase-1 costs of the artificial columns and so Bland's choice.
    """
    A = [[_exact(v) for v in row] for row in A]
    b = [_exact(v) for v in b]
    c = [_exact(v) for v in c]
    flips = [-1 if v < 0 else 1 for v in b]
    columns, sigma = zip(*(ratpoly._over_lcm(col) for col in zip(*A)))
    cols = [[f * v for v in row] for row, f in zip(zip(*columns), flips)]
    rhs, sigma_b = ratpoly._over_lcm(b)
    rhs = [f * v for v, f in zip(rhs, flips)]
    cost, scale = ratpoly._over_lcm(c)
    cost = [v * s for v, s in zip(cost, sigma)]

    m, n = len(cols), len(cols[0])
    # artificial column n + i corresponds to row i; column rhs_col is rhs
    rhs_col = n + m
    tableau = [row + [int(i == k) for k in range(m)] + [r]
               for i, (row, r) in enumerate(zip(cols, rhs))]
    det = 1
    basis = list(range(n, n + m))

    def pivot(row: int, col: int) -> None:
        """Integer-preserving pivot (Edmonds; Bareiss): every entry stays a
        minor of the scaled input, so each division by det is exact."""
        nonlocal det
        p, w = tableau[row][col], tableau[row]
        for r, v in enumerate(tableau):
            if r != row:
                f = v[col]
                tableau[r] = [(a * p - f * z) // det for a, z in zip(v, w)]
        det = p
        if p < 0:
            tableau[:] = [[-v for v in r] for r in tableau]
            det = -p
        basis[row] = col

    def run(cost: list[int], allowed: int) -> None:
        """Bland's rule: smallest improving column enters, smallest basic leaves.

        The reduced cost of column j has the sign of
        cost[j] det - sum_i cost[basis[i]] tableau[i][j].
        """
        while True:
            cb = [(cost[v], tableau[i]) for i, v in enumerate(basis) if cost[v]]
            in_basis = set(basis)
            enter = -1
            for j in range(allowed):
                if j not in in_basis and cost[j] * det > sum(cv * row[j] for cv, row in cb):
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            for i, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    # row[rhs_col] / a against the best ratio, cross-multiplied
                    new = row[rhs_col] * tableau[leave][enter]
                    best = tableau[leave][rhs_col] * a
                    if new < best or (new == best and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise SimplexError("unbounded")
            pivot(leave, enter)

    # phase 1: drive the artificial mass to zero
    run([0] * n + [-1] * m, rhs_col)
    if sum(tableau[i][rhs_col] for i in range(len(tableau)) if basis[i] >= n) != 0:
        raise SimplexError("infeasible")
    # pivot basic artificials out; rows that cannot be pivoted are redundant
    for i in range(len(tableau)):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    keep = [i for i in range(len(tableau)) if basis[i] < n]
    dropped = {basis[i] - n for i in range(len(tableau)) if basis[i] >= n}
    tableau[:] = [tableau[i] for i in keep]
    basis[:] = [basis[i] for i in keep]

    # phase 2: original objective; artificials may not re-enter
    run(cost + [0] * m, n)

    # X / det is the optimum of the integer LP and Y / det its dual
    X = [0] * n
    for i, v in enumerate(basis):
        X[v] = tableau[i][rhs_col]
    Y = [0 if art in dropped else
         sum(cost[v] * tableau[i][n + art] for i, v in enumerate(basis))
         for art in range(m)]
    _audit(cols, rhs, cost, det, X, Y)
    x = [Fraction(s * v, det * sigma_b) for s, v in zip(sigma, X)]
    value = Fraction(sum(cv * v for cv, v in zip(cost, X) if v), scale * det * sigma_b)
    y = [f * Fraction(v, scale * det) for f, v in zip(flips, Y)]
    return x, value, y


def _audit(cols, rhs, cost, det, X, Y) -> None:
    """Optimality of (X / det, Y / det) for max cost.X s.t. cols X = rhs,
    X >= 0, checked on the integers: primal feasibility, dual feasibility,
    complementary slackness and a zero duality gap."""
    for row, r in zip(cols, rhs):
        if sum(a * v for a, v in zip(row, X) if v) != det * r:
            raise PropertyViolation("primal infeasibility in the final tableau")
    if any(v < 0 for v in X):
        raise PropertyViolation("negative basic variable")
    for j, cj in enumerate(cost):
        yaj = sum(y * row[j] for y, row in zip(Y, cols) if y)
        if yaj < det * cj:
            raise PropertyViolation("dual infeasibility at optimum")
        if X[j] > 0 and yaj != det * cj:
            raise PropertyViolation("complementary slackness violated")
    if sum(y * r for y, r in zip(Y, rhs)) != sum(cj * v for cj, v in zip(cost, X)):
        raise PropertyViolation("strong duality gap")


class LinfFit:
    __slots__ = ("coeffs", "epsilon")

    def __init__(self, coeffs: tuple[Fraction, ...], epsilon: Fraction):
        self.coeffs = coeffs
        self.epsilon = epsilon


def solve_linf_fit(rows: Sequence[Sequence[Fraction]], values: Sequence[Fraction]) -> LinfFit:
    """Exact Chebyshev fit min_a max_i |<rows_i, a> - values_i|.

    Returns the optimal coefficients and the optimal error.  The LP's dual
    signed measure psi on the rows, with  rows^T psi = 0,  sum |psi| = 1
    (when the error is positive) and  <psi, values> = epsilon, certifies
    them: all optimality and complementary-slackness facts are checked
    before returning.  Polynomial
    designs on distinct points are faster through ``solve_minimax``.

    The input is scaled to integers once: row i by sigma_i (the lcm of its
    denominators), the values by F.  The LP handed to ``solve_lp`` is the
    moment LP with its column pair (i, m + i) scaled by sigma_i and its
    objective by F, so its pivots are those of the rational LP.
    """
    rows = [[_exact(v) for v in r] for r in rows]
    values = [_exact(v) for v in values]
    m = len(rows)
    ncoef = len(rows[0]) if rows else 0
    if any(len(r) != ncoef for r in rows):
        raise ValueError("ragged design matrix")
    scaled = [ratpoly._over_lcm(r) for r in rows]
    design, sigma = [d for d, _ in scaled], [s for _, s in scaled]
    gs, big_f = ratpoly._over_lcm(values)

    A = [[d[r] for d in design] + [-d[r] for d in design] for r in range(ncoef)]
    A.append(sigma + sigma)
    cost = [g * s for g, s in zip(gs, sigma)]
    x, value, y = solve_lp(A, [0] * ncoef + [1], cost + [-v for v in cost])
    # the scaled LP's x, value and y over one denominator: x = X / den, ...
    nums, den = ratpoly._over_lcm([*x, value, *y])
    X, V, Y = nums[:2 * m], nums[2 * m], nums[2 * m + 1:]
    if Y[ncoef] != V:
        raise PropertyViolation("dual objective row disagrees with the LP value")

    # psi_i = psi[i] / den and coefficient r is Y_r / (F den); over lam, the
    # lcm of the row scales, row i is lam / sigma_i times design[i] and
    # residual i is R_i / (F den lam)
    psi = [s * (X[i] - X[m + i]) for i, s in enumerate(sigma)]
    lam = lcm(*sigma)
    residuals = [
        lam * den * g - lam // s * sum(yr * a for yr, a in zip(Y, row) if yr)
        for g, s, row in zip(gs, sigma, design)
    ]
    _audit_fit(gs, residuals, V * lam, den * lam, psi, den,
               lambda i: [lam // sigma[i] * a for a in design[i]])
    return LinfFit(
        coeffs=tuple(Fraction(v, big_f * den) for v in Y[:ncoef]),
        epsilon=Fraction(V, big_f * den),
    )


def _audit_fit(gs, residuals, err, scale, psi, total, basis) -> None:
    """Optimality certificate of a Chebyshev fit, checked on integers.

    The values are g_i / F; the fit's residuals are residuals[i] / (scale F)
    and its error is err / (scale F); psi_i = psi[i] / total (total > 0); and
    ``basis(i)`` lists every basis function at point i, all over one positive
    denominator.  The largest residual must be the error, psi must
    annihilate the basis and pair with the values to give the error, and when
    the error is positive psi must have unit total variation with positive
    (negative) mass only where the residual is +err (-err).  Weak duality
    then proves that no fit does better.
    """
    if max(abs(r) for r in residuals) != err:
        raise PropertyViolation("primal error does not match the optimum")
    support = [i for i, p in enumerate(psi) if p]
    for column in zip(*(basis(i) for i in support)):
        if sum(psi[i] * v for i, v in zip(support, column)):
            raise PropertyViolation("dual measure fails the annihilation conditions")
    if err > 0:
        if sum(abs(p) for p in psi) != total:
            raise PropertyViolation("dual measure does not have unit total variation")
        for p, r in zip(psi, residuals):
            if p > 0 and r != err:
                raise PropertyViolation("slack point carries positive dual mass")
            if p < 0 and r != -err:
                raise PropertyViolation("slack point carries negative dual mass")
    if scale * sum(p * g for p, g in zip(psi, gs) if p) != err * total:
        raise PropertyViolation("dual pairing does not reproduce the error")


class MinimaxSolution:
    """Optimal degree-``degree`` fit on ``points`` and its dual certificate.

    ``psi[i]`` is the signed mass at ``points[i]``; its moments up to
    ``degree`` vanish, its total variation is 1 (when epsilon > 0) and its
    pairing with the values is ``epsilon`` (all audited by the solver).
    """

    __slots__ = ("points", "degree", "poly", "epsilon", "psi")

    def __init__(self, points: tuple[Fraction, ...], degree: int, poly: ratpoly.RationalPoly,
                 epsilon: Fraction, psi: tuple[Fraction, ...]):
        self.points = points
        self.degree = degree
        self.poly = poly
        self.epsilon = epsilon
        self.psi = psi


def solve_minimax(
    points: Sequence[Fraction], values: Sequence[Fraction], degree: int
) -> MinimaxSolution:
    """Exact minimax fit of a degree-<=degree polynomial on a finite point set.

    Returns the optimal polynomial, the optimal sup error on the points, and
    the dual signed measure psi with sum psi_i t_i^j = 0 for all j <= degree,
    sum |psi_i| = 1 (when epsilon > 0) and sum psi_i f_i = epsilon, indexed
    like the caller's points (which may come in any order).

    The polynomial is unique; psi is not when more than degree+2 points
    attain the error.  It is fixed by this rule: walk the points in sorted
    order, starting from the end nearer the caller's first point; take the
    first point whose residual is +-epsilon, then each next such point whose
    residual sign flips, until degree+2 points are taken; psi is their
    divided-difference weights, signed and normalised.  When epsilon = 0 psi
    is zero, and with fewer than degree+2 points the polynomial is the
    interpolant of least degree.
    """
    points = [ratpoly._frac(p) for p in points]
    values = [ratpoly._frac(v) for v in values]
    m = len(points)
    if not m or len(values) != m:
        raise ValueError("need at least one point and one value per point")
    if len(set(points)) != m:
        raise ValueError("points must be distinct")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    order = sorted(range(m), key=points.__getitem__)
    us, big_l = ratpoly._over_lcm([points[i] for i in order])
    gs, big_f = ratpoly._over_lcm([values[i] for i in order])
    if m <= degree + 1:
        weights, scale = ratpoly._weights(us)
        coeffs = ratpoly._lagrange(us, [g * w for g, w in zip(gs, weights)])
        residuals, err = _integer_residuals(coeffs, scale, us, gs), 0
    else:
        coeffs, scale, residuals, err = _exchange(us, gs, degree)
    # the fit is sum coeffs[j] u^j / scale in the scaled units; residual i is
    # residuals[i] / (scale F) at the i-th point in sorted order
    mass, total = [0] * m, 1
    if err > 0:
        walk = range(m - 1, -1, -1) if 2 * order.index(0) > m - 1 else range(m)
        support: list[int] = []
        for i in walk:
            r = residuals[i]
            if abs(r) == err and (not support or (r > 0) != (residuals[support[-1]] > 0)):
                support.append(i)
                if len(support) == degree + 2:
                    break
        if len(support) < degree + 2:
            raise SimplexError("optimum is not levelled on degree+2 alternating points")
        weights, _ = ratpoly._weights([us[i] for i in support])
        sign = 1 if weights[0] * residuals[support[0]] > 0 else -1
        total = sum(abs(w) for w in weights)
        for i, w in zip(support, weights):
            mass[i] = sign * w
    _audit_fit(gs, residuals, err, scale, mass, total,
               lambda i: [us[i] ** j for j in range(degree + 1)])

    psi = [Fraction(0)] * m
    for i, w in zip(order, mass):
        if w:
            psi[i] = Fraction(w, total)
    den = scale * big_f
    return MinimaxSolution(
        points=tuple(points),
        degree=degree,
        poly=ratpoly.RationalPoly.from_coeffs(  # t = u / L
            Fraction(c * big_l**j, den) for j, c in enumerate(coeffs)),
        epsilon=Fraction(err, den),
        psi=tuple(psi),
    )


def _exchange(
    us: list[int], gs: list[int], degree: int
) -> tuple[list[int], int, list[int], int]:
    """Single-point exchange on increasing integer points us (at least
    degree+2 of them) with integer values gs.

    Returns (coeffs, scale, residuals, err): the optimal polynomial is
    sum coeffs[j] u^j / scale, residuals[i] = scale gs[i] - sum coeffs[j] us[i]^j,
    and err = max |residuals[i]|.
    """
    m = len(us)
    ref = [i * (m - 1) // (degree + 1) for i in range(degree + 2)]
    best_num, best_den = -1, 1  # the previous |h|, as a fraction
    while True:
        xs = [us[i] for i in ref]
        weights, q = ratpoly._weights(xs)
        num = sum(w * gs[i] for w, i in zip(weights, ref))
        den = sum(abs(w) for w in weights)  # h = num / den
        if abs(num) * best_den <= best_num * den:
            raise SimplexError("levelled error did not increase across an exchange")
        best_num, best_den = abs(num), den
        # the residual at reference point i is sign(w_i) * h; at h = 0 the
        # weights' signs stand in, and the next exchange still raises |h|
        signs = [1 if (w > 0) == (num >= 0) else -1 for w in weights]
        # the levelled values den * (g_i - s_i |h|) at the first degree+1
        # reference points, times their Lagrange weights
        # q / prod_{j != i, j <= degree} (x_i - x_j) = w_i (x_i - x_last):
        # the interpolant of degree <= degree, times q den
        last = xs[-1]
        coeffs = ratpoly._lagrange(xs[:-1], [
            (den * gs[i] - s * best_num) * w * (x - last)
            for i, s, w, x in zip(ref[:-1], signs, weights, xs)
        ])
        scale, err = q * den, q * best_num
        residuals = _integer_residuals(coeffs, scale, us, gs)
        k = max(range(m), key=lambda i: abs(residuals[i]))
        if abs(residuals[k]) == err:
            return coeffs, scale, residuals, err
        ref = _swap_in(ref, signs, k, 1 if residuals[k] > 0 else -1)


def _swap_in(ref: list[int], signs: list[int], k: int, sign_k: int) -> list[int]:
    """Put point k into the reference so that residual signs still alternate."""
    pos = bisect_left(ref, k)
    if pos == 0:
        return [k] + (ref[1:] if signs[0] == sign_k else ref[:-1])
    if pos == len(ref):
        return (ref[:-1] if signs[-1] == sign_k else ref[1:]) + [k]
    out = list(ref)
    out[pos - 1 if signs[pos - 1] == sign_k else pos] = k
    return out


def _integer_residuals(
    coeffs: list[int], scale: int, us: list[int], gs: list[int]
) -> list[int]:
    """scale g - sum coeffs[j] u^j at every point, by integer Horner."""
    return [scale * g - v for g, v in zip(gs, ratpoly._scaled_values(coeffs, us, 1))]
