"""Exact discrete Chebyshev approximation: polynomial exchange and the moment LP.

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
primal simplex on a fraction-free integer tableau (integer-preserving
pivots, Edmonds 1967 and Bareiss 1968).  The column of largest reduced cost
enters (Dantzig, *Linear Programming and Extensions*, 1963), with Bland's
rule (*Math. Oper. Res.* 2, 1977) taking over after a run of degenerate
pivots, so the method cannot cycle.  The LP
is the moment form of the fit: variables are the positive and negative parts
of a signed measure psi on the rows, constrained to annihilate every design
column and to have unit total variation, maximising the pairing with the
target values.  Its dual variables are the fit coefficients together with the
error.  The artificial columns are kept through phase two (barred from
entering), which makes them a running copy of D B^{-1} (D the basis
determinant) and lets the dual vector be read off the final tableau.
``solve_lp`` takes and returns integers, and ``_audit_fit``, the one check
both paths share, certifies its optimum as a fit.  No floating point enters
either path.
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


def solve_lp(
    A: Sequence[Sequence[int]], b: Sequence[int], c: Sequence[int], scales: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Maximise c.x subject to A x = b, x >= 0 on integers, b >= 0, with
    sigma_j = scales[j] > 0 the scale of column j.

    Returns (X, Y, det): X / det is a primal optimum and Y / det a dual one,
    det > 0 the final basis determinant; ``solve_linf_fit`` audits them.
    Raises SimplexError when infeasible or unbounded.

    The integers are a rational LP with column j and its cost scaled by
    sigma_j, and the costs by a positive factor.  The tableau starts as
    [A | I | b] and stays an integer matrix over one denominator det, the
    basis determinant.  Positive column scales keep every ratio order and
    tie and every zero test, and column j's reduced cost is the rational
    one times sigma_j and a positive factor common to all columns, so
    pricing on reduced costs divided by sigma_j takes the pivots of the
    rational tableau.  Rows are never scaled: a row scale would change the
    phase-1 costs of the artificial columns and so the pricing.
    """
    m, n = len(A), len(A[0])
    # artificial column n + i corresponds to row i; column rhs_col is rhs
    rhs_col = n + m
    tableau = [list(row) + [int(i == k) for k in range(m)] + [r]
               for i, (row, r) in enumerate(zip(A, b))]
    det = 1
    basis = list(range(n, n + m))
    scales = [*scales, *[1] * m]
    # the reduced-cost rows det c_j - sum_i c_basis[i] tableau[i][j] of the
    # phase-1 costs (-1 on the artificials, which start basic) and of the
    # phase-2 costs; pivots keep them integral like any other row
    phase1 = [sum(col) for col in zip(*tableau)]
    phase1[n:rhs_col] = [0] * m
    phase2 = list(c) + [0] * (m + 1)
    objectives = [phase1, phase2]

    def pivot(row: int, col: int) -> None:
        """Integer-preserving pivot (Edmonds; Bareiss): every entry stays a
        minor of the scaled input, so each division by det is exact."""
        nonlocal det
        p, w = tableau[row][col], tableau[row]
        for rows in (tableau, objectives):
            for r, v in enumerate(rows):
                if v is not w:
                    f = v[col]
                    rows[r] = [(a * p - f * z) // det for a, z in zip(v, w)]
        det = p
        if p < 0:
            for rows in (tableau, objectives):
                rows[:] = [[-v for v in r] for r in rows]
            det = -p
        basis[row] = col

    def run(which: int, allowed: int) -> None:
        """Pivot until the reduced-cost row objectives[which] has no positive
        entry among the first ``allowed`` columns.

        Largest rational reduced cost enters (ties to the smallest column),
        the smallest basic column leaves among ratio ties.  After as many
        consecutive degenerate pivots as there are rows, Bland's rule (the
        smallest improving column enters) takes over until a pivot moves the
        objective, so the method cannot cycle.

        Column j's integer reduced cost is its rational one times det, the
        cost scale and sigma_j, so dividing by sigma_j ranks the columns as
        the rational tableau does."""
        stalled = 0
        while True:
            z = objectives[which]
            enter = -1
            for j in range(allowed):
                v = z[j]
                if v > 0:
                    if enter < 0:
                        enter = j
                        if stalled >= len(tableau):
                            break
                    elif v * scales[enter] > z[enter] * scales[j]:
                        enter = j
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
            stalled = 0 if tableau[leave][rhs_col] else stalled + 1
            pivot(leave, enter)

    # phase 1: drive the artificial mass to zero
    run(0, rhs_col)
    if objectives[0][rhs_col] != 0:
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
    run(1, n)

    # X / det is the optimum of the integer LP and Y / det its dual, read
    # off the phase-2 row under the artificial columns (whose cost is 0)
    X = [0] * n
    for i, v in enumerate(basis):
        X[v] = tableau[i][rhs_col]
    Y = [0 if art in dropped else -objectives[1][n + art] for art in range(m)]
    return X, Y, det


def solve_linf_fit(
    rows: Sequence[Sequence[Fraction]], values: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Exact Chebyshev fit min_a max_i |<rows_i, a> - values_i|.

    Returns (coeffs, epsilon), the optimal coefficients and error.  The
    LP's dual signed measure psi on the rows, with  rows^T psi = 0,
    sum |psi| = 1 (when the error is positive) and  <psi, values> = epsilon,
    certifies them: ``_audit_fit`` checks every optimality fact of the LP
    in fit form before returning.  Polynomial designs on distinct points
    are faster through ``solve_minimax``.

    Row i scaled by sigma_i (the lcm of its denominators) is design_i and
    the values scaled by F are g.  LP column i is (design_i, sigma_i) and
    column m + i is (-design_i, sigma_i), both of scale sigma_i, with costs
    +-g_i sigma_i, so psi_i = sigma_i (X_i - X_{m+i}) / det, coefficient r
    is Y_r / (F det) and the error Y_ncoef / (F det).
    """
    m = len(rows)
    ncoef = len(rows[0]) if rows else 0
    if any(len(r) != ncoef for r in rows):
        raise ValueError("ragged design matrix")
    design, sigma = zip(*map(ratpoly._over_lcm, rows))
    gs, big_f = ratpoly._over_lcm(values)
    A = [[d[k] for d in design] + [-d[k] for d in design] for k in range(ncoef)]
    cost = [g * s for g, s in zip(gs, sigma)]
    X, Y, det = solve_lp([*A, sigma + sigma], [0] * ncoef + [1], cost + [-v for v in cost],
                         sigma + sigma)
    # over lam, the lcm of the row scales, row i is lam / sigma_i times
    # design[i] and residual i is R_i / (F det lam)
    lam = lcm(*sigma)
    residuals = [
        lam * det * g - (lam // s) * sum(yr * a for yr, a in zip(Y, row) if yr)
        for g, s, row in zip(gs, sigma, design)
    ]
    _audit_fit(gs, residuals, Y[ncoef] * lam, det * lam,
               [s * (X[i] - X[m + i]) for i, s in enumerate(sigma)], det,
               lambda i: [lam // sigma[i] * a for a in design[i]])
    return tuple(Fraction(y, big_f * det) for y in Y[:ncoef]), Fraction(Y[ncoef], big_f * det)


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
