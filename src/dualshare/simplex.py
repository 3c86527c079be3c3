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
it.  All arithmetic is exact; the result is certified by the same audit as
the LP path before returning.

General design matrices (``solve_linf_fit``) go through a textbook two-phase
primal simplex with Bland's anti-cycling rule on a fraction-free integer
tableau (integer-preserving pivots, Edmonds 1967 and Bareiss 1968).  The LP
is the moment form of the fit: variables are the positive and negative parts
of a signed measure psi on the rows, constrained to annihilate every design
column and to have unit total variation, maximising the pairing with the
target values.  Its dual variables are the fit coefficients together with the
error.  The artificial columns are kept through phase two (barred from
entering), which makes them a running copy of D B^{-1} (D the basis
determinant) and lets the dual vector be read off the final tableau.  No
floating point enters either path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import PropertyViolation
from .ratpoly import RationalPoly


class SimplexError(Exception):
    pass


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

    The tableau is kept fraction-free.  Column j of [A | I | b] is scaled by
    sigma_j > 0 (the lcm of its denominators; 1 for the artificial columns)
    and the tableau is an integer matrix M over one denominator D > 0, the
    basis determinant (``tableau`` and ``det`` below): entry (i, j) of the
    rational tableau is sigma_basis[i] M[i][j] / (D sigma_j).  Positive
    column scales keep every reduced-cost sign, ratio order and tie, and zero
    test, so the pivots are those of the rational tableau.  Rows are never
    scaled: a row scale would change the phase-1 costs of the artificial
    columns and so Bland's choice.
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

    # artificial column n + i corresponds to original row i; column rhs is b
    sigma = [lcm(*(row[j].denominator for row in A)) for j in range(n)] + [1] * m
    sigma_b = lcm(*(v.denominator for v in b))
    rhs = n + m
    tableau = [
        [v.numerator * (sigma[j] // v.denominator) for j, v in enumerate(A[i])]
        + [int(i == k) for k in range(m)]
        + [b[i].numerator * (sigma_b // b[i].denominator)]
        for i in range(m)
    ]
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

        ``cost[j]`` is the objective coefficient times sigma_j and one common
        positive scale, so the reduced cost of column j has the sign of
        cost[j] D - sum_i cost[basis[i]] M[i][j].
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
                    # row[rhs] / a against the best ratio, cross-multiplied
                    new = row[rhs] * tableau[leave][enter]
                    best = tableau[leave][rhs] * a
                    if new < best or (new == best and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                raise SimplexError("unbounded")
            pivot(leave, enter)

    # phase 1: drive the artificial mass to zero
    run([0] * n + [-1] * m, rhs)
    if sum(tableau[i][rhs] for i in range(len(tableau)) if basis[i] >= n) != 0:
        raise SimplexError("infeasible")
    # pivot basic artificials out; rows that cannot be pivoted are redundant
    for i in range(len(tableau)):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    keep = [i for i in range(len(tableau)) if basis[i] < n]
    dropped_originals = {
        basis[i] - n for i in range(len(tableau)) if basis[i] >= n
    }
    tableau[:] = [tableau[i] for i in keep]
    basis[:] = [basis[i] for i in keep]

    # phase 2: original objective; artificials may not re-enter
    scale = lcm(*(v.denominator for v in c))
    cost = [v.numerator * (scale // v.denominator) * sigma[j] for j, v in enumerate(c)]
    run(cost + [0] * m, n)

    x = [Fraction(0)] * n
    for i, v in enumerate(basis):
        x[v] = Fraction(sigma[v] * tableau[i][rhs], det * sigma_b)
    value = Fraction(
        sum(cost[v] * tableau[i][rhs] for i, v in enumerate(basis)), scale * det * sigma_b
    )
    y = [Fraction(0)] * m
    for art in range(m):
        if art not in dropped_originals:
            y[art] = flips[art] * Fraction(
                sum(cost[v] * tableau[i][n + art] for i, v in enumerate(basis)),
                scale * det,
            )

    _audit(A, b, c, flips, x, value, y)
    return x, value, y


def _audit(A, b, c, flips, x, value, y) -> None:
    m, n = len(A), len(A[0])
    for i in range(m):
        lhs = sum(A[i][j] * x[j] for j in range(n) if x[j])
        if lhs != b[i]:
            raise PropertyViolation("primal infeasibility in the final tableau")
    if any(v < 0 for v in x):
        raise PropertyViolation("negative basic variable")
    for j in range(n):
        # A was stored row-flipped; undo the flips to audit against the input
        yaj = sum(y[i] * flips[i] * A[i][j] for i in range(m) if y[i])
        if yaj < c[j]:
            raise PropertyViolation("dual infeasibility at optimum")
        if x[j] > 0 and yaj != c[j]:
            raise PropertyViolation("complementary slackness violated")
    yb = sum(y[i] * flips[i] * b[i] for i in range(m) if y[i])
    if yb != value:
        raise PropertyViolation("strong duality gap")


@dataclass(frozen=True)
class LinfFit:
    coeffs: tuple[Fraction, ...]
    epsilon: Fraction
    psi: tuple[Fraction, ...]  # signed measure on the rows, total variation 1


def solve_linf_fit(rows: Sequence[Sequence[Fraction]], values: Sequence[Fraction]) -> LinfFit:
    """Exact Chebyshev fit min_a max_i |<rows_i, a> - values_i|.

    Returns the optimal coefficients, the optimal error, and the dual signed
    measure psi on the rows with  rows^T psi = 0,  sum |psi| = 1 (when the
    error is positive) and  <psi, values> = epsilon.  All optimality and
    complementary-slackness facts are checked before returning.  Polynomial
    designs on distinct points are faster through ``solve_minimax``.
    """
    rows = [[Fraction(v) for v in r] for r in rows]
    values = [Fraction(v) for v in values]
    m = len(rows)
    ncoef = len(rows[0]) if rows else 0
    if any(len(r) != ncoef for r in rows):
        raise ValueError("ragged design matrix")

    A = [[rows[i][r] for i in range(m)] + [-rows[i][r] for i in range(m)]
         for r in range(ncoef)]
    A.append([Fraction(1)] * (2 * m))
    b = [Fraction(0)] * ncoef + [Fraction(1)]
    c = values + [-v for v in values]

    x, eps, y = solve_lp(A, b, c)
    psi = tuple(x[i] - x[m + i] for i in range(m))
    coeffs = tuple(y[:ncoef])
    if y[ncoef] != eps:
        raise PropertyViolation("dual objective row disagrees with the LP value")

    residuals = [
        v - sum(a * r for a, r in zip(coeffs, row)) for row, v in zip(rows, values)
    ]
    moments = [
        sum(p * rows[i][j] for i, p in enumerate(psi) if p) for j in range(ncoef)
    ]
    _audit_fit(values, residuals, eps, psi, moments)
    return LinfFit(coeffs=coeffs, epsilon=eps, psi=psi)


def _audit_fit(values, residuals, eps, psi, moments) -> None:
    """Optimality certificate of a Chebyshev fit, checked exactly.

    ``residuals`` are the fit's errors at the points and ``moments`` the
    pairings of psi with every basis function.  The largest residual must be
    eps, psi must annihilate the basis and pair with the values to give eps,
    and when eps > 0 psi must have unit total variation with positive
    (negative) mass only where the residual is +eps (-eps).  Weak duality
    then proves that no fit does better.
    """
    if max(abs(r) for r in residuals) != eps:
        raise PropertyViolation("primal error does not match the optimum")
    if any(moments):
        raise PropertyViolation("dual measure fails the annihilation conditions")
    if eps > 0:
        if sum(abs(p) for p in psi) != 1:
            raise PropertyViolation("dual measure does not have unit total variation")
        for i, p in enumerate(psi):
            if p > 0 and residuals[i] != eps:
                raise PropertyViolation("slack point carries positive dual mass")
            if p < 0 and residuals[i] != -eps:
                raise PropertyViolation("slack point carries negative dual mass")
    if sum(p * v for p, v in zip(psi, values)) != eps:
        raise PropertyViolation("dual pairing does not reproduce the error")


@dataclass(frozen=True)
class MinimaxSolution:
    """Optimal degree-``degree`` fit on ``points`` and its dual certificate.

    ``psi[i]`` is the signed mass at ``points[i]``; its moments up to
    ``degree`` vanish, its total variation is 1 (when epsilon > 0) and its
    pairing with the values is ``epsilon`` (all audited by the solver).
    """

    points: tuple[Fraction, ...]
    degree: int
    poly: RationalPoly
    epsilon: Fraction
    psi: tuple[Fraction, ...]


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
    points = [Fraction(p) for p in points]
    values = [Fraction(v) for v in values]
    m = len(points)
    if not m or len(values) != m:
        raise ValueError("need at least one point and one value per point")
    if len(set(points)) != m:
        raise ValueError("points must be distinct")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    order = sorted(range(m), key=points.__getitem__)
    ts = [points[i] for i in order]
    fs = [values[i] for i in order]
    if m <= degree + 1:
        poly, eps = RationalPoly.interpolate(ts, fs), Fraction(0)
    else:
        poly, eps = _exchange(ts, fs, degree)
    residuals = _residuals(poly, points, values)
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
        lams = _levelling_weights([points[i] for i in support])
        sign = 1 if lams[0] * residuals[support[0]] > 0 else -1
        total = sum(abs(lam) for lam in lams)
        for i, lam in zip(support, lams):
            psi[i] = sign * lam / total
    moments = [
        sum(p * t**j for p, t in zip(psi, points) if p) for j in range(degree + 1)
    ]
    _audit_fit(values, residuals, eps, psi, moments)
    return MinimaxSolution(
        points=tuple(points), degree=degree, poly=poly, epsilon=eps, psi=tuple(psi)
    )


def _exchange(
    ts: list[Fraction], fs: list[Fraction], degree: int
) -> tuple[RationalPoly, Fraction]:
    """Single-point exchange on increasing points ts (at least degree+2 of
    them); returns the optimal polynomial and the minimax error."""
    m = len(ts)
    ref = [i * (m - 1) // (degree + 1) for i in range(degree + 2)]
    level = Fraction(-1)
    while True:
        lams = _levelling_weights([ts[i] for i in ref])
        h = sum(lam * fs[i] for lam, i in zip(lams, ref)) / sum(abs(lam) for lam in lams)
        if abs(h) <= level:
            raise SimplexError("levelled error did not increase across an exchange")
        level = abs(h)
        # the residual at reference point i is sign(lambda_i) * h; at h = 0
        # the weights' signs stand in, and the next exchange still raises |h|
        signs = [1 if (lam > 0) == (h >= 0) else -1 for lam in lams]
        poly = RationalPoly.interpolate(
            [ts[i] for i in ref[:-1]],
            [fs[i] - s * level for s, i in zip(signs, ref[:-1])],
        )
        residuals = _residuals(poly, ts, fs)
        k = max(range(m), key=lambda i: abs(residuals[i]))
        if abs(residuals[k]) == level:
            return poly, level
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


def _levelling_weights(xs: list[Fraction]) -> list[Fraction]:
    """lambda_i = 1 / prod_{j != i} (x_i - x_j), which annihilate every
    polynomial of degree below len(xs) - 1 and alternate in sign along
    increasing xs."""
    out = []
    for i, x in enumerate(xs):
        denom = Fraction(1)
        for j, y in enumerate(xs):
            if j != i:
                denom *= x - y
        out.append(1 / denom)
    return out


def _residuals(p: RationalPoly, ts, fs) -> list[Fraction]:
    """f - p(t) at every point, with the package's one exact evaluator
    (integer Horner in ``RationalPoly.__call__``)."""
    return [f - p(t) for t, f in zip(ts, fs)]
