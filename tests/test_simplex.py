from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualshare import simplex
from dualshare.errors import PropertyViolation
from dualshare.ratpoly import RationalPoly, weight_grid
from dualshare.simplex import SimplexError, solve_linf_fit, solve_minimax
from dualshare.weightdeg import _divisors
from oracles import (
    aggregate_design_fraction,
    kappa_sums,
    solve_lp_fraction,
    solve_lp_rational,
    solve_minimax_fraction,
)


def alternation_minimax(points, values, degree):
    """Independent oracle for discrete minimax error.

    Over every (degree+2)-point reference, the divided-difference null vector
    lambda_i = 1 / prod_{j != i} (t_i - t_j) annihilates all polynomials of
    degree <= degree; the levelled error of the reference is
    |sum lambda_i f_i| / sum |lambda_i| and the minimax error is the maximum
    over references.
    """
    m = len(points)
    if degree + 2 > m:
        return Fraction(0)
    best = Fraction(0)
    for subset in combinations(range(m), degree + 2):
        lams = []
        for i in subset:
            denom = Fraction(1)
            for j in subset:
                if j != i:
                    denom *= points[i] - points[j]
            lams.append(1 / denom)
        value = abs(sum(l * values[i] for l, i in zip(lams, subset)))
        best = max(best, value / sum(abs(l) for l in lams))
    return best


class TestSolveLP:
    """``simplex.solve_lp`` through the rational wrapper of the oracles."""

    def test_tiny_equality_lp(self):
        # max x0 + 2 x1 s.t. x0 + x1 = 1
        x, val, y = solve_lp_rational([[1, 1]], [1], [1, 2])
        assert x == [0, 1] and val == 2

    def test_dual_values(self):
        A = [[1, 1, 1], [1, 0, 2]]
        b = [4, 3]
        c = [3, 1, 4]
        x, val, y = solve_lp_rational(A, b, c)
        assert sum(a * v for a, v in zip(A[0], x)) == 4
        assert sum(a * v for a, v in zip(A[1], x)) == 3
        assert sum(yi * bi for yi, bi in zip(y, b)) == val

    def test_infeasible(self):
        with pytest.raises(SimplexError):
            solve_lp_rational([[1, 1], [1, 1]], [1, 2], [1, 1])

    def test_unbounded(self):
        with pytest.raises(SimplexError):
            solve_lp_rational([[1, -1]], [0], [1, 0])

    def test_negative_rhs_rows(self):
        x, val, y = solve_lp_rational([[-1, -1]], [-1], [1, 2])
        assert val == 2

    def test_redundant_row_dropped(self):
        A = [[1, 1], [2, 2]]
        b = [1, 2]
        x, val, y = solve_lp_rational(A, b, [1, 0])
        assert val == 1

    def test_random_lps_vs_bruteforce_vertices(self, rng):
        # enumerate basic feasible solutions as the oracle
        for _ in range(25):
            m, n = 2, rng.randint(3, 5)
            A = [
                [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)
            ]
            b = [Fraction(rng.randint(0, 4)) for _ in range(m)]
            c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            best = None
            for cols in combinations(range(n), m):
                a11, a12 = A[0][cols[0]], A[0][cols[1]]
                a21, a22 = A[1][cols[0]], A[1][cols[1]]
                det = a11 * a22 - a12 * a21
                if det == 0:
                    continue
                x1 = (b[0] * a22 - a12 * b[1]) / det
                x2 = (a11 * b[1] - b[0] * a21) / det
                if x1 >= 0 and x2 >= 0:
                    v = c[cols[0]] * x1 + c[cols[1]] * x2
                    best = v if best is None else max(best, v)
            try:
                x, val, y = solve_lp_rational(A, b, c)
            except SimplexError:
                continue  # oracle below only covers bounded/feasible cases
            if best is not None:
                assert val >= best  # LP optimum dominates every vertex


_ENTRY = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=4)
)


@st.composite
def lp_instances(draw):
    """Rational A, b, c with zero columns, negative b, small entries (so
    ratio ties and degenerate vertices are common) and, at times, a last row
    that is a multiple of the first, with a right-hand side that may or may
    not match (a redundant row, or an infeasible pair)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    A = [draw(st.lists(_ENTRY, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(_ENTRY, min_size=m, max_size=m))
    c = draw(st.lists(_ENTRY, min_size=n, max_size=n))
    if m > 1 and draw(st.booleans()):
        f = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        A[-1] = [f * v for v in A[0]]
        if draw(st.booleans()):
            b[-1] = f * b[0]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in A:
            row[j] = Fraction(0)
    return A, b, c


# phase 1 ends with the artificial of row 0 basic at level 0; driving it out
# pivots on -4, and phase 2 then pivots once more (b negated in two rows)
NEGATIVE_PIVOT_OUT = (
    [[-2, 2, -2], [-3, -1, -1], [0, 0, 0]],
    [-2, -1, 0],
    [0, Fraction(-2, 3), Fraction(1, 2)],
)
# a degenerate phase 1 in which the artificial column of row 0, having left
# the basis, enters again; the dual optimum is not unique, and barring the
# re-entry would return another one
ARTIFICIAL_REENTERS = ([[-2, 1], [-1, 1], [1, 2]], [0, 0, 0], [1, 1])


def _outcome(solve, A, b, c):
    try:
        return solve(A, b, c)
    except SimplexError as exc:
        return str(exc)


def _value(solve, A, b, c):
    try:
        return solve(A, b, c)[1]
    except SimplexError as exc:
        return str(exc)


def _bland(A, b, c):
    return solve_lp_fraction(A, b, c, bland=True)


class TestIntegerTableauAgainstFractionOracle:
    """The fraction-free tableau takes the Fraction tableau's pivots, so
    (x, value, y), or the error, must be identical.  Under Bland's rule the
    oracle may reach another optimal vertex, never another optimal value or
    verdict."""

    @settings(max_examples=200, deadline=None)
    @given(lp_instances())
    def test_same_outcome(self, lp):
        assert _outcome(solve_lp_rational, *lp) == _outcome(solve_lp_fraction, *lp)
        assert _value(solve_lp_rational, *lp) == _value(_bland, *lp)

    def test_pivot_out_on_a_negative_element(self):
        A, b, c = NEGATIVE_PIVOT_OUT
        pivots = []
        expected = solve_lp_fraction(A, b, c, pivots)
        assert any(phase == "out" and p < 0 for phase, _, _, p in pivots)
        assert any(phase == 2 for phase, _, _, _ in pivots)
        assert solve_lp_rational(A, b, c) == expected

    def test_artificial_column_reenters_in_phase_1(self):
        A, b, c = ARTIFICIAL_REENTERS
        pivots = []
        expected = solve_lp_fraction(A, b, c, pivots)
        assert any(phase == 1 and col >= len(c) for phase, _, col, _ in pivots)
        assert solve_lp_rational(A, b, c) == expected

    def test_larger_random_lps(self, rng):
        for _ in range(20):
            m, n = rng.randint(4, 8), rng.randint(8, 16)
            A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
                 for _ in range(m)]
            b = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(m)]
            c = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
            assert _outcome(solve_lp_rational, A, b, c) == _outcome(solve_lp_fraction, A, b, c)
            assert _value(solve_lp_rational, A, b, c) == _value(_bland, A, b, c)


def _moment_lp(rows, values):
    """The moment LP of ``solve_linf_fit``: A, b and c in rationals, before
    ``solve_linf_fit`` scales them to integers."""
    m, ncoef = len(rows), len(rows[0])
    A = [[rows[i][r] for i in range(m)] + [-rows[i][r] for i in range(m)]
         for r in range(ncoef)]
    A.append([1] * (2 * m))
    return A, [0] * ncoef + [1], [*values, *(-v for v in values)]


class TestPricing:
    def test_pivots_on_the_majority_fits(self):
        # the six aggregate fits of weight-bound --f maj --n 12 --K 6: 60
        # pivots against Bland's 175, the same optimal errors, and the
        # integer solver returns the oracle's fit
        n, K = 12, 6
        work = [int(2 * h > n) for h in range(n + 1)]
        kappa = kappa_sums(n, [h for h in range(n + 1) if work[h]])
        counts = {False: 0, True: 0}
        for ell in _divisors(n):
            rows = aggregate_design_fraction(n, ell, n // ell, min(ell, K // (n // ell)), kappa)
            lp = _moment_lp(rows, work)
            values = set()
            for bland in counts:
                pivots = []
                x, value, y = solve_lp_fraction(*lp, pivots, bland=bland)
                counts[bland] += len(pivots)
                values.add(value)
                if not bland:
                    assert solve_lp_rational(*lp) == (x, value, y)
                    assert solve_linf_fit(rows, work) == (tuple(y[:len(rows[0])]), value)
            assert len(values) == 1
        assert counts == {False: 60, True: 175}


class TestMinimax:
    def test_three_point_reference(self):
        sol = solve_minimax([0, 1, 2], [0, 0, 1], 1)
        assert sol.epsilon == Fraction(1, 4)
        residuals = [
            f - sol.poly(t) for t, f in zip([0, 1, 2], [0, 0, 1])
        ]
        assert sorted(abs(r) for r in residuals) == [Fraction(1, 4)] * 3
        signs = [1 if r > 0 else -1 for r in residuals]
        assert signs in ([1, -1, 1], [-1, 1, -1])

    def test_constant_fit(self):
        assert solve_minimax([0, 1], [0, 1], 0).epsilon == Fraction(1, 2)

    def test_exact_interpolation(self):
        sol = solve_minimax([0, 1, 2, 3], [1, 3, 9, 19], 2)
        assert sol.epsilon == 0
        assert sol.poly(5) == 51  # 2t^2 + 1 - the data really is quadratic

    def test_against_alternation_oracle(self, rng):
        for _ in range(30):
            m = rng.randint(2, 8)
            k = rng.randint(0, m - 2)
            pts = sorted(rng.sample(range(-6, 12), m))
            vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
            sol = solve_minimax([Fraction(p) for p in pts], vals, k)
            assert sol.epsilon == alternation_minimax(
                [Fraction(p) for p in pts], vals, k
            )

    def test_exchange_matches_lp_on_vandermonde_rows(self, rng):
        # the simplex on the same design is the differential oracle; points
        # come increasing, decreasing (as weight grids do) and unsorted
        for trial in range(60):
            if trial % 3 == 0:
                n = rng.randint(1, 12)
                pts = list(weight_grid(n))
                vals = [Fraction(rng.randint(0, 1)) for _ in pts]
            else:
                m = rng.randint(2, 8)
                pts = [Fraction(p) for p in rng.sample(range(-7, 12), m)]
                if trial % 3 == 1:
                    pts.sort(reverse=rng.random() < 0.5)
                vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in pts]
            k = rng.randint(0, len(pts) - 1)
            sol = solve_minimax(pts, vals, k)
            coeffs, epsilon = solve_linf_fit([[t**j for j in range(k + 1)] for t in pts], vals)
            assert sol.epsilon == epsilon
            assert sol.poly.coeffs == RationalPoly.from_coeffs(coeffs).coeffs
            residuals = [v - sol.poly(t) for t, v in zip(pts, vals)]
            for j in range(k + 1):
                assert sum(p * t**j for p, t in zip(sol.psi, pts)) == 0
            assert sum(p * v for p, v in zip(sol.psi, vals)) == sol.epsilon
            if sol.epsilon > 0:
                assert sum(abs(p) for p in sol.psi) == 1
                for p, r in zip(sol.psi, residuals):
                    assert p == 0 or r == (sol.epsilon if p > 0 else -sol.epsilon)

    def test_degenerate_optimum_takes_the_canonical_support(self):
        # AND_12 at degree 2 attains its error at h = 5 and h = 6 with the
        # same sign; walking from h = 0 takes h = 5, as the LP's vertex does
        values = [Fraction(int(h == 12)) for h in range(13)]
        sol = solve_minimax(weight_grid(12), values, 2)
        assert [h for h, p in enumerate(sol.psi) if p] == [0, 5, 11, 12]
        # given in increasing order, the walk starts at h = 12 and takes h = 6
        rev = solve_minimax(weight_grid(12)[::-1], values[::-1], 2)
        assert [12 - i for i, p in enumerate(rev.psi) if p] == [12, 11, 6, 0]

    @pytest.mark.parametrize(
        "points, values, degree",
        [([0, 1, 2], [0, 1, 0], 2), ([0, 1, 2, 3], [1, 3, 9, 19], 2)],
    )
    def test_zero_error_has_zero_measure(self, points, values, degree):
        sol = solve_minimax(points, values, degree)
        assert sol.epsilon == 0
        assert sol.psi == (0,) * len(points)
        assert [sol.poly(t) for t in points] == values

    def test_degree_beyond_points_returns_least_interpolant(self):
        sol = solve_minimax([0, 1, 2], [0, 1, 0], 3)
        assert sol.poly == RationalPoly.of(0, 2, -1)
        assert sol.epsilon == 0

    def test_stalled_exchange_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "_swap_in", lambda ref, signs, k, sign: ref)
        with pytest.raises(SimplexError):
            solve_minimax([0, 1, 2, 3], [0, 0, 0, 1], 1)

    def test_dual_certificate_properties(self, rng):
        for _ in range(10):
            m = rng.randint(3, 7)
            k = rng.randint(0, m - 3)
            pts = sorted(rng.sample(range(0, 14), m))
            vals = [Fraction(rng.randint(0, 5)) for _ in range(m)]
            sol = solve_minimax([Fraction(p) for p in pts], vals, k)
            if sol.epsilon == 0:
                continue
            assert sum(abs(p) for p in sol.psi) == 1
            for j in range(k + 1):
                assert sum(p * Fraction(t) ** j for p, t in zip(sol.psi, pts)) == 0
            assert sum(p * v for p, v in zip(sol.psi, vals)) == sol.epsilon

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            solve_minimax([1, 1, 2], [0, 0, 1], 1)


class TestLinfFit:
    def test_general_design_matrix(self):
        # fit a + b * g(i) for a non-polynomial feature column
        rows = [[Fraction(1), Fraction(v)] for v in (0, 1, 4, 9)]
        values = [Fraction(0), Fraction(1), Fraction(2), Fraction(3)]
        coeffs, epsilon = solve_linf_fit(rows, values)
        worst = max(
            abs(v - (coeffs[0] + coeffs[1] * r[1]))
            for r, v in zip(rows, values)
        )
        assert worst == epsilon

    def test_zero_residual_keeps_degenerate_dual(self):
        rows = [[Fraction(1)], [Fraction(1)]]
        assert solve_linf_fit(rows, [Fraction(2), Fraction(2)]) == ((Fraction(2),), 0)


_POINT = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def minimax_instances(draw):
    """Distinct rational points given sorted, reversed or as drawn, with
    rational values, 0/1 values (ties are common, on weight grids too), or
    the values of a polynomial of the fitted degree (epsilon = 0); the degree
    runs up to m, so m <= degree + 1 occurs."""
    if draw(st.booleans()):
        pts = list(weight_grid(draw(st.integers(1, 14))))
    else:
        pts = draw(st.lists(_POINT, min_size=1, max_size=9, unique=True))
    arrangement = draw(st.sampled_from(["sorted", "reversed", "as drawn"]))
    if arrangement != "as drawn":
        pts.sort(reverse=arrangement == "reversed")
    degree = draw(st.integers(0, len(pts)))
    kind = draw(st.sampled_from(["rational", "boolean", "polynomial"]))
    if kind == "rational":
        vals = draw(st.lists(_POINT, min_size=len(pts), max_size=len(pts)))
    elif kind == "boolean":
        vals = draw(st.lists(st.integers(0, 1), min_size=len(pts), max_size=len(pts)))
    else:
        p = RationalPoly.from_coeffs(
            draw(st.lists(_POINT, min_size=degree + 1, max_size=degree + 1)))
        vals = [p(t) for t in pts]
    return pts, vals, degree


class TestIntegerExchangeAgainstFractionOracle:
    """The integer exchange must return the Fraction exchange's optimum:
    the same polynomial, error and tie-ruled psi."""

    @settings(max_examples=300, deadline=None)
    @given(minimax_instances())
    def test_same_solution(self, instance):
        pts, vals, degree = instance
        sol = solve_minimax(pts, vals, degree)
        assert (sol.poly, sol.epsilon, sol.psi) == solve_minimax_fraction(pts, vals, degree)
        assert all(type(p) is Fraction for p in (*sol.psi, sol.epsilon, *sol.poly.coeffs))

    def test_degenerate_ties_from_both_ends(self):
        values = [Fraction(int(h == 12)) for h in range(13)]
        for pts, vals in ((weight_grid(12), values), (weight_grid(12)[::-1], values[::-1])):
            sol = solve_minimax(pts, vals, 2)
            assert (sol.poly, sol.epsilon, sol.psi) == solve_minimax_fraction(pts, vals, 2)

    def test_large_weight_grid(self):
        n = 48
        values = [int(2 * h > n) for h in range(n + 1)]
        sol = solve_minimax(weight_grid(n), values, 9)
        assert (sol.poly, sol.epsilon, sol.psi) == solve_minimax_fraction(
            weight_grid(n), values, 9)


@st.composite
def fit_instances(draw):
    m, ncoef = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rows = [draw(st.lists(_ENTRY, min_size=ncoef, max_size=ncoef)) for _ in range(m)]
    return rows, draw(st.lists(_ENTRY, min_size=m, max_size=m))


def _fit_through_fraction_lp(rows, values):
    """(coeffs, epsilon, psi) from the moment LP solved on the Fraction tableau."""
    m, ncoef = len(rows), len(rows[0])
    x, eps, y = solve_lp_fraction(*_moment_lp(rows, values))
    return tuple(y[:ncoef]), eps, tuple(x[i] - x[m + i] for i in range(m))


class TestLinfFitAgainstFractionLP:
    @settings(max_examples=150, deadline=None)
    @given(fit_instances())
    def test_same_fit(self, instance):
        rows, values = instance
        try:
            expected = _fit_through_fraction_lp(rows, values)
        except SimplexError as exc:
            with pytest.raises(SimplexError, match=str(exc)):
                solve_linf_fit(rows, values)
            return
        assert solve_linf_fit(rows, values) == expected[:2]


def _audited(monkeypatch, name, call):
    """The arguments of the last call the solver made to ``simplex.<name>``."""
    seen = []
    real = getattr(simplex, name)

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(simplex, name, spy)
    call()
    monkeypatch.setattr(simplex, name, real)
    real(*seen[-1])  # the unperturbed certificate passes
    return real, list(seen[-1])


def _perturbed(args, slot, i):
    out = list(args)
    out[slot] = list(out[slot])
    out[slot][i] += 1
    return out


class TestIntegerAuditsCatchPerturbations:
    """One unit added to a single residual, psi, X or Y entry of a certified
    optimum must make the integer audit raise, and so must a residual above
    the error off psi's support (dual infeasibility of the LP)."""

    @pytest.mark.parametrize("call", [
        lambda: solve_minimax([0, 1, 2, 3, 5], [0, 1, 0, 2, 1], 2),
        lambda: solve_minimax(weight_grid(9), [int(h >= 5) for h in range(10)], 3),
        lambda: solve_linf_fit([[1, Fraction(v, 3)] for v in (0, 1, 4, 9, 16)],
                               [0, 1, Fraction(5, 2), 3, 2]),
    ])
    def test_fit_audit(self, monkeypatch, call):
        audit, args = _audited(monkeypatch, "_audit_fit", call)
        residuals, psi = args[1], args[4]
        support = [i for i, p in enumerate(psi) if p]
        assert len(support) >= 2 and args[2] > 0
        for slot, entries in ((1, support), (4, range(len(psi)))):
            for i in entries:
                with pytest.raises(PropertyViolation):
                    audit(*_perturbed(args, slot, i))
        for i in set(range(len(psi))) - set(support):
            above = list(args)
            above[1] = [args[2] + 1 if j == i else r for j, r in enumerate(residuals)]
            with pytest.raises(PropertyViolation, match="primal error"):
                audit(*above)

    def test_fit_audit_catches_a_perturbed_lp_optimum(self, monkeypatch):
        # the fit's audit is the only check of solve_lp's optimum: one unit
        # added to any single entry of its X or Y must fail it.  The design
        # has no zero column, so every coefficient moves some residual.
        rows = [[1, Fraction(v, 3)] for v in (0, 1, 4, 9, 16)]
        values = [0, 1, Fraction(5, 2), 3, 2]
        real = simplex.solve_lp
        returned = []
        monkeypatch.setattr(simplex, "solve_lp",
                            lambda *lp: returned.append(real(*lp)) or returned[-1])
        assert solve_linf_fit(rows, values)[1] > 0
        X, Y, _ = returned[-1]
        for slot, entries in ((0, range(len(X))), (1, range(len(Y)))):
            for i in entries:
                monkeypatch.setattr(simplex, "solve_lp",
                                    lambda *lp, slot=slot, i=i: _perturbed(real(*lp), slot, i))
                with pytest.raises(PropertyViolation):
                    solve_linf_fit(rows, values)
