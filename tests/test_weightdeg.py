import math
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualshare.approxlab import approx_degree, minimax_on_weight_grid
from dualshare.errors import InfeasibleBudget, InvalidInput
from dualshare.simplex import solve_linf_fit, solve_minimax
from dualshare.weightdeg import (
    SymmetricSpec,
    _aggregate_design,
    _aggregate_optimal,
    _block_count_poly,
    _BlockTables,
    _chat_weight,
    _divisors,
    _outer_differences,
    _touched_block_coeffs,
    low_weight_report,
    weight_lower_bound,
)
from oracles import (
    ParityPoly,
    aggregate_certificate_fraction,
    aggregate_design_fraction,
    approx_eq_y,
    chat_weight_fraction,
    basis_convert,
    core_weight,
    cube_error,
    cube_pairing,
    expand_approximant,
    kappa_sums,
    kravchuk,
    kravchuk_weight_floor,
    solve_lp_rational,
)


def expanded_approximant(spec: SymmetricSpec, K: int, eps):
    """(poly, report): the report of ``low_weight_report`` and the
    approximant it certified, expanded over the cube, whose degree and
    weight must be the report's."""
    report, form = low_weight_report(spec, K, eps)
    poly = expand_approximant(spec, form)
    assert max(poly.degree(), 0) == report.degree
    assert poly.weight() == report.weight
    return poly, report


def min_weight_lp(values, n, K, target) -> Fraction:
    """Exact minimum parity weight of a degree-<=K approximant of a symmetric
    predicate within the target error (oracle via one LP).

    Symmetrising an approximant preserves the error bound and never raises
    the weight, so the optimum is attained by a symmetric polynomial: one
    variable per coefficient size-class, split into positive and negative
    parts, with value constraints at each Hamming weight.
    """
    target = Fraction(target)
    nvars = K + 1
    # variables: w_r^+ , w_r^- , slack pairs for each weight constraint
    # constraints: for each h: sum_r (w_r^+ - w_r^-) kravchuk(n,r,h) + s_h = f_h + target
    #              for each h: sum_r (w_r^+ - w_r^-) kravchuk(n,r,h) - u_h = f_h - target
    rows = []
    b = []
    ncols = 2 * nvars + 2 * (n + 1)
    for h in range(n + 1):
        row = [Fraction(0)] * ncols
        for r in range(nvars):
            row[2 * r] = Fraction(kravchuk(n, r, h))
            row[2 * r + 1] = -Fraction(kravchuk(n, r, h))
        row[2 * nvars + h] = Fraction(1)
        rows.append(row)
        b.append(Fraction(values[h]) + target)
    for h in range(n + 1):
        row = [Fraction(0)] * ncols
        for r in range(nvars):
            row[2 * r] = Fraction(kravchuk(n, r, h))
            row[2 * r + 1] = -Fraction(kravchuk(n, r, h))
        row[2 * nvars + (n + 1) + h] = Fraction(-1)
        rows.append(row)
        b.append(Fraction(values[h]) - target)
    # objective: minimise sum_r C(n,r) (w_r^+ + w_r^-)  ==  max the negation
    c = []
    for r in range(nvars):
        c += [-Fraction(comb(n, r)), -Fraction(comb(n, r))]
    c += [Fraction(0)] * (2 * (n + 1))
    x, val, _ = solve_lp_rational(rows, b, c)
    return -val


class TestApproxEqY:
    """The block core's closed-form degree, weight and error against its
    expansion over the cube (``core`` is the ``_AndCore``)."""

    def test_exact_and_small(self):
        poly, core = approx_eq_y(8, (1 << 8) - 1, 8, Fraction(1, 6))
        assert core.degree == poly.degree() == 8
        assert core_weight(core) == poly.weight() == 1
        assert core.error == 0
        assert cube_error(poly, lambda m: 1 if m == 255 else 0) == 0

    def test_n16_budget8(self):
        poly, core = approx_eq_y(16, (1 << 16) - 1, 8, Fraction(1, 6))
        assert core.degree == poly.degree() <= 8
        assert core.error <= Fraction(1, 6)
        assert poly.weight() == core_weight(core)

    def test_error_certificate_vs_cube(self):
        # the structural error (outer LP residuals) equals the exhaustive one
        for n, budget, target in ((8, 4, Fraction(1, 3)), (12, 6, Fraction(1, 4))):
            y = (1 << n) - 1
            poly, core = approx_eq_y(n, y, budget, target)
            assert cube_error(poly, lambda m: 1 if m == y else 0) == core.error
            assert (poly.degree(), poly.weight()) == (core.degree, core_weight(core))

    def test_retargeting_preserves_weight_and_error(self):
        n = 8
        _, base = approx_eq_y(n, (1 << n) - 1, 4, Fraction(1, 3))
        for y in (0, 0b10110101, 0b00001111):
            poly, core = approx_eq_y(n, y, 4, Fraction(1, 3))
            assert poly.weight() == core_weight(base)
            assert cube_error(poly, lambda m: 1 if m == y else 0) == base.error

    def test_inner_and_block_weight_one(self):
        # every exact multilinear AND block has parity weight exactly 1
        for s in (1, 2, 3, 5):
            assert basis_convert({(1 << s) - 1: Fraction(1)}, s).weight() == 1

    def test_infeasible_budget_lists_best_errors(self):
        with pytest.raises(InfeasibleBudget) as exc:
            approx_eq_y(8, (1 << 8) - 1, 1, Fraction(1, 100))
        assert set(exc.value.best_errors) == {1, 2, 4, 8}

    def test_trivial_split_matches_plain_minimax(self):
        # with one block per variable the construction is the plain minimax
        # polynomial in the Hamming weight
        n, budget = 8, 4
        _, core = approx_eq_y(n, (1 << n) - 1, budget, Fraction(1, 3))
        values = [Fraction(1 if h == n else 0) for h in range(n + 1)]
        eps = solve_minimax([Fraction(j) for j in range(n + 1)], values, budget).epsilon
        assert core.error <= max(eps, Fraction(1, 3))


class TestLowWeightApproximant:
    def test_and_reduces_to_single_indicator(self):
        n = 12
        spec = SymmetricSpec(n, tuple(1 if h == n else 0 for h in range(n + 1)))
        assert spec.k_f == 0
        poly, rep = expanded_approximant(spec, 4, Fraction(1, 3))
        assert rep.error <= Fraction(1, 3)
        assert rep.degree <= 4
        assert cube_error(
            poly, lambda m: 1 if m == (1 << n) - 1 else 0
        ) == rep.error

    def test_or_via_complement(self):
        n = 12
        and_spec = SymmetricSpec(n, tuple(1 if h == n else 0 for h in range(n + 1)))
        or_spec = SymmetricSpec(n, tuple(0 if h == 0 else 1 for h in range(n + 1)))
        _, rep_and = expanded_approximant(and_spec, 4, Fraction(1, 3))
        poly_or, rep_or = expanded_approximant(or_spec, 4, Fraction(1, 3))
        assert abs(rep_or.weight - rep_and.weight) <= 1
        assert rep_or.error <= Fraction(1, 3)
        assert cube_error(poly_or, lambda m: 0 if m == 0 else 1) == rep_or.error

    def test_exact_threshold_k_f(self):
        n = 12
        spec = SymmetricSpec(n, tuple(1 if h == n - 1 else 0 for h in range(n + 1)))
        assert spec.k_f == 1

    def test_exact_threshold_certified(self):
        n, K = 12, 8
        spec = SymmetricSpec(n, tuple(1 if h == n - 1 else 0 for h in range(n + 1)))
        poly, rep = expanded_approximant(spec, K, Fraction(1, 3))
        assert rep.error <= Fraction(1, 3)
        assert rep.degree <= K
        # certified error agrees with the exhaustive cube oracle
        assert cube_error(poly, lambda m: 1 if m.bit_count() == n - 1 else 0) == rep.error
        assert poly.weight() == rep.weight

    def test_aggregate_fallback_cells(self):
        # cells where no split meets the per-term union-bound target: the
        # shared polynomial is re-optimised against the exact certificate
        for n, K in ((12, 6), (16, 7)):
            spec = SymmetricSpec(n, tuple(1 if h == n - 1 else 0 for h in range(n + 1)))
            poly, rep = expanded_approximant(spec, K, Fraction(1, 3))
            assert rep.error <= Fraction(1, 3)
            assert rep.degree <= K

    def test_infeasible_raises(self):
        n = 8
        spec = SymmetricSpec(n, tuple(1 if h == n - 1 else 0 for h in range(n + 1)))
        with pytest.raises(InfeasibleBudget):
            expanded_approximant(spec, 2, Fraction(1, 100))

    def test_infeasible_budget_reports_only_certified_errors(self):
        # exact-half at n = 12, K = 4: no split meets the union bound, so each
        # split's reported error is its aggregate optimum, never the AND
        # core's per-term error (1/3 at l = 3 would contradict the message)
        n, K, eps = 12, 4, Fraction(1, 3)
        work = tuple(1 if h == n // 2 else 0 for h in range(n + 1))
        with pytest.raises(InfeasibleBudget) as exc:
            expanded_approximant(SymmetricSpec(n, work), K, eps)
        tables = _BlockTables(n, [n // 2])
        assert set(exc.value.best_errors) == set(_divisors(n))
        for ell, error in exc.value.best_errors.items():
            _, den, scaled = _aggregate_optimal(tables, ell, min(ell, K // (n // ell)), work)
            assert error > eps
            assert error == Fraction(scaled, den)


class TestBlockCountPoly:
    @pytest.mark.parametrize("s", range(1, 6))
    @pytest.mark.parametrize("r", range(0, 6))
    def test_matches_inclusion_exclusion(self, s, r):
        # ((1+z)^s - 1)^r = sum_i (-1)^(r-i) C(r, i) (1+z)^(s i)
        expected = [
            sum((-1) ** (r - i) * comb(r, i) * comb(s * i, m) for i in range(r + 1))
            for m in range(s * r + 1)
        ]
        assert _block_count_poly(s, r) == expected


class TestAggregateDesign:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n), min_size=1))
    ))
    def test_integer_design_matches_fraction_columns(self, case):
        # rows[h][r] does not depend on d_out, so one oracle build per split
        # covers every d_out as a prefix of each row
        n, supp = case
        kappa = kappa_sums(n, sorted(supp))
        tables = _BlockTables(n, sorted(supp))
        for ell in _divisors(n):
            full = aggregate_design_fraction(n, ell, n // ell, ell, kappa)
            for d_out in range(ell + 1):
                rows = _aggregate_design(tables, ell, d_out)
                assert rows == [row[: d_out + 1] for row in full]


class TestIntegerRouteAgainstFractionHelpers:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 14).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n), min_size=1))
    ))
    def test_every_split_and_outer_degree(self, case):
        # the fitted outer polynomial of every split and d_out, pushed through
        # the integer route and through the Fraction helpers: the same D,
        # chat, values, weight (plain and complemented) and error
        n, supp = case
        work = [int(h in supp) for h in range(n + 1)]
        kappa = kappa_sums(n, sorted(supp))
        tables = _BlockTables(n, sorted(supp))
        for ell in _divisors(n):
            full = aggregate_design_fraction(n, ell, n // ell, ell, kappa)
            for d_out in range(ell + 1):
                coeffs, epsilon = solve_linf_fit([row[: d_out + 1] for row in full], work)
                p_values = [sum(c * j**r for r, c in enumerate(coeffs)) for j in range(ell + 1)]
                D, chat, values, error = aggregate_certificate_fraction(
                    n, ell, p_values, kappa, work)
                c, den = _outer_differences(coeffs, ell)
                D_int = _touched_block_coeffs(c, ell, n // ell)
                assert [Fraction(v, den << n) for v in D_int] == D
                chat_int, den, error_int = tables.certificate(D_int, ell, den << n, work)
                assert [Fraction(v, den) for v in chat_int] == chat
                assert [Fraction(v, den) for v in tables.values(chat_int)] == values
                assert Fraction(error_int, den) == error == epsilon
                for complemented in (False, True):
                    assert (Fraction(_chat_weight(chat_int, den, complemented), den)
                            == chat_weight_fraction(chat, complemented))
                assert _aggregate_optimal(tables, ell, d_out, work) == (chat_int, den, error_int)


# the sweep cases (n <= 14, threshold and exact-weight predicates, every K,
# eps in {1/3, 1/10, 1/100}) whose report changed when the LP took the
# largest reduced cost: the fits there have more than one optimal vertex,
# and only the weight moved
_MOVED_SWEEP_CASES = [
    (10, 5, [int(h >= 3) for h in range(11)], Fraction(86, 21), Fraction(11, 42)),
    (10, 5, [int(h >= 8) for h in range(11)], Fraction(89, 28), Fraction(11, 42)),
    (13, 8, [int(h >= 4) for h in range(14)], Fraction(15804385, 1795584), Fraction(2971, 14028)),
    (13, 8, [int(h >= 10) for h in range(14)], Fraction(14008801, 1795584),
     Fraction(2971, 14028)),
    (14, 10, [int(h == 11) for h in range(15)], Fraction(11195249, 581376),
     Fraction(1105, 4542)),
]


class TestConstantHalf:
    """From eps = 1/2 up the lightest constant within eps of both 0 and 1,
    c = max(0, 1 - eps) with error 1 - c, is a candidate on both branches
    and in both orientations, and wins where it is lightest: the constant
    1/2 at eps = 1/2, 1/4 at eps = 3/4 and the zero polynomial from eps = 1."""

    @pytest.mark.parametrize("predicate, K, eps", [
        ([0] * 8 + [1], 8, Fraction(1, 2)),  # and: the single-point branch
        ([0] + [1] * 8, 8, Fraction(1, 2)),  # or: the same, complemented
        ([0] * 5 + [1] * 4, 8, Fraction(1)),  # maj: the symmetric branch
        ([0] * 5 + [1] * 4, 4, Fraction(10**400)),
        ([0] * 8 + [1], 3, Fraction(3, 4)),
        ([0] + [1] * 8, 3, Fraction(3, 4)),
        ([0] * 8 + [1], 8, Fraction(1)),
        ([0] + [1] * 8, 3, Fraction(5)),
        ([0] * 5 + [1] * 4, 8, Fraction(3, 4)),
        ([0] + [1] * 7 + [0], 3, Fraction(3, 4)),  # symmetric and complemented
        ([0] + [1] * 7 + [0], 3, Fraction(1)),
    ])
    def test_the_constant_wins_against_the_cube(self, predicate, K, eps):
        poly, rep = expanded_approximant(SymmetricSpec(8, tuple(predicate)), K, eps)
        weight = max(Fraction(0), 1 - eps)
        assert (rep.degree, rep.weight, rep.error) == (0, weight, 1 - weight)
        assert poly.coeffs == ({0: weight} if weight else {})
        assert cube_error(poly, lambda m: predicate[m.bit_count()]) == rep.error

    @pytest.mark.parametrize("predicate", [[0] * 8 + [1], [0] * 5 + [1] * 4])
    def test_below_one_half_it_is_not_offered(self, predicate):
        _, rep = expanded_approximant(SymmetricSpec(8, tuple(predicate)), 8,
                                      Fraction(49, 100))
        assert rep.degree == 8 and rep.error == 0


class TestMovedSweepCases:
    @pytest.mark.parametrize("n, K, predicate, weight, error", _MOVED_SWEEP_CASES)
    def test_against_the_cube(self, n, K, predicate, weight, error):
        poly, rep = expanded_approximant(SymmetricSpec(n, tuple(predicate)), K, Fraction(1, 3))
        assert (rep.degree, rep.weight, rep.error) == (K, weight, error)
        assert cube_error(poly, lambda m: predicate[m.bit_count()]) == error


class TestWeightLowerBound:
    def test_low_K_unbounded(self):
        # the degree-2 certificate has error 1/4 > 1/5, so no approximant of
        # degree <= 2 reaches 1/5, whatever its weight
        values = [1 if h == 6 else 0 for h in range(7)]
        cert = minimax_on_weight_grid(values, 2)
        assert weight_lower_bound(cert, 1, Fraction(1, 5)) == math.inf
        assert weight_lower_bound(cert, 2, Fraction(1, 5)) == math.inf

    @pytest.mark.parametrize(
        "values, degree, error, targets",
        [
            # AND_6 at degree 2, and MAJ_8 at degree 0 (a constant)
            ([1 if h == 6 else 0 for h in range(7)], 2, Fraction(1, 4),
             (Fraction(1, 4), Fraction(1, 3))),
            ([1 if 2 * h > 8 else 0 for h in range(9)], 0, Fraction(1, 2),
             (Fraction(1, 2), Fraction(2))),
        ],
    )
    def test_certificate_must_exceed_the_target(self, values, degree, error, targets):
        # a certificate whose error meets the target bounds nothing: an
        # approximant of that degree and finite weight exists, so no floor
        # (inf included) may be returned
        cert = minimax_on_weight_grid(values, degree)
        assert cert.epsilon == error
        for K in (1, 2, 3):
            for target in targets:
                with pytest.raises(InvalidInput):
                    weight_lower_bound(cert, K, target)

    def test_and6_bound_vs_exact_min_weight(self):
        # cross-check against the exact minimum-weight LP at n = 6
        n, K, eps = 6, 3, Fraction(1, 3)
        values = [1 if h == n else 0 for h in range(n + 1)]
        deg = approx_degree(values, eps)[0].degree
        cert = minimax_on_weight_grid(values, deg - 1)
        cert_eps = cert.epsilon
        assert cert_eps > eps
        bound = weight_lower_bound(cert, K, eps)
        assert bound > 0
        true_min = min_weight_lp(values, n, K, eps)
        assert bound <= true_min

    def test_sandwich_on_small_instances(self):
        # lower bound <= exact LP min weight <= constructive weight
        eps = Fraction(1, 3)
        for n in (6, 8):
            for name_vals in (
                [1 if h == n else 0 for h in range(n + 1)],
                [0 if h == 0 else 1 for h in range(n + 1)],
            ):
                deg = approx_degree(name_vals, eps)[0].degree
                for K in range(deg + 1, n // 2 + 1):
                    spec = SymmetricSpec(n, tuple(name_vals))
                    _, rep = expanded_approximant(spec, K, eps)
                    cert = minimax_on_weight_grid(name_vals, deg - 1)
                    bound = weight_lower_bound(cert, K, eps)
                    true_min = min_weight_lp(name_vals, n, K, eps)
                    assert bound <= true_min <= rep.weight

    def test_pairing_symmetry_against_cube(self):
        # the pairing of psi, spread evenly over each weight class, with chi_S
        # depends on |S| alone and equals the Kravchuk row the floor reads
        from itertools import combinations

        n = 6
        values = [1 if h == n else 0 for h in range(n + 1)]
        cert = minimax_on_weight_grid(values, 1)
        cube = [cert.psi[m.bit_count()] / comb(n, m.bit_count()) for m in range(1 << n)]
        for r in range(4):
            pairings = set()
            for subset in combinations(range(n), r):
                mask = sum(1 << i for i in subset)
                pairings.add(cube_pairing(cube, ParityPoly(n, {mask: Fraction(1)})))
            row = sum(p * kravchuk(n, r, h) for h, p in enumerate(cert.psi))
            assert pairings == {row / comb(n, r)}

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=n + 1, max_size=n + 1)),
        st.sampled_from([Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)]),
    )
    def test_kravchuk_floor_matches_cube_pairing(self, predicate, eps):
        # the floor against sum_x psi(|x|)/C(n,|x|) chi_[r](x) over the cube, every K
        n = len(predicate) - 1
        _, cert = approx_degree(predicate, eps)
        if cert is None:
            return
        cube = [cert.psi[m.bit_count()] / comb(n, m.bit_count()) for m in range(1 << n)]
        pairings = [abs(cube_pairing(cube, ParityPoly(n, {(1 << r) - 1: Fraction(1)})))
                    for r in range(n + 1)]
        for K in range(n + 2):
            best = max(pairings[:K + 1])
            expect = math.inf if best == 0 else (cert.epsilon - eps) / best
            assert weight_lower_bound(cert, K, eps) == expect


    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=n + 1, max_size=n + 1)),
        st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)]),
    )
    def test_floor_matches_the_kravchuk_row_oracle(self, predicate, eps):
        _, cert = approx_degree(predicate, eps)
        if cert is None:
            return
        for K in range(-1, len(predicate) + 1):
            assert weight_lower_bound(cert, K, eps) == kravchuk_weight_floor(cert, K, eps)


class TestReports:
    def test_bound_exponent_positive(self):
        spec = SymmetricSpec(8, tuple(1 if h == 8 else 0 for h in range(9)))
        rep, _ = low_weight_report(spec, 4, Fraction(1, 3))
        assert rep.bound_exponent > 0

    def test_zero_eps_reports_no_trend(self):
        # log(supp / eps) has no value at eps = 0; only an exact fit meets it
        spec = SymmetricSpec(8, tuple(1 if 2 * h > 8 else 0 for h in range(9)))
        rep, _ = low_weight_report(spec, 8, 0)
        assert (rep.degree, rep.weight, rep.error, rep.bound_exponent) == (
            8, Fraction(693, 128), 0, None)
        with pytest.raises(InfeasibleBudget):
            low_weight_report(spec, 2, 0)

    @pytest.mark.parametrize("eps, degree, weight, error", [
        ("1e-400", 8, Fraction(693, 128), 0), ("1e-9999", 8, Fraction(693, 128), 0),
        ("1e400", 0, Fraction(0), Fraction(1))])  # the zero polynomial from eps = 1 up
    def test_eps_beyond_doubles_reports_no_trend(self, eps, degree, weight, error):
        # supp/eps overflows a double (1e-400) or underflows to 0.0 (1e400)
        spec = SymmetricSpec(8, tuple(1 if 2 * h > 8 else 0 for h in range(9)))
        rep, _ = low_weight_report(spec, 8, Fraction(eps))
        assert (rep.degree, rep.weight, rep.error, rep.bound_exponent) == (
            degree, weight, error, None)

    def test_negative_eps_is_refused(self):
        spec = SymmetricSpec(8, tuple(1 if 2 * h > 8 else 0 for h in range(9)))
        with pytest.raises(InvalidInput, match="eps must be nonnegative, got -1"):
            low_weight_report(spec, 8, -1)
