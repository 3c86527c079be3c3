import math
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualshare.approxlab import approx_degree, minimax_on_weight_grid, symmetric_witness
from dualshare.boolcube import ParityPoly
from dualshare.errors import InfeasibleBudget, InvalidInput
from dualshare.simplex import solve_lp, solve_minimax
from dualshare.weightdeg import (
    SymmetricSpec,
    _aggregate_design,
    _aggregate_optimal,
    _block_count_poly,
    _divisors,
    _kappa_sums,
    approx_eq_y,
    low_weight_approximant,
    weight_lower_bound,
)
from oracles import aggregate_design_fraction


def cube_error(poly: ParityPoly, target) -> Fraction:
    """Exact max |poly - target| over all 2^n points (oracle)."""
    values = poly.values_on_cube()
    worst = Fraction(0)
    for m, v in enumerate(values):
        worst = max(worst, abs(v - Fraction(target(m))))
    return worst


def min_weight_lp(values, n, K, target) -> Fraction:
    """Exact minimum parity weight of a degree-<=K approximant of a symmetric
    predicate within the target error (oracle via one LP).

    Symmetrising an approximant preserves the error bound and never raises
    the weight, so the optimum is attained by a symmetric polynomial: one
    variable per coefficient size-class, split into positive and negative
    parts, with value constraints at each Hamming weight.
    """
    from dualshare.boolcube import kravchuk

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
    x, val, _ = solve_lp(rows, b, c)
    return -val


class TestApproxEqY:
    def test_exact_and_small(self):
        poly, rep = approx_eq_y(8, (1 << 8) - 1, 8, Fraction(1, 6))
        assert rep.degree == 8
        assert rep.weight == 1
        assert rep.error == 0
        assert cube_error(poly, lambda m: 1 if m == 255 else 0) == 0

    def test_n16_budget8(self):
        poly, rep = approx_eq_y(16, (1 << 16) - 1, 8, Fraction(1, 6))
        assert rep.degree <= 8
        assert rep.error <= Fraction(1, 6)
        assert poly.weight() == rep.weight

    def test_error_certificate_vs_cube(self):
        # the structural error (outer LP residuals) equals the exhaustive one
        for n, budget, target in ((8, 4, Fraction(1, 3)), (12, 6, Fraction(1, 4))):
            y = (1 << n) - 1
            poly, rep = approx_eq_y(n, y, budget, target)
            assert cube_error(poly, lambda m: 1 if m == y else 0) == rep.error

    def test_retargeting_preserves_weight_and_error(self):
        n = 8
        base_poly, base_rep = approx_eq_y(n, (1 << n) - 1, 4, Fraction(1, 3))
        for y in (0, 0b10110101, 0b00001111):
            poly, rep = approx_eq_y(n, y, 4, Fraction(1, 3))
            assert rep.weight == base_rep.weight
            assert rep.error == base_rep.error
            assert cube_error(poly, lambda m: 1 if m == y else 0) == rep.error

    def test_inner_and_block_weight_one(self):
        # every exact multilinear AND block has parity weight exactly 1
        from dualshare.boolcube import basis_convert

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
        poly, rep = approx_eq_y(n, (1 << n) - 1, budget, Fraction(1, 3))
        values = [Fraction(1 if h == n else 0) for h in range(n + 1)]
        eps = solve_minimax([Fraction(j) for j in range(n + 1)], values, budget).epsilon
        assert rep.error <= max(eps, Fraction(1, 3))


class TestLowWeightApproximant:
    def test_and_reduces_to_single_indicator(self):
        n = 12
        spec = SymmetricSpec(n, tuple(1 if h == n else 0 for h in range(n + 1)))
        assert spec.k_f == 0
        poly, rep = low_weight_approximant(spec, 4, Fraction(1, 3))
        assert rep.error <= Fraction(1, 3)
        assert rep.degree <= 4
        assert cube_error(
            poly, lambda m: 1 if m == (1 << n) - 1 else 0
        ) == rep.error

    def test_or_via_complement(self):
        n = 12
        and_spec = SymmetricSpec(n, tuple(1 if h == n else 0 for h in range(n + 1)))
        or_spec = SymmetricSpec(n, tuple(0 if h == 0 else 1 for h in range(n + 1)))
        _, rep_and = low_weight_approximant(and_spec, 4, Fraction(1, 3))
        poly_or, rep_or = low_weight_approximant(or_spec, 4, Fraction(1, 3))
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
        poly, rep = low_weight_approximant(spec, K, Fraction(1, 3))
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
            poly, rep = low_weight_approximant(spec, K, Fraction(1, 3))
            assert rep.error <= Fraction(1, 3)
            assert rep.degree <= K

    def test_infeasible_raises(self):
        n = 8
        spec = SymmetricSpec(n, tuple(1 if h == n - 1 else 0 for h in range(n + 1)))
        with pytest.raises(InfeasibleBudget):
            low_weight_approximant(spec, 2, Fraction(1, 100))

    def test_infeasible_budget_reports_only_certified_errors(self):
        # exact-half at n = 12, K = 4: no split meets the union bound, so each
        # split's reported error is its aggregate optimum, never the AND
        # core's per-term error (1/3 at l = 3 would contradict the message)
        n, K, eps = 12, 4, Fraction(1, 3)
        work = tuple(1 if h == n // 2 else 0 for h in range(n + 1))
        with pytest.raises(InfeasibleBudget) as exc:
            low_weight_approximant(SymmetricSpec(n, work), K, eps)
        kappa = _kappa_sums(n, [n // 2])
        assert set(exc.value.best_errors) == set(_divisors(n))
        for ell, error in exc.value.best_errors.items():
            s = n // ell
            assert error > eps
            assert error == _aggregate_optimal(n, ell, s, min(ell, K // s), work, kappa)[1]


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
        kappa = _kappa_sums(n, sorted(supp))
        for ell in _divisors(n):
            full = aggregate_design_fraction(n, ell, n // ell, ell, kappa)
            for d_out in range(ell + 1):
                rows = _aggregate_design(n, ell, n // ell, d_out, kappa)
                assert rows == [row[: d_out + 1] for row in full]
                assert all(type(v) is Fraction for row in rows for v in row)


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
                    _, rep = low_weight_approximant(spec, K, eps)
                    cert = minimax_on_weight_grid(name_vals, deg - 1)
                    bound = weight_lower_bound(cert, K, eps)
                    true_min = min_weight_lp(name_vals, n, K, eps)
                    assert bound <= true_min <= rep.weight

    def test_pairing_symmetry_against_cube(self):
        # the K+1 size-class pairings equal the per-subset pairings on the cube
        from dualshare.boolcube import pair_with_witness
        from itertools import combinations

        n = 6
        values = [1 if h == n else 0 for h in range(n + 1)]
        cert = minimax_on_weight_grid(values, 1)
        wit = symmetric_witness(cert)
        for r in range(4):
            pairings = set()
            for subset in combinations(range(n), r):
                mask = sum(1 << i for i in subset)
                pairings.add(pair_with_witness(wit, ParityPoly(n, {mask: Fraction(1)})))
            assert len(pairings) == 1


class TestReports:
    def test_bound_exponent_positive(self):
        poly, rep = approx_eq_y(8, (1 << 8) - 1, 4, Fraction(1, 3))
        assert rep.bound_exponent > 0
