import math
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualshare.approxlab import (
    RampParams,
    approx_degree,
    consolidate_and,
    dual_distributions,
    finite_n_ramp,
    minimax_on_weight_grid,
    ramp_advantage,
)
from dualshare.boolcube import (
    SymmetricDistribution,
    kwise_indistinguishable,
    project_symmetric,
    stat_distance_symmetric,
)
from dualshare.ratpoly import cheb_transform_factored, weight_grid
from dualshare.simplex import solve_minimax
from dualshare.boolcube import indistinguishability_bound

from oracles import (
    cheb_coeff,
    cheb_transform,
    consolidate_and_dp,
    consolidation_bound,
    l2_tail_bound_by_sum,
    limit_ramp_poly,
    point_mass,
    ramp_radicand_by_sum,
    sigma_inner,
    split_cube_witness,
    uniform_and_params,
    uniform_distribution,
    witness_values,
)
from test_simplex import alternation_minimax


def predicate(name, n):
    if name == "and":
        return [1 if h == n else 0 for h in range(n + 1)]
    if name == "or":
        return [0 if h == 0 else 1 for h in range(n + 1)]
    if name == "maj":
        return [1 if 2 * h > n else 0 for h in range(n + 1)]
    if name == "exact-half":
        return [1 if h == n // 2 else 0 for h in range(n + 1)]
    raise ValueError(name)


class TestApproxDegree:
    def test_and2(self):
        assert approx_degree(predicate("and", 2), Fraction(1, 3))[0].degree == 1

    def test_constant(self):
        assert approx_degree([1, 1, 1, 1, 1], Fraction(1, 3))[0].degree == 0

    def test_parity_needs_full_degree(self):
        n = 4
        parity = [h % 2 for h in range(n + 1)]
        assert approx_degree(parity, Fraction(1, 3))[0].degree == n

    def test_and4_cross_checked(self):
        values = predicate("and", 4)
        k = approx_degree(values, Fraction(1, 3))[0].degree
        grid = weight_grid(4)
        assert alternation_minimax(grid, [Fraction(v) for v in values], k) <= Fraction(1, 3)
        if k:
            assert alternation_minimax(
                grid, [Fraction(v) for v in values], k - 1
            ) > Fraction(1, 3)

    def test_all_symmetric_predicates_small_n(self):
        # oracle agreement for every 0/1 predicate on n <= 6 at three epsilons
        for n in range(1, 7):
            grid = weight_grid(n)
            for mask in range(1 << (n + 1)):
                values = [Fraction((mask >> h) & 1) for h in range(n + 1)]
                for eps in (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)):
                    k = approx_degree(values, eps)[0].degree
                    assert alternation_minimax(grid, values, k) <= eps
                    if k:
                        assert alternation_minimax(grid, values, k - 1) > eps


class TestSymmetrizationLossless:
    def test_weight_grid_error_equals_full_cube_lp(self, rng):
        # the univariate minimax error on the weight grid equals the exact
        # multivariate approximation error over the whole cube (audited by a
        # full-cube LP over all monomials of degree <= k, n <= 5)
        from itertools import combinations

        from oracles import chi
        from dualshare.simplex import solve_linf_fit

        for _ in range(8):
            n = rng.randint(2, 5)
            values = [Fraction(rng.randint(0, 1)) for _ in range(n + 1)]
            if len(set(values)) == 1:
                continue
            k = rng.randint(0, n - 1)
            eps_sym = minimax_on_weight_grid(values, k).epsilon
            subsets = [
                sum(1 << i for i in c)
                for r in range(k + 1)
                for c in combinations(range(n), r)
            ]
            rows = [
                [Fraction(chi(s, x)) for s in subsets] for x in range(1 << n)
            ]
            cube_values = [values[x.bit_count()] for x in range(1 << n)]
            _, epsilon = solve_linf_fit(rows, cube_values)
            assert epsilon == eps_sym


class TestDualDistributions:
    def test_and2_split(self):
        cert = minimax_on_weight_grid([1, 0, 0], 1)
        eps = cert.epsilon
        mu, nu = dual_distributions(cert)
        assert mu.weight_probs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
        assert nu.weight_probs == (Fraction(0), Fraction(1), Fraction(0))
        advantage = (mu.weight_probs[0] - nu.weight_probs[0])
        assert advantage == 2 * eps == Fraction(1, 2)

    def test_masses_balance(self, rng):
        for _ in range(10):
            n = rng.randint(2, 10)
            values = [Fraction(rng.randint(0, 1)) for _ in range(n + 1)]
            if len(set(values)) == 1:
                continue
            k = rng.randint(0, n - 1)
            cert = minimax_on_weight_grid(values, k)
            eps = cert.epsilon
            if eps == 0:
                continue
            mu, nu = dual_distributions(cert)
            assert sum(mu.weight_probs) == 1 == sum(nu.weight_probs)
            assert kwise_indistinguishable(mu, nu, k)

    def test_lp_pair_for_and4_at_degree2(self):
        cert = minimax_on_weight_grid(predicate("and", 4), 2)
        mu, nu = dual_distributions(cert)
        assert kwise_indistinguishable(mu, nu, 2)

    def test_rejects_off_grid_certificates(self):
        cert = solve_minimax([0, 1, 2], [0, 0, 1], 1)
        with pytest.raises(ValueError):
            dual_distributions(cert)

    def test_split_cube_witness_matches(self):
        from dualshare.dualand import build_witness

        wit = build_witness(uniform_and_params(2, 1))
        mu, nu = split_cube_witness(witness_values(wit))
        assert mu.weight_probs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
        assert nu.weight_probs == (Fraction(0), Fraction(1), Fraction(0))


class TestStrongDuality:
    def test_audited_on_random_instances(self, rng):
        # the solver asserts strong duality and complementary slackness
        # internally; here the audit is repeated externally
        for _ in range(10):
            n = rng.randint(2, 12)
            values = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n + 1)]
            k = rng.randint(0, max(n - 2, 0))
            cert = minimax_on_weight_grid(values, k)
            poly, eps = cert.poly, cert.epsilon
            grid = weight_grid(n)
            residuals = [v - poly(t) for t, v in zip(grid, values)]
            assert max(abs(r) for r in residuals) == eps
            assert sum(p * v for p, v in zip(cert.psi, values)) == eps
            for j in range(k + 1):
                assert sum(p * t**j for p, t in zip(cert.psi, grid)) == 0
            if eps > 0:
                for p, r in zip(cert.psi, residuals):
                    if p > 0:
                        assert r == eps
                    if p < 0:
                        assert r == -eps


class TestRampFormulas:
    def test_single_term_radicand(self):
        radicand, value = ramp_advantage(RampParams(1, 2))
        assert radicand == Fraction(1, 32)
        assert value == pytest.approx(1 / (4 * math.sqrt(2)))

    def test_top_threshold(self):
        radicand, _ = ramp_advantage(RampParams(2, 3))
        assert radicand == Fraction(comb(6, 6) ** 2 * 8, 2**12) == Fraction(1, 512)

    def test_a_quarter_of_the_radicand_is_the_l2_floor(self):
        for K in range(2, 9):
            for k in range(1, K):
                radicand, _ = ramp_advantage(RampParams(k, K))
                assert radicand / 4 == l2_tail_bound_by_sum(K, k)

    def test_cauchy_schwarz_floor(self):
        # ordering property: advantage >= K^{-1/2} e^{-c k^2 / K} for a fitted
        # constant on the tested range (the anti-concentration regime)
        c = 3.0
        for K in range(3, 9):
            for k in range(1, K):
                _, value = ramp_advantage(RampParams(k, K))
                floor = K ** (-0.5) * math.exp(-c * k * k / K)
                assert value >= floor

    def test_l2_single_term(self):
        assert ramp_advantage(RampParams(1, 2))[0] / 4 == Fraction(1, 128)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_closed_form_tail_matches_the_term_sums(self, data):
        K = data.draw(st.integers(2, 200))
        k = data.draw(st.integers(1, K - 1))
        assert ramp_advantage(RampParams(k, K))[0] == ramp_radicand_by_sum(k, K)


class TestLimitPolynomial:
    def test_cheb_coefficients_are_central_binomials(self):
        for K in range(1, 7):
            e = cheb_transform_factored([Fraction(-1)] * K, Fraction(1, 2**K))
            for d in range(K + 1):
                assert cheb_coeff(e, d) == Fraction(comb(2 * K, K + d), 4**K)
            # and the factored route agrees with the generic transform
            assert cheb_transform(limit_ramp_poly(K)).half_coeffs == e.half_coeffs

    def test_l2_certification_for_lp_approximants(self):
        # E_sigma[(p0_inf - q)^2] >= radicand / 4 for LP-produced q
        for K in range(2, 9):
            p_inf = limit_ramp_poly(K)
            m = 4 * K
            grid = weight_grid(m)
            values = [p_inf(t) for t in grid]
            for k in range(1, K):
                q = solve_minimax(grid, values, k).poly
                diff = cheb_transform(p_inf - q)
                assert sigma_inner(diff, diff) >= ramp_advantage(RampParams(k, K))[0] / 4


class TestFiniteRamp:
    def test_within_factor_two_of_limit(self):
        mu, nu, adv = finite_n_ramp(RampParams(1, 2, 64))
        _, limit = ramp_advantage(RampParams(1, 2))
        assert limit / 2 <= float(adv) <= limit * 2

    def test_pair_is_kwise_indistinguishable(self):
        for k, K, n in ((1, 2, 32), (2, 3, 48), (3, 4, 64)):
            mu, nu, adv = finite_n_ramp(RampParams(k, K, n))
            assert kwise_indistinguishable(mu, nu, k)
            assert adv > 0

    def test_advantage_on_the_and_test(self):
        # the returned pair reconstructs via the AND of the first K bits
        from oracles import hypergeom_prob

        k, K, n = 2, 3, 36
        mu, nu, adv = finite_n_ramp(RampParams(k, K, n))
        and_vals = [hypergeom_prob(n, K, K, h) for h in range(n + 1)]
        assert mu.expectation(and_vals) - nu.expectation(and_vals) == adv

    def test_convergence_toward_limit_recorded(self, capsys):
        # the finite-n advantage drifts toward the limit formula as n grows;
        # recorded, not asserted (the statement is asymptotic)
        k, K = 2, 3
        _, limit = ramp_advantage(RampParams(k, K))
        ratios = []
        for n in (24, 48, 96):
            _, _, adv = finite_n_ramp(RampParams(k, K, n))
            ratios.append(float(adv) / limit)
        print(f"finite/limit advantage ratios for (k,K)=({k},{K}): "
              + ", ".join(f"n={n}: {r:.4f}" for n, r in zip((24, 48, 96), ratios)))
        assert all(r > 0 for r in ratios)

    def test_degree_zero_lp(self):
        # k = 0 is outside RampParams; the LP itself still certifies a gap
        from dualshare.symcheb import hypergeom_row

        n, K = 32, 2
        values = hypergeom_row(n, K, 0)
        eps = minimax_on_weight_grid(values, 0).epsilon
        assert eps > 0


class TestConsolidate:
    def brute(self, d: SymmetricDistribution, t: int) -> SymmetricDistribution:
        """Enumerate every placement of ones (oracle for tn <= 16)."""
        big_n = d.n
        n_out = big_n // t
        out = [Fraction(0)] * (n_out + 1)
        for h, p in enumerate(d.weight_probs):
            if not p:
                continue
            for pos in combinations(range(big_n), h):
                full = sum(
                    1
                    for b in range(n_out)
                    if all(b * t + i in pos for i in range(t))
                )
                out[full] += p / comb(big_n, h)
        return SymmetricDistribution.of(n_out, out)

    def test_identity_blocks(self):
        d = SymmetricDistribution.of(3, [Fraction(1, 4), Fraction(1, 2), 0, Fraction(1, 4)])
        assert consolidate_and(d, 1) == d

    def test_point_mass_full(self):
        d = point_mass(6, 6)
        assert consolidate_and(d, 2) == point_mass(3, 3)

    def test_worked_example(self):
        d = point_mass(4, 2)
        c = consolidate_and(d, 2)
        assert c.weight_probs == (Fraction(2, 3), Fraction(1, 3), Fraction(0))

    def test_against_brute_force(self, rng):
        from conftest import random_symmetric_distribution

        for big_n, t in ((6, 2), (6, 3), (8, 2), (12, 3), (16, 4)):
            d = random_symmetric_distribution(rng, big_n)
            assert consolidate_and(d, t) == self.brute(d, t)

    def test_mass_preserved(self, rng):
        from conftest import random_symmetric_distribution

        d = random_symmetric_distribution(rng, 12)
        c = consolidate_and(d, 4)
        assert sum(c.weight_probs) == 1

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            consolidate_and(uniform_distribution(5), 2)

    def test_commutes_with_projection_small(self, rng):
        # block-projections of the consolidated distribution match direct
        # consolidation of the projected blocks when the projection keeps
        # whole blocks; checked through the brute-force oracle
        from conftest import random_symmetric_distribution

        d = random_symmetric_distribution(rng, 8)
        consolidated = consolidate_and(d, 2)
        proj = project_symmetric(consolidated, 2)
        # oracle: project 4 positions = 2 whole blocks first, then consolidate
        direct = consolidate_and(project_symmetric(d, 4), 2)
        assert proj == direct


@st.composite
def _blocked_distributions(draw, sparse: bool):
    """(distribution on n = tm <= 64 positions, block size t in {1, 2, 4, 8});
    sparse ones carry mass on 1-3 weights, as the ramp pairs do."""
    t = draw(st.sampled_from([1, 2, 4, 8]))
    n = t * draw(st.integers(0, 64 // t))
    if sparse:
        support = draw(st.lists(st.integers(0, n), min_size=1, max_size=3, unique=True))
        masses = [0] * (n + 1)
        for h in support:
            masses[h] = draw(st.integers(1, 10**6))
    else:
        masses = draw(st.lists(st.integers(0, 50), min_size=n + 1, max_size=n + 1))
        masses[draw(st.integers(0, n))] += 1
    total = sum(masses)
    return SymmetricDistribution(n, tuple(Fraction(m, total) for m in masses)), t


class TestConsolidateAgainstDictDP:
    @settings(max_examples=60, deadline=None)
    @given(_blocked_distributions(sparse=True))
    def test_sparse(self, case):
        d, t = case
        assert consolidate_and(d, t).weight_probs == consolidate_and_dp(d, t).weight_probs

    @settings(max_examples=40, deadline=None)
    @given(_blocked_distributions(sparse=False))
    def test_dense(self, case):
        d, t = case
        assert consolidate_and(d, t).weight_probs == consolidate_and_dp(d, t).weight_probs


class TestConsolidationBound:
    def test_formula_instantiation(self):
        v = consolidation_bound(40, 1, 2, 64)
        expect = 2 * (2 + 1) * 8 * math.sqrt(2) * math.exp(-1600 / 2312) * 64
        assert v == pytest.approx(expect)

    def test_monotone_in_K(self):
        vals = [consolidation_bound(40, K, 2, 64) for K in range(1, 5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_consolidated_dual_and_pairs(self):
        # desk-scale end-to-end: consolidated share pairs stay within the bound
        from dualshare.dualand import build_witness

        t, n_out = 2, 4
        big_n = t * n_out
        for d in (2, 3):
            wit = build_witness(uniform_and_params(big_n, d))
            mu, nu = split_cube_witness(witness_values(wit))
            mu_c = consolidate_and(mu, t)
            nu_c = consolidate_and(nu, t)
            k = d - 1
            if k < 1:
                continue
            for K in range(1, n_out + 1):
                dist = stat_distance_symmetric(
                    project_symmetric(mu_c, K), project_symmetric(nu_c, K)
                )
                assert float(dist) <= consolidation_bound(k, K, t, n_out)


class TestProjectedBoundEndToEnd:
    def test_lp_pairs_meet_projected_bound(self):
        # perfectly k-wise indistinguishable LP pairs, projected: distance
        # under the explicit constant (loose at this scale; the inequality is
        # the assertion)
        n = 64
        for name in ("and", "maj"):
            values = predicate(name, n)
            for k in (2, 3):
                cert = minimax_on_weight_grid(values, k)
                eps = cert.epsilon
                if eps == 0:
                    continue
                mu, nu = dual_distributions(cert)
                assert kwise_indistinguishable(mu, nu, k)
                K = 1
                d = stat_distance_symmetric(
                    project_symmetric(mu, K), project_symmetric(nu, K)
                )
                assert float(d) <= indistinguishability_bound(k, K)
