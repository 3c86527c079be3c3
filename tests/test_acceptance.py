"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here.  Exact assertions use rational equality; the
floating bounds (truncation, projected-distance, consolidation) compare a
certified rational quantity against an explicitly evaluated float constant.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

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
    indistinguishability_bound,
    kwise_indistinguishable,
    project_symmetric,
    stat_distance_symmetric,
)
from dualshare.dualand import (
    DualAndParams,
    ShareSampler,
    WeightVector,
    build_witness,
    epsilon_of,
    verify_witness,
)
from dualshare.ratpoly import (
    RationalPoly,
    cheb_T,
    cheb_transform_factored,
    weight_grid,
)
from dualshare.simplex import solve_minimax
from dualshare.symcheb import (
    AmplificationParams,
    truncated_approximant,
    bounded_check,
    exact_weight_test,
    truncation_error_bound,
    circle_identity_check,
)
from dualshare.weightdeg import SymmetricSpec, low_weight_report, weight_lower_bound

from oracles import (
    binomial_tail_epsilon,
    cheb_transform,
    consolidation_bound,
    cube_error,
    expand_approximant,
    laurent_from_roots,
    l2_tail_bound_by_sum,
    limit_ramp_poly,
    parseval_circle_check,
    reconstruction_advantage,
    share_distribution,
    sigma_inner,
    split_cube_witness,
    uniform_and_params,
    weighted_anticoncentration_check,
    witness_values,
)


def _report(tag: str, detail: str):
    print(f"[{tag}] PASS: {detail}")


def test_criterion_01_dual_witness_exactness():
    start = time.time()
    checked = 0
    for n in range(2, 13):
        for d in range(1, n + 1):
            params = uniform_and_params(n, d)
            wit = build_witness(params)
            rep = verify_witness(wit)
            assert rep.pure_high_degree, (n, d, rep.violations[:4])
            assert rep.l1_norm == 1
            expected = binomial_tail_epsilon(n, d)
            assert rep.correlation == expected == wit.epsilon
            checked += 1
    elapsed = time.time() - start
    assert elapsed <= 60
    _report(
        "AC1",
        f"{checked} (n,d) pairs verified exactly (pure high degree strictly "
        f"below d, unit L1, binomial-tail correlation) in {elapsed:.1f}s",
    )


def test_criterion_02_weighted_witness():
    start = time.time()
    rng = random.Random(20240809)
    for _ in range(100):
        n = rng.randint(2, 12)
        w = WeightVector.of(
            [Fraction(rng.randint(1, 16), rng.randint(1, 8)) for _ in range(n)]
        )
        d = w.l1() * Fraction(rng.randint(1, 7), 8)
        params = DualAndParams(n, w, d)
        wit = build_witness(params)
        rep = verify_witness(wit)
        assert rep.pure_high_degree
        assert rep.l1_norm == 1
        assert rep.correlation == epsilon_of(params) == wit.epsilon
        prob, ok = weighted_anticoncentration_check(w)
        assert ok and prob >= Fraction(3, 32)
    elapsed = time.time() - start
    assert elapsed <= 120
    _report(
        "AC2",
        f"100 random weighted instances: correlation = Pr[<w,X> >= d] exactly, "
        f"anti-concentration probability >= 3/32 at d = |w|_2/2, in {elapsed:.1f}s",
    )


def test_criterion_03_chebyshev_machinery():
    rng = random.Random(77)
    for _ in range(200):
        deg = rng.randint(0, 12)
        roots = [
            Fraction(rng.randint(-12, 12), rng.randint(12, 16)) for _ in range(deg)
        ]
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([1, -1])
        laurent_route = cheb_transform_factored(roots, scale)
        inversion_route = cheb_transform(scale * RationalPoly.from_roots(roots))
        assert laurent_route.half_coeffs == inversion_route.half_coeffs
        g = laurent_from_roots(roots, scale)
        assert parseval_circle_check(g, 2 * g.span() + 8) < 1e-8
    e0 = cheb_transform(cheb_T(0))
    e3 = cheb_transform(cheb_T(3))
    assert sigma_inner(e0, e0) == 1
    assert sigma_inner(e3, e3) == Fraction(1, 2)
    _report(
        "AC3",
        "200 random factored polynomials: Laurent and inversion expansions "
        "identical, circle-Parseval < 1e-8; sigma moments 1 and 1/2 exact",
    )


def test_criterion_04_symmetrization():
    start = time.time()
    instances = 0
    for K in range(1, 7):
        for n in (64 * K, 64 * K + 2):
            for w in range(K + 1):
                test = exact_weight_test(n, K, w)  # certifies every grid point on build
                for h in range(n + 1):
                    expected = (
                        Fraction(comb(K, w) * comb(n - K, h - w), comb(n, h))
                        if 0 <= h - w <= n - K
                        else Fraction(0)
                    )
                    assert test.poly(Fraction(n - 2 * h, n)) == expected
                instances += 1
    elapsed = time.time() - start
    assert elapsed <= 120
    _report(
        "AC4",
        f"{instances} (n,K,w) instances: product form equals the hypergeometric "
        f"symmetrization at every grid point, exactly, in {elapsed:.1f}s",
    )


def test_criterion_05_main3_desk_scale():
    start = time.time()
    n, K = 256, 4
    for w in range(K + 1):
        test = exact_weight_test(n, K, w)
        bounded_check(test)  # raises unless |p_w| <= 2 certified
        for k in (1, 2, 3):
            _, bound, err = truncated_approximant(test, k)  # raises unless err <= bound
            assert err <= bound == truncation_error_bound(K, k)
    elapsed = time.time() - start
    assert elapsed <= 300
    _report(
        "AC5",
        f"n=256, K=4, w<=4, k in {{1,2,3}}: certified sup-norm of p_w - q_w "
        f"within 4*sqrt(K)*exp(-k^2/1156K) and |p_w| <= 2 by exact sign decisions, "
        f"in {elapsed:.1f}s",
    )


def test_criterion_06_normg_identity():
    for w in range(5):
        test = exact_weight_test(256, 4, w)
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            # raises PropertyViolation unless the routes agree exactly
            assert circle_identity_check(test, AmplificationParams(eps)) == 0.0
    _report(
        "AC6",
        "two-route circle identity, all (w, eps): equal in rationals at the 2K+1 = 9 "
        "points t = j/9 of the circle, hence at every angle",
    )


def _predicate(name: str, n: int) -> list[int]:
    if name == "AND":
        return [1 if h == n else 0 for h in range(n + 1)]
    if name == "MAJ":
        return [1 if 2 * h > n else 0 for h in range(n + 1)]
    if name == "EXACT-HALF":
        return [1 if h == n // 2 else 0 for h in range(n + 1)]
    if name == "OR":
        return [0 if h == 0 else 1 for h in range(n + 1)]
    if name == "EXACT-THRESHOLD":
        return [1 if h == n - 1 else 0 for h in range(n + 1)]
    raise ValueError(name)


def test_criterion_07_mainupper_end_to_end():
    n = 128
    pairs = 0
    for name in ("AND", "MAJ", "EXACT-HALF"):
        values = _predicate(name, n)
        for k in range(2, 7):
            cert = minimax_on_weight_grid(values, k)
            eps = cert.epsilon
            assert eps > 0
            mu, nu = dual_distributions(cert)
            assert kwise_indistinguishable(mu, nu, k)
            for K in range(1, n // 64 + 1):
                dist = stat_distance_symmetric(
                    project_symmetric(mu, K), project_symmetric(nu, K)
                )
                assert float(dist) <= indistinguishability_bound(k, K)
            pairs += 1
    _report(
        "AC7",
        f"{pairs} LP pairs (n=128, k=2..6, AND/MAJ/EXACT-HALF): perfectly "
        f"k-wise indistinguishable exactly; projected distance within "
        f"(K+1)*8*sqrt(K)*exp(-k^2/1156K) for all K <= n/64",
    )


def test_criterion_08_ramp_formulas():
    radicand, _ = ramp_advantage(RampParams(1, 2))
    assert radicand == Fraction(1, 32)
    lp_checks = 0
    for K in range(3, 9):
        p_inf = limit_ramp_poly(K)
        grid = weight_grid(4 * K)
        values = [p_inf(t) for t in grid]
        for k in range(2, K):
            q = solve_minimax(grid, values, k).poly
            diff = cheb_transform(p_inf - q)
            assert sigma_inner(diff, diff) >= l2_tail_bound_by_sum(K, k)
            mu, nu, adv = finite_n_ramp(RampParams(k, K, 8 * K))
            assert kwise_indistinguishable(mu, nu, k)
            assert adv > 0
            lp_checks += 1
    _report(
        "AC8",
        f"radicand(1,2) = 1/32 exactly; {lp_checks} (k,K) cells: exact "
        f"sigma-measure residual >= l2 tail bound for LP approximants and "
        f"finite-n pairs perfectly k-wise indistinguishable",
    )


def test_criterion_09_weight_degree_sandwich():
    start = time.time()
    eps = Fraction(1, 3)
    cells = 0
    for n in (8, 12, 16):
        for name in ("AND", "OR", "EXACT-THRESHOLD"):
            values = _predicate(name, n)
            deg = approx_degree(values, eps)[0].degree
            spec = SymmetricSpec(n, tuple(values))
            for K in range(deg + 1, n // 2 + 1):
                report, form = low_weight_report(spec, K, eps)
                assert report.error <= eps
                assert report.degree <= K
                # the closed forms against the approximant expanded over the cube
                poly = expand_approximant(spec, form)
                assert (poly.degree(), poly.weight()) == (report.degree, report.weight)
                assert cube_error(poly, lambda m: values[m.bit_count()]) == report.error
                cert = minimax_on_weight_grid(values, max(deg - 1, 0))
                bound = weight_lower_bound(cert, K, eps)
                assert bound == math.inf or report.weight >= bound
                cells += 1
    elapsed = time.time() - start
    assert elapsed <= 600
    _report(
        "AC9",
        f"{cells} (f,n,K) cells: constructive error <= 1/3 certified exactly "
        f"at every weight, degree, weight and error equal to the cube "
        f"expansion's, and weight >= dual lower bound, in {elapsed:.1f}s",
    )


def test_criterion_10_sampler_statistics():
    draws = 100_000
    wit = build_witness(uniform_and_params(8, 3))
    sampler = ShareSampler(wit, 1, seed=20240809)
    counts: dict[int, int] = {}
    for _ in range(draws):
        m = sampler.sample_mask()
        counts[m] = counts.get(m, 0) + 1
    table = share_distribution(wit, 1)
    for m, p in table.items():
        expect = draws * float(p)
        sigma = math.sqrt(draws * float(p) * (1 - float(p)))
        assert abs(counts.get(m, 0) - expect) <= 4 * sigma
    assert set(counts) <= set(table)

    exact_adv = reconstruction_advantage(wit)
    assert exact_adv == 2 * wit.epsilon
    means = {}
    for secret in (1, -1):
        s = ShareSampler(wit, secret, seed=998)
        means[secret] = (
            sum(1 for _ in range(draws) if s.sample_mask() == 0) / draws
        )
    p_plus = float(table.get(0, Fraction(0)))
    sigma = math.sqrt(2 * p_plus * (1 - p_plus) / draws)
    assert abs((means[1] - means[-1]) - float(exact_adv)) <= 3 * sigma
    _report(
        "AC10",
        f"10^5 draws (n=8): every cell within 4 sigma of the exact table; "
        f"empirical reconstruction advantage within 3 sigma of 2<phi,AND> = "
        f"{exact_adv}",
    )


def test_criterion_11_consolidation():
    rng = random.Random(5150)
    # exact match against brute-force placement enumeration, tn <= 16
    checked = 0
    for big_n, t in ((6, 2), (6, 3), (9, 3), (8, 2), (12, 4), (16, 4), (16, 2)):
        raw = [Fraction(rng.randint(0, 9)) for _ in range(big_n + 1)]
        total = sum(raw) or Fraction(1)
        d = SymmetricDistribution.of(big_n, [r / total for r in raw])
        fast = consolidate_and(d, t)
        n_out = big_n // t
        brute = [Fraction(0)] * (n_out + 1)
        for h, p in enumerate(d.weight_probs):
            if not p:
                continue
            for pos in combinations(range(big_n), h):
                pos = set(pos)
                full = sum(
                    1
                    for b in range(n_out)
                    if all(b * t + i in pos for i in range(t))
                )
                brute[full] += p / comb(big_n, h)
        assert fast.weight_probs == tuple(brute)
        checked += 1
    # bound inequality on dual-and-derived instances
    bound_checks = 0
    for t, n_out, d_param in ((2, 4, 2), (2, 4, 3), (3, 3, 2)):
        big_n = t * n_out
        wit = build_witness(uniform_and_params(big_n, d_param))
        mu, nu = split_cube_witness(witness_values(wit))
        mu_c, nu_c = consolidate_and(mu, t), consolidate_and(nu, t)
        k = d_param - 1
        for K in range(1, n_out + 1):
            dist = stat_distance_symmetric(
                project_symmetric(mu_c, K), project_symmetric(nu_c, K)
            )
            assert float(dist) <= consolidation_bound(k, K, t, n_out)
            bound_checks += 1
    _report(
        "AC11",
        f"{checked} consolidations match brute-force placement enumeration "
        f"exactly; consolidation bound holds on {bound_checks} projections of "
        f"dual-witness share pairs",
    )
