import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualshare import boolcube, ratpoly, symcheb
from dualshare.boolcube import indistinguishability_bound, indistinguishability_bound_holds
from dualshare.errors import PropertyViolation
from dualshare.ratpoly import RationalPoly, generating_poly, weight_grid
from dualshare.symcheb import (
    AmplificationParams,
    truncated_approximant,
    bounded_check,
    exact_weight_test,
    shifted_product_check,
    shifted_square,
    hypergeom_row,
    truncation_error_bound,
    circle_identity_check,
    reflection_check,
)

from conftest import random_symmetric_distribution
from oracles import (
    certify_grid_all_points,
    cheb_coeff,
    cheb_transform,
    circle_abs_squared_fraction,
    circle_routes_fraction,
    hypergeom_prob,
    symmetrize,
)


class TestSymmetrize:
    def test_and_on_the_pm_domain(self):
        # AND accepts only the all-ones cube point = the all-zeros bit string
        p = symmetrize(lambda bits: 1 if not any(bits) else 0, 4)
        grid = weight_grid(4)
        assert p(grid[0]) == 1
        assert all(p(t) == 0 for t in grid[1:])

    def test_single_variable_character(self):
        # E_{|x|=h}[x_1] = 1 - 2h/n = t, with x_1 = 1 - 2 b_1
        for n in (2, 5, 8):
            p = symmetrize(lambda bits: 1 - 2 * bits[0], n)
            assert p == RationalPoly.of(0, 1)

    def test_matches_build_pw_at_grid(self):
        for n, K, w in ((8, 2, 1), (10, 3, 0), (12, 4, 2)):
            f = lambda bits, K=K, w=w: 1 if sum(bits[:K]) == w else 0
            p = symmetrize(f, n)
            test = exact_weight_test(n, K, w)
            for h in range(n + 1):
                assert p(Fraction(n - 2 * h, n)) == hypergeom_prob(n, K, w, h)
            assert p == test.poly

    def test_weight_vector_input(self):
        p = symmetrize(sum, 4)
        # value at weight h is h; in t coordinates that is (1-t) n/2
        assert p == RationalPoly.of(2, -2)


class TestExactWeightTest:
    def test_p0_at_one(self):
        for n, K in ((8, 2), (64, 3)):
            assert exact_weight_test(n, K, 0).poly(1) == 1

    def test_zeros_vanish(self):
        test = exact_weight_test(10, 3, 1)
        for z in test.zeros:
            assert test.poly(z) == 0
        assert len(test.zeros) == 3

    def test_worked_example(self):
        test = exact_weight_test(8, 2, 1)
        assert hypergeom_row(8, 2, 1)[1] == Fraction(1, 4)
        assert test.poly(Fraction(3, 4)) == Fraction(1, 4)

    def test_product_form_matches_hypergeometric_everywhere(self, rng):
        for _ in range(20):
            n = rng.randint(4, 64)
            K = rng.randint(1, min(6, n))
            w = rng.randint(0, K)
            test = exact_weight_test(n, K, w)
            for h in range(n + 1):
                assert test.poly(Fraction(n - 2 * h, n)) == hypergeom_prob(n, K, w, h)

    def test_degree_and_probability_range(self):
        test = exact_weight_test(16, 4, 2)
        assert test.poly.degree == 4
        for h in range(17):
            v = test.poly(Fraction(16 - 2 * h, 16))
            assert 0 <= v <= 1

    def test_boundary_scale(self):
        # the largest configuration the exactness claim ranges over
        for w in (0, 4, 8):
            test = exact_weight_test(512, 8, w)
            for h in (0, 1, 7, 8, 200, 504, 511, 512):
                assert test.poly(Fraction(512 - 2 * h, 512)) == hypergeom_prob(
                    512, 8, w, h
                )

    def test_hypergeom_by_enumeration(self):
        # count weight-h strings with w ones among the first K positions
        from itertools import combinations

        n, K = 8, 3
        for h in range(n + 1):
            for w in range(K + 1):
                count = sum(
                    1
                    for pos in combinations(range(n), h)
                    if sum(1 for i in pos if i < K) == w
                )
                assert hypergeom_row(n, K, w)[h] == Fraction(count, comb(n, h))


class TestReflection:
    def test_small_pairs(self):
        assert reflection_check(exact_weight_test(8, 2, 0))
        assert reflection_check(exact_weight_test(8, 2, 2))

    def test_self_paired_midpoint(self):
        assert reflection_check(exact_weight_test(12, 4, 2))

    def test_random_instances(self, rng):
        for _ in range(10):
            n = rng.randint(4, 16)
            K = rng.randint(1, min(5, n))
            w = rng.randint(0, K)
            assert reflection_check(exact_weight_test(n, K, w))

    def test_one_minus_t_variant_fails(self):
        # the reflection consistent with t = 1 - 2h/n sends t to -t; the
        # (1-t) substitution does not reproduce the partner polynomial
        test = exact_weight_test(8, 2, 0)
        partner = exact_weight_test(8, 2, 2)
        shifted = [partner.poly(1 - t) for t in weight_grid(8)]
        direct = [test.poly(t) for t in weight_grid(8)]
        assert shifted != direct


class TestBounded:
    def test_desk_scale_instances(self):
        for w in range(5):
            grid_max = bounded_check(exact_weight_test(256, 4, w))
            assert grid_max <= 2.0

    def test_K2(self):
        assert bounded_check(exact_weight_test(128, 2, 1)) <= 2.0

    def test_grid_values_are_probabilities(self):
        test = exact_weight_test(128, 2, 1)
        for h in range(129):
            assert 0 <= test.poly(Fraction(128 - 2 * h, 128)) <= 1

    def test_warns_outside_guaranteed_range(self):
        with pytest.warns(UserWarning):
            bounded_check(exact_weight_test(16, 2, 1))


class TestTruncatedApproximant:
    def test_full_truncation_is_exact(self):
        test = exact_weight_test(128, 2, 1)
        q, bound, err = truncated_approximant(test, 3)
        assert err == 0.0
        assert q == test.poly

    def test_bound_formula(self):
        assert truncation_error_bound(4, 3) == pytest.approx(
            4 * math.sqrt(4) * math.exp(-9 / (1156 * 4))
        )

    def test_desk_scale_certified(self):
        test = exact_weight_test(256, 4, 2)
        q, bound, err = truncated_approximant(test, 3)
        assert q.degree < 3
        assert err <= bound

    def test_error_against_chebyshev_tail(self):
        # triangle-inequality chain: certified error <= 2 sum_{d >= k} |c_d|
        test = exact_weight_test(256, 4, 0)
        expansion = test.cheb
        for k in (1, 2, 3):
            _, _, err = truncated_approximant(test, k)
            tail = 2 * sum(
                (abs(cheb_coeff(expansion, d)) for d in range(k, len(expansion.half_coeffs))),
                Fraction(0),
            )
            assert err <= float(tail) * (1 + 1e-9)


class TestGeneratingPoly:
    def test_shifted_polynomial_reads_chebyshev_coefficients(self, rng):
        # coefficient K+d of C_w prod (s^2 - 2sz + 1)/2 equals c_d
        for _ in range(10):
            n = rng.randint(6, 40)
            K = rng.randint(1, 5)
            w = rng.randint(0, K)
            test = exact_weight_test(n, K, w)
            g = generating_poly(test.zeros, test.scale)
            e = test.cheb
            assert g.degree == 2 * K
            for d in range(-K, K + 1):
                assert g.coeffs[K + d] == cheb_coeff(e, d)
            # and the generic transform agrees with the factored route
            assert cheb_transform(test.poly).half_coeffs == e.half_coeffs


class TestIntegerGridCheck:
    @pytest.mark.parametrize("n, K, w", [(64, 4, 1), (512, 8, 6), (1024, 8, 0)])
    def test_a_perturbed_coefficient_is_caught(self, monkeypatch, n, K, w):
        from_roots = RationalPoly.from_roots
        for i in range(K + 1):
            def perturbed(roots, i=i):
                coeffs = list(from_roots(roots).coeffs)
                coeffs[i] += Fraction(1, 10**9)
                return RationalPoly.from_coeffs(coeffs)

            monkeypatch.setattr(RationalPoly, "from_roots", staticmethod(perturbed))
            with pytest.raises(PropertyViolation, match=f"n={n}, K={K}, w={w}"):
                exact_weight_test(n, K, w)
        monkeypatch.undo()
        assert reflection_check(exact_weight_test(n, K, w))


def _raised(check, *args) -> str | None:
    try:
        check(*args)
    except PropertyViolation as exc:
        return str(exc)
    return None


class TestGridCertificate:
    """p_w is certified from h = 0..K and deg p_w <= K; the all-points check
    it replaced is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_accepts_what_the_all_points_check_accepts(self, data):
        n = data.draw(st.integers(1, 300))
        K = data.draw(st.integers(0, min(n, 12)))
        w = data.draw(st.integers(0, K))
        test = exact_weight_test(n, K, w)
        assert test.poly.degree == K
        certify_grid_all_points(test.poly, n, K, w)

    @pytest.mark.parametrize("n, K, w", [(64, 4, 1), (30, 5, 0), (12, 12, 7), (640, 10, 2),
                                         (7, 3, 3), (300, 12, 6)])
    @pytest.mark.parametrize("shift", [Fraction(1, 10**9), Fraction(-3, 7 * 10**6)])
    def test_a_moved_zero_or_scale_fails_at_the_same_first_h(self, n, K, w, shift):
        test = exact_weight_test(n, K, w)
        mutants = [(test.scale + shift) * RationalPoly.from_roots(test.zeros)]
        for i in range(K):
            zeros = list(test.zeros)
            zeros[i] += shift
            mutants.append(test.scale * RationalPoly.from_roots(zeros))
        for p in mutants:
            message = _raised(symcheb._certify_grid, p, n, K, w)
            assert message is not None and "disagrees" in message
            assert message == _raised(certify_grid_all_points, p, n, K, w)

    @pytest.mark.parametrize("n, K, w", [(64, 4, 1), (16, 2, 0), (300, 12, 5)])
    def test_degree_k_plus_1_agreeing_at_k_plus_1_points_is_refused(self, n, K, w, monkeypatch):
        # monic + prod_{h <= K} (t - t_h) matches the hypergeometric values at
        # h = 0..K (the anchor h = w among them) but has degree K + 1
        bump = RationalPoly.from_roots([Fraction(n - 2 * h, n) for h in range(K + 1)])
        from_roots = RationalPoly.from_roots
        monkeypatch.setattr(RationalPoly, "from_roots",
                            staticmethod(lambda roots: from_roots(roots) + bump))
        with pytest.raises(PropertyViolation, match=rf"degree {K + 1} > K \(n={n}, K={K}, w={w}\)"):
            exact_weight_test(n, K, w)
        monkeypatch.undo()
        p = exact_weight_test(n, K, w).poly + bump
        assert "disagrees" in _raised(certify_grid_all_points, p, n, K, w)

    def test_a_million_point_grid(self, rng):
        # math.comb near the ends of the grid (C(10^6, 5 * 10^5) alone takes
        # seconds), and C(K,w) h^(w) (n-h)^(K-w) / n^(K) anywhere on it
        n, K, w = 10**6, 8, 3
        test = exact_weight_test(n, K, w)
        ends = [rng.choice([h, n - h]) for h in rng.sample(range(K + 1, 2000), 20)]
        for h in ends:
            assert test.poly(Fraction(n - 2 * h, n)) == hypergeom_prob(n, K, w, h)
        falling = lambda x, j: math.prod(range(x - j + 1, x + 1))
        for h in rng.sample(range(n + 1), 20):
            assert test.poly(Fraction(n - 2 * h, n)) == Fraction(
                comb(K, w) * falling(h, w) * falling(n - h, K - w), falling(n, K))


class TestCircleIdentity:
    def test_exact_refinement_matches_fraction_horner(self):
        test = exact_weight_test(1024, 8, 7)
        g = generating_poly(test.zeros, test.scale)
        for radius in (1.0, 1.1, 0.75):
            for theta in (0.0, 0.3, 1.7, -2.9, math.pi):
                s = radius * cmath.exp(1j * theta)
                assert (symcheb._eval_abs_squared_exact(g, s.real, s.imag)
                        == circle_abs_squared_fraction(g, s.real, s.imag))

    def test_unit_circle_reduces_to_pw(self):
        # at eps = 0 the amplified identity degenerates to |g(e^{i t})| = |p_w(cos t)|
        test = exact_weight_test(64, 2, 1)
        g = generating_poly(test.zeros, test.scale)
        for t in (Fraction(0), Fraction(1, 5), Fraction(-3, 7), Fraction(9, 4)):
            cos, sin = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
            assert symcheb._eval_abs_squared_exact(g, cos, sin) == test.poly(cos) ** 2

    def test_desk_scale_identity(self):
        test = exact_weight_test(256, 4, 1)
        assert circle_identity_check(test, AmplificationParams(Fraction(1, 10))) == 0.0

    def test_single_factor_hand_expansion(self):
        # K = w = 1, n = 64: one factor, closed form
        test = exact_weight_test(64, 1, 1)
        params = AmplificationParams(Fraction(1, 7))
        assert circle_identity_check(test, params) == 0.0
        r, delta, (z,) = 1 + params.epsilon, params.delta, test.zeros
        t = Fraction(2, 5)
        cos, sin = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        g = generating_poly(test.zeros, test.scale)
        lhs = symcheb._eval_abs_squared_exact(g, r * cos, r * sin)
        hand = r ** 2 * test.scale ** 2 * ((cos - (1 + delta) * z) ** 2
                                          + (1 - z * z) * (2 * delta + delta ** 2))
        assert lhs == hand

    @pytest.mark.parametrize("n, K, w", [(256, 4, 1), (64, 3, 1), (1024, 8, 7)])
    @pytest.mark.parametrize("eps", ["1/10", "1e-9", "3"])
    def test_inflated_subscript_fails_at_a_sample_point(self, monkeypatch, n, K, w, eps):
        # route B with the (1+delta)-inflated h-subscript delta (1 + 1/(1+delta))
        # misses the identity, and one of the 2K+1 points shows it (the
        # subscript weighs 1 - z^2, so each case has a zero other than +-1)
        test = exact_weight_test(n, K, w)
        monkeypatch.setattr(AmplificationParams, "h_subscript",
                            property(lambda p: p.delta * (1 + 1 / (1 + p.delta))))
        with pytest.raises(PropertyViolation, match="circle identity fails exactly"):
            circle_identity_check(test, AmplificationParams(Fraction(eps)))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 8),
           st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(7, 3), Fraction(1, 10**9)]),
           st.fractions(min_value=-20, max_value=20, max_denominator=60))
    def test_routes_agree_off_the_sample_points(self, data, K, eps, t):
        # the lemma's conclusion: the check passes, and the two routes then agree
        # at every rational point of the circle, not only at t = j/(2K+1)
        n = data.draw(st.integers(K, 1024), label="n")
        test = exact_weight_test(n, K, data.draw(st.integers(0, K), label="w"))
        params = AmplificationParams(eps)
        assert circle_identity_check(test, params) == 0.0
        lhs, rhs = circle_routes_fraction(test, params, t)
        assert lhs == rhs

    @pytest.mark.parametrize("eps", ["1e-7", "1e-8", "1e-9", "1e-12", "1e-20", "1/10000",
                                     "1e-300"])
    def test_small_eps_is_decided_exactly(self, eps):
        # at theta = 0 route B meets the zero z = 1 of the product up to a
        # relative gap of order delta
        test = exact_weight_test(256, 4, 1)
        assert circle_identity_check(test, AmplificationParams(Fraction(eps))) == 0.0

    def test_mismatched_routes_fail_exactly(self, monkeypatch):
        # route A read from another test's generating polynomial
        test, other = exact_weight_test(256, 4, 1), exact_weight_test(256, 4, 2)
        params = AmplificationParams(Fraction(1, 10))
        lhs, _ = circle_routes_fraction(other, params, Fraction(1, 3))
        _, rhs = circle_routes_fraction(test, params, Fraction(1, 3))
        assert lhs != rhs
        g = generating_poly(other.zeros, other.scale)
        monkeypatch.setattr(ratpoly, "generating_poly", lambda *args: g)
        with pytest.raises(PropertyViolation, match="circle identity fails exactly"):
            circle_identity_check(test, params)

    def test_degree_above_2K_is_refused_before_any_point(self, monkeypatch):
        # the lemma needs deg g <= 2K; a g of degree 2K+1 never reaches a point
        test = exact_weight_test(256, 4, 1)
        high = generating_poly(test.zeros, test.scale) + RationalPoly.of(*[0] * 9, 1)
        monkeypatch.setattr(ratpoly, "generating_poly", lambda *args: high)
        monkeypatch.setattr(symcheb, "_eval_abs_squared_exact",
                            lambda *a: pytest.fail("a point was evaluated"))
        with pytest.raises(PropertyViolation, match="degree 9 > 2K=8"):
            circle_identity_check(test, AmplificationParams(Fraction(1, 10)))


class TestShiftedProductCap:
    def test_delta_zero_equality(self):
        test = exact_weight_test(256, 4, 2)
        grid = [Fraction(i, 50) for i in range(-50, 51)]
        assert shifted_product_check(test, Fraction(0), grid)
        # equality on the first branch at delta = 0
        s = Fraction(1, 3)
        lhs = test.scale**2
        for z in test.zeros:
            lhs *= shifted_square(s, z, 0)
        assert lhs == test.poly(s) ** 2

    def test_desk_scale(self):
        test = exact_weight_test(256, 4, 2)
        grid = [Fraction(i, 500) for i in range(-500, 501)]
        assert shifted_product_check(test, Fraction(1, 100), grid)

    def test_w0_first_branch_everywhere(self):
        # Z_+ empty: the first branch covers all of [-1, 1] (in |s| form)
        test = exact_weight_test(256, 4, 0)
        delta = Fraction(1, 50)
        bound = math.exp(65 * float(delta) * 4)
        for i in range(-100, 101):
            s = Fraction(i, 100)
            lhs = test.scale**2
            for z in test.zeros:
                lhs *= shifted_square(s, z, delta)
            assert float(lhs) <= bound * float(test.poly(abs(s)) ** 2) * (1 + 1e-9)
        grid = [Fraction(i, 100) for i in range(-100, 101)]
        assert shifted_product_check(test, delta, grid)

    def test_raw_signed_cap_fails_near_negative_zeros(self):
        # the delta (1 - z^2) floor keeps the product positive where p_w
        # vanishes, so the cap must be evaluated at |s|
        test = exact_weight_test(256, 4, 0)
        delta = Fraction(1, 50)
        bound = math.exp(65 * float(delta) * 4)
        s = Fraction(-253, 256)  # near an interior zero of p_0
        lhs = test.scale**2
        for z in test.zeros:
            lhs *= shifted_square(s, z, delta)
        assert float(lhs) > bound * float(test.poly(s) ** 2)

    def test_rejects_large_w(self):
        with pytest.raises(ValueError):
            shifted_product_check(exact_weight_test(256, 4, 3), Fraction(1, 100), [Fraction(0)])

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(13, 25), Fraction(13, 5), Fraction(52),
                                   Fraction(104)])
    def test_exp_brackets_enclose_exp_and_tighten(self, x):
        # every bracket holds e^x (up to the rounding of math.exp), the lows
        # rise and the highs fall as terms are added, and the last is tight
        exact = Fraction(math.exp(x))
        slack = Fraction(1, 10**12)
        pairs = list(boolcube._exp_brackets(x))
        assert len(pairs) == boolcube._EXP_TERMS - 11
        # the tail bound holds, and a high is given, once i + 2 > x
        assert [high is None for _, high in pairs] == [
            i + 2 <= x for i in range(12, boolcube._EXP_TERMS + 1)]
        for (low, high), (low2, high2) in zip(pairs, pairs[1:]):
            assert low <= low2 if x else low == low2 == 1
            assert high is None or high2 <= high
        for low, high in pairs:
            assert low <= exact * (1 + slack)
            assert high is None or high >= exact * (1 - slack)
        low, high = pairs[-1]
        assert low <= high <= low * (1 + Fraction(1, 10**15))
        assert (low == high) == (x == 0)

    @staticmethod
    def _constant_test(scale):
        # no zeros, so the product side is scale^2 everywhere; at s = 1, beyond
        # the cut 1 - w/16K, the cap is 1
        return symcheb.SymmetrizedTest(256, 4, 1, scale, (), RationalPoly.from_coeffs([1]))

    @pytest.mark.parametrize("side", [1, -1])
    def test_verdict_within_a_float_ulp_of_the_exponential_is_exact(self, side):
        # scale^2 = e^x (1 +- 2e-14): inside the first bracket, and inside the
        # 1e-12 slack of a float comparison, yet decided by refined brackets
        delta = Fraction(1, 100)
        x = 65 * delta * 4
        scale = Fraction(math.sqrt(math.exp(x))) * (1 + side * Fraction(1, 10**14))
        low12, high12 = next(boolcube._exp_brackets(x))
        assert low12 < scale ** 2 < high12
        assert shifted_product_check(self._constant_test(scale), delta, [Fraction(1)]) is (
            side == -1)

    def test_zero_cap_under_a_positive_product_fails(self):
        # inside the cut the cap is p_w(|s|)^2 = 0 here, which no e^x scales up to 1
        test = symcheb.SymmetrizedTest(256, 4, 1, Fraction(1), (), RationalPoly.from_coeffs([0]))
        assert not shifted_product_check(test, Fraction(1, 100), [Fraction(1), Fraction(0)])
        assert shifted_product_check(test, Fraction(1, 100), [Fraction(1)])

    def test_undecided_cap_raises(self, monkeypatch):
        # x = 65 * 2/5 * 4 = 104: e^104 > 1e45 > 1e30 = scale^2, which the
        # full series decides; twelve terms give a low below 1e30 and no high
        delta, scale = Fraction(2, 5), Fraction(10**15)
        test = self._constant_test(scale)
        assert shifted_product_check(test, delta, [Fraction(1)])
        monkeypatch.setattr(boolcube, "_EXP_TERMS", 12)
        [(low, high)] = boolcube._exp_brackets(Fraction(104))
        assert low < scale ** 2 and high is None
        with pytest.raises(PropertyViolation, match="undecided"):
            shifted_product_check(test, delta, [Fraction(1)])


class TestIndistinguishabilityBound:
    def test_formula_instantiation(self):
        assert indistinguishability_bound(1, 2) == pytest.approx(
            3 * 8 * math.sqrt(2) * math.exp(-1 / 2312)
        )

    def test_monotone_decreasing_in_k(self):
        vals = [indistinguishability_bound(k, 8) for k in range(1, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @staticmethod
    def _bound_decimal(k, K):
        with localcontext() as ctx:
            ctx.prec = 60
            return (K + 1) * 8 * Decimal(K).sqrt() * (-Decimal(k * k) / (1156 * K)).exp()

    @pytest.mark.parametrize("k, K", [(1, 2), (1, 4), (2, 4), (1, 5), (7, 30), (63, 64)])
    def test_exact_verdict_just_above_and_below(self, k, K):
        # 1e-40 either side of the bound (known here to 60 digits); a double
        # cannot tell those apart, and the one just above passed the old
        # comparison float(dist) <= bound
        beta = Fraction(self._bound_decimal(k, K))
        above, below = beta + Fraction(1, 10**40), beta - Fraction(1, 10**40)
        assert float(above) <= indistinguishability_bound(k, K)
        assert not indistinguishability_bound_holds(above, k, K)
        assert indistinguishability_bound_holds(below, k, K)

    @pytest.mark.parametrize("k, K", [(1, 2), (1, 4), (2, 4), (1, 5)])
    def test_the_float_bound_itself_exceeds_the_bound(self, k, K):
        # the double the formula returns lies above the true bound here
        bound = indistinguishability_bound(k, K)
        assert Fraction(bound) > Fraction(self._bound_decimal(k, K))
        assert not indistinguishability_bound_holds(Fraction(bound), k, K)

    def test_zero_distance_holds_and_an_open_bracket_is_undecided(self):
        # k^2 / 578K is about 10^6 here: no upper bracket within 200 terms,
        # and 10^-2000 times the lower one stays below the cap
        assert indistinguishability_bound_holds(Fraction(0), 24000, 1)
        with pytest.raises(PropertyViolation, match="undecided"):
            indistinguishability_bound_holds(Fraction(1, 10**1000), 24000, 1)


class TestExactWeightDecomposition:
    def test_symmetric_test_decomposes_into_exact_weights(self, rng):
        # T = sum b_w Q_w with b_w in {0,1}; the advantage is the same sum of
        # per-weight advantages, exactly
        for K in range(1, 7):
            d1 = random_symmetric_distribution(rng, K)
            d2 = random_symmetric_distribution(rng, K)
            b = [rng.randint(0, 1) for _ in range(K + 1)]
            adv_T = sum(
                (b[w] * (d1.weight_probs[w] - d2.weight_probs[w]) for w in range(K + 1)),
                Fraction(0),
            )
            per_weight = [
                d1.weight_probs[w] - d2.weight_probs[w] for w in range(K + 1)
            ]
            assert adv_T == sum(
                (b[w] * per_weight[w] for w in range(K + 1)), Fraction(0)
            )
            # and no 0/1 test beats the positive part
            best = sum((v for v in per_weight if v > 0), Fraction(0))
            assert adv_T <= best


class TestCoefficientDecay:
    def test_amplified_sum_bounded(self):
        # sum (1+eps)^{2(K+d)} c_d^2 <= 4 (1+eps)^{2K} (1+delta)^{2K} e^{130 delta K}
        # for the tested desk-scale parameters with w <= K/2
        K = 4
        for n in (256, 258):
            for w in (0, 1, 2):
                test = exact_weight_test(n, K, w)
                e = test.cheb
                for eps in (Fraction(1, 10), Fraction(1, 3)):
                    delta = eps * eps / (2 * (1 + eps))
                    amp = (1 + eps) ** (2 * K) * (
                        cheb_coeff(e, 0) ** 2
                        + sum(
                            ((1 + eps) ** (2 * d) + (1 + eps) ** (-2 * d))
                            * cheb_coeff(e, d) ** 2
                            for d in range(1, K + 1)
                        )
                    )
                    bound = (
                        4
                        * float((1 + eps) ** (2 * K))
                        * float((1 + delta) ** (2 * K))
                        * math.exp(130 * float(delta) * K)
                    )
                    assert float(amp) <= bound * (1 + 1e-9)


class TestHypergeomProb:
    def test_out_of_range_is_zero(self):
        assert hypergeom_prob(10, 3, 2, 1) == 0
        assert hypergeom_prob(10, 3, 0, 9) == 0

    def test_row_sums_to_one(self):
        for h in range(11):
            assert sum(hypergeom_prob(10, 3, w, h) for w in range(4)) == 1


class TestHypergeomRow:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_row_matches_hypergeom_prob(self, data):
        n = data.draw(st.integers(1, 200))
        K = data.draw(st.sampled_from([0, 1, n, data.draw(st.integers(0, n))]))
        w = data.draw(st.sampled_from([0, K, data.draw(st.integers(0, K))]))
        row = hypergeom_row(n, K, w)
        assert row == tuple(hypergeom_prob(n, K, w, h) for h in range(n + 1))

    @pytest.mark.parametrize("n, K, w", [(1, 0, 0), (1, 1, 0), (1, 1, 1), (12, 12, 0),
                                         (12, 12, 12), (12, 12, 5), (640, 10, 0), (640, 10, 10)])
    def test_edges_match_brute_counts(self, n, K, w):
        row = hypergeom_row(n, K, w)
        assert row == tuple(hypergeom_prob(n, K, w, h) for h in range(n + 1))
        assert sum(row[h] * comb(n, h) for h in range(n + 1)) == comb(K, w) * 2 ** (n - K)

    @pytest.mark.parametrize("n, K, w", [(4, 5, 0), (4, 2, 3), (4, 2, -1)])
    def test_rejects_out_of_range(self, n, K, w):
        with pytest.raises(ValueError):
            hypergeom_row(n, K, w)
