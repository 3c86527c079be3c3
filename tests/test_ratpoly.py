import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualshare.ratpoly import (
    ChebyshevExpansion,
    RationalPoly,
    cheb_T,
    cheb_transform_factored,
    sigma_inner,
)

from conftest import random_fraction
from oracles import (
    LaurentPoly,
    cheb_transform,
    interpolate_fraction,
    laurent_from_roots,
    parseval_circle_check,
)


class TestEval:
    def test_identity(self):
        assert RationalPoly.of(0, 1)(Fraction(1, 2)) == Fraction(1, 2)

    def test_zero_poly(self):
        assert RationalPoly()(Fraction(7, 3)) == 0

    def test_against_naive_power_sum(self):
        # derived: hand expansion of t^2 - 1 at t = 3, plus a random sweep
        p = RationalPoly.of(-1, 0, 1)
        assert p(3) == 8
        rng = random.Random(7)
        for _ in range(25):
            coeffs = [random_fraction(rng) for _ in range(rng.randint(0, 9))]
            q = RationalPoly.from_coeffs(coeffs)
            t = random_fraction(rng)
            naive = sum(c * t**i for i, c in enumerate(coeffs))
            assert q(t) == naive


def fraction_horner(coeffs, t):
    """The evaluator RationalPoly.__call__ replaced: Horner's rule on Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


_BIG = 2**200
# numerators and denominators far beyond a machine word, mostly coprime
_huge = st.integers(2**120, _BIG)
huge_fractions = st.builds(
    Fraction, st.one_of(_huge, _huge.map(lambda v: -v)), _huge
)
small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=50)


class TestIntegerEvaluation:
    """RationalPoly.__call__ (homogeneous integer Horner) against fraction_horner."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(small_fractions, huge_fractions), max_size=12),
        st.one_of(st.integers(-_BIG, _BIG), small_fractions, huge_fractions),
    )
    def test_matches_fraction_horner(self, coeffs, t):
        p = RationalPoly.from_coeffs(coeffs)
        value = p(t)
        assert isinstance(value, Fraction)
        assert value == fraction_horner(p.coeffs, t)

    @pytest.mark.parametrize("t", [0, 1, -1, 7, -12, Fraction(-5, 3), Fraction(2**61 - 1, 2**89 - 1)])
    def test_zero_and_constant_polynomials(self, t):
        assert RationalPoly()(t) == 0
        assert RationalPoly.of(Fraction(-7, 3))(t) == Fraction(-7, 3)
        assert RationalPoly.of(5)(t) == 5

    def test_int_and_negative_arguments(self):
        p = RationalPoly.of(Fraction(1, 6), Fraction(-2, 15), 0, Fraction(3, 10))
        for t in range(-20, 21):
            assert p(t) == fraction_horner(p.coeffs, t)
            assert p(Fraction(t, 7)) == fraction_horner(p.coeffs, Fraction(t, 7))

    def test_huge_coprime_denominators(self):
        primes = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]
        p = RationalPoly.from_coeffs(Fraction(i + 1, q) for i, q in enumerate(primes))
        t = Fraction(-(2**31 - 1), 2**521 - 1)
        assert p(t) == fraction_horner(p.coeffs, t)

    def test_eval_float_is_bit_identical_to_converting_per_point(self):
        rng = random.Random(11)
        for _ in range(300):
            bits = rng.choice([8, 64, 200])
            coeffs = [Fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits))
                      for _ in range(rng.randint(0, 10))]
            p = RationalPoly.from_coeffs(coeffs)
            t = rng.uniform(-1.0, 1.0)
            acc = 0.0
            for c in reversed(p.coeffs):
                acc = acc * t + float(c)
            assert p.eval_float(t) == acc
            for c in p.coeffs:  # each coefficient correctly rounded, as float(c) is
                assert RationalPoly.of(c).eval_float(t) == float(c)


def fraction_convolution(a, b):
    """The product RationalPoly.__mul__ replaced: a double loop on Fractions."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return RationalPoly.from_coeffs(out)


class TestIntegerProduct:
    """RationalPoly.__mul__ (ratpoly._mul on the integer forms) against
    fraction_convolution."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.just(Fraction(0)), small_fractions, huge_fractions), max_size=10),
        st.lists(st.one_of(st.just(Fraction(0)), small_fractions, huge_fractions), max_size=10),
    )
    def test_matches_fraction_convolution(self, a, b):
        p, q = RationalPoly.from_coeffs(a), RationalPoly.from_coeffs(b)
        assert p * q == fraction_convolution(p.coeffs, q.coeffs)
        assert q * p == p * q
        assert all(type(c) is Fraction for c in (p * q).coeffs)

    def test_zero_and_scalar_factors(self):
        p = RationalPoly.of(Fraction(1, 3), 0, Fraction(-5, 7))
        assert p * RationalPoly() == RationalPoly() == RationalPoly() * p
        assert RationalPoly() * RationalPoly() == RationalPoly()
        assert p * RationalPoly.of(Fraction(3, 2)) == p * Fraction(3, 2)


class TestFromRoots:
    def test_difference_of_squares(self):
        assert RationalPoly.from_roots([1, -1]) == RationalPoly.of(-1, 0, 1)

    def test_limit_ramp_base_case(self):
        # (t+1)/2 is the K=1 limit polynomial 2^-K (t+1)^K
        p = RationalPoly.from_roots([Fraction(-1)], Fraction(1, 2))
        assert p == RationalPoly.of(Fraction(1, 2), Fraction(1, 2))

    def test_scaled_product(self):
        p = RationalPoly.from_roots([0, Fraction(1, 2)], 3)
        assert p == RationalPoly.of(0, Fraction(-3, 2), 3)
        for t in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
            assert p(t) == 3 * t * (t - Fraction(1, 2))


class TestInterpolate:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=9),
                 min_size=1, max_size=9, unique=True),
        st.data(),
    )
    def test_passes_through_every_point_below_their_count(self, xs, data):
        # degree < len(xs) and q(x_i) = y_i for all i pin the interpolant down
        ys = data.draw(st.lists(st.fractions(max_denominator=50), min_size=len(xs),
                                max_size=len(xs)))
        q = RationalPoly.interpolate(xs, ys)
        assert q.degree < len(xs)
        assert [q(x) for x in xs] == ys

    def test_recovers_a_polynomial_from_its_values(self):
        p = RationalPoly.of(Fraction(1, 3), -2, 0, Fraction(5, 7))
        xs = [Fraction(i, 3) for i in range(-3, 3)]
        assert RationalPoly.interpolate(xs, [p(x) for x in xs]) == p
        assert RationalPoly.interpolate(xs[:4], [p(x) for x in xs[:4]]) == p

    def test_no_points_give_the_zero_polynomial(self):
        assert RationalPoly.interpolate([], []) == RationalPoly()


_distinct_points = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=1, max_size=10,
    unique=True)


class TestIntegerInterpolation:
    """RationalPoly.interpolate (integer Lagrange form) against Newton's
    divided differences in oracles.interpolate_fraction."""

    @settings(max_examples=200, deadline=None)
    @given(_distinct_points, st.sampled_from(["sorted", "reversed", "drawn"]), st.data())
    def test_matches_divided_differences(self, xs, order, data):
        if order != "drawn":
            xs = sorted(xs, reverse=order == "reversed")
        ys = data.draw(st.lists(st.one_of(small_fractions, huge_fractions),
                                min_size=len(xs), max_size=len(xs)))
        assert RationalPoly.interpolate(xs, ys) == interpolate_fraction(xs, ys)

    @settings(max_examples=100, deadline=None)
    @given(_distinct_points, st.sampled_from(["sorted", "reversed", "drawn"]), st.data())
    def test_values_of_a_lower_degree_polynomial(self, xs, order, data):
        if order != "drawn":
            xs = sorted(xs, reverse=order == "reversed")
        p = RationalPoly.from_coeffs(data.draw(st.lists(small_fractions, max_size=len(xs) - 1)))
        ys = [p(x) for x in xs]
        assert RationalPoly.interpolate(xs, ys) == p == interpolate_fraction(xs, ys)

    def test_single_point_gives_a_constant(self):
        assert RationalPoly.interpolate([Fraction(2, 3)], [Fraction(-5, 7)]) == RationalPoly.of(
            Fraction(-5, 7))

    def test_ints_and_floats_are_taken_exactly(self):
        xs, ys = [0.1, 2, Fraction(1, 3)], [1, 0.25, Fraction(-3, 11)]
        q = RationalPoly.interpolate(xs, ys)
        assert q == interpolate_fraction(xs, ys)
        assert [q(x) for x in xs] == [Fraction(y) for y in ys]


class TestChebPolynomials:
    def test_base_cases(self):
        assert cheb_T(0) == RationalPoly.of(1)
        assert cheb_T(1) == RationalPoly.of(0, 1)
        assert cheb_T(2) == RationalPoly.of(-1, 0, 2)

    def test_three_term_product_identity(self):
        # t * T_d = (T_{d-1} + T_{d+1}) / 2, exactly, for all small d
        t = RationalPoly.of(0, 1)
        for d in range(1, 13):
            lhs = t * cheb_T(d)
            rhs = (cheb_T(d - 1) + cheb_T(d + 1)) * Fraction(1, 2)
            assert lhs == rhs

    def test_bounded_on_interval(self):
        for d in range(9):
            td = cheb_T(d)
            for i in range(-50, 51):
                assert abs(td(Fraction(i, 50))) <= 1


class TestChebTransform:
    def test_t_squared(self):
        # symmetric two-sided convention: t^2 = (1/2) T_0 + (1/4)(T_2 + T_{-2})
        e = cheb_transform(RationalPoly.of(0, 0, 1))
        assert e.half_coeffs == (Fraction(1, 2), Fraction(0), Fraction(1, 4))

    def test_t_minus_one_matches_laurent_factor(self):
        # one factor of the Laurent product: (s + 1/s - 2)/2 has coefficients
        # -1 at s^0 and 1/2 at s^{+-1}
        e = cheb_transform(RationalPoly.of(-1, 1))
        assert e.coeff(0) == -1
        assert e.coeff(1) == Fraction(1, 2)
        assert cheb_transform_factored([Fraction(1)]).half_coeffs == e.half_coeffs

    def test_constant(self):
        e = cheb_transform(RationalPoly.of(1))
        assert e.half_coeffs == (Fraction(1),)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=8),
            min_size=0,
            max_size=13,
        )
    )
    def test_round_trip(self, coeffs):
        p = RationalPoly.from_coeffs(coeffs)
        e = cheb_transform(p)
        assert e.truncate(e.degree + 1) == p

    def test_factored_route_and_inversion_route_agree(self):
        rng = random.Random(11)
        for _ in range(40):
            deg = rng.randint(0, 12)
            roots = [
                Fraction(rng.randint(-10, 10), rng.randint(10, 12))
                for _ in range(deg)
            ]
            scale = random_fraction(rng)
            if scale == 0:
                scale = Fraction(1)
            direct = cheb_transform(RationalPoly.from_roots(roots, scale))
            laurent = cheb_transform_factored(roots, scale)
            assert direct.half_coeffs == laurent.half_coeffs


class TestTruncate:
    def test_no_drop_reproduces(self):
        p = RationalPoly.of(1, Fraction(-2, 3), 0, 5)
        e = cheb_transform(p)
        assert e.truncate(e.degree + 1) == p

    def test_drop_t_squared(self):
        e = cheb_transform(RationalPoly.of(0, 0, 1))
        assert e.truncate(1) == RationalPoly.of(Fraction(1, 2))

    def test_drop_linear(self):
        e = cheb_transform(RationalPoly.of(-1, 1))
        assert e.truncate(1) == RationalPoly.of(-1)


class TestSigmaInner:
    def test_chebyshev_second_moment(self):
        e3 = cheb_transform(cheb_T(3))
        assert sigma_inner(e3, e3) == Fraction(1, 2)

    def test_constant_moment(self):
        e = cheb_transform(RationalPoly.of(1))
        assert sigma_inner(e, e) == 1

    def test_orthogonality(self):
        for i in range(13):
            for j in range(i + 1, 13):
                ei = cheb_transform(cheb_T(i))
                ej = cheb_transform(cheb_T(j))
                assert sigma_inner(ei, ej) == 0

    def test_against_quadrature(self):
        # independent oracle: (1/pi) int p1 p2 / sqrt(1-t^2) via theta substitution
        rng = random.Random(5)
        for _ in range(10):
            p1 = RationalPoly.from_coeffs(
                [random_fraction(rng, 4, 4) for _ in range(rng.randint(1, 6))]
            )
            p2 = RationalPoly.from_coeffs(
                [random_fraction(rng, 4, 4) for _ in range(rng.randint(1, 6))]
            )
            exact = sigma_inner(cheb_transform(p1), cheb_transform(p2))
            steps = 20000
            acc = 0.0
            for i in range(steps):
                theta = math.pi * (i + 0.5) / steps
                t = math.cos(theta)
                acc += p1.eval_float(t) * p2.eval_float(t)
            assert abs(acc / steps - float(exact)) < 1e-9


class TestParseval:
    def test_two_term(self):
        g = LaurentPoly.from_dict({1: Fraction(1), -1: Fraction(1)})
        assert parseval_circle_check(g, 8) < 1e-9

    def test_constant(self):
        g = LaurentPoly.from_dict({0: Fraction(1)})
        assert parseval_circle_check(g, 4) < 1e-12

    def test_transform_of_linear(self):
        # coefficient squares: 1 + 1/4 + 1/4 = 3/2
        g = laurent_from_roots([Fraction(1)])
        assert sum(float(c) ** 2 for _, c in g.terms) == pytest.approx(1.5)
        assert parseval_circle_check(g, 16) < 1e-9

    def test_rejects_small_sample_counts(self):
        g = LaurentPoly.from_dict({2: Fraction(1), -2: Fraction(1)})
        with pytest.raises(ValueError):
            parseval_circle_check(g, 8)

    def test_random_laurent_polynomials(self):
        rng = random.Random(23)
        for _ in range(100):
            span = rng.randint(0, 12)
            terms = {
                e: Fraction(rng.randint(-10, 10), 10) for e in range(-span, span + 1)
            }
            g = LaurentPoly.from_dict(terms)
            assert parseval_circle_check(g, 2 * g.span() + 8) < 1e-8


class TestLaurent:
    def test_product_symmetry(self):
        rng = random.Random(3)
        for _ in range(20):
            roots = [random_fraction(rng, 10, 11) for _ in range(rng.randint(0, 8))]
            g = laurent_from_roots(roots)
            for e, c in g.terms:
                assert g.coeff(-e) == c

    def test_expansion_accessor_is_symmetric(self):
        e = ChebyshevExpansion.from_coeffs([1, 2, 3])
        assert e.coeff(-2) == e.coeff(2) == 3
        assert e.coeff(5) == 0
