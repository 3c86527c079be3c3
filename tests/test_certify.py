import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualshare import certify
from dualshare.certify import (
    abs_bounded_on,
    poly_nonneg_on,
    sup_norm_certified,
    sturm_chain,
)
from dualshare.ratpoly import RationalPoly
from dualshare.symcheb import exact_weight_test
from oracles import (
    odd_part_fraction,
    poly_divmod,
    poly_gcd,
    poly_nonneg_on_fraction,
    sturm_chain_fraction,
)


def test_divmod_and_gcd():
    a = RationalPoly.from_roots([1, 2, 3])
    b = RationalPoly.from_roots([2, 3])
    q, r = poly_divmod(a, b)
    assert r.is_zero()
    assert q == RationalPoly.from_roots([1])
    g = poly_gcd(a, RationalPoly.from_roots([3, 5]))
    assert g.degree == 1 and g(3) == 0


# 1/sqrt(2), the positive root of t^2 - 1/2, bracketed by two rationals 2^-100 apart
_HALF_ROOT = (Fraction(math.isqrt(2**199), 2**100), Fraction(math.isqrt(2**199) + 1, 2**100))
_small = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _factored_sign(scale, roots, quad, x) -> int:
    """sign of scale * prod (t - r)^m * quad(t) at the rational x, factor by factor."""
    sign = _sign(scale)
    for r, m in roots:
        sign *= _sign(x - r) ** m
    if quad is not None:
        a, power = quad
        sign *= _sign(x * x + a) ** power
    return sign


@st.composite
def _factored_instances(draw):
    """(scale, [(root, multiplicity)], quad, lo, hi): p = scale * prod (t - r)^m
    * (t^2 + a)^power with a > 0 or a = -1/2 (roots +-1/sqrt(2)), some roots at
    lo or hi."""
    lo = draw(_small)
    hi = lo + draw(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6))
    roots = [
        (draw(st.sampled_from([lo, hi]) | _small), draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    quad = draw(st.none() | st.tuples(
        st.fractions(min_value=Fraction(1, 9), max_value=2, max_denominator=9)
        | st.just(Fraction(-1, 2)),
        st.integers(1, 2),
    ))
    scale = draw(st.sampled_from([Fraction(-3, 2), Fraction(-1), Fraction(1, 3), Fraction(2)]))
    return scale, roots, quad, lo, hi


def _factored_verdict(scale, roots, quad, lo, hi) -> bool:
    """p >= 0 on [lo, hi] from the known factorisation alone: the sign of p at a
    rational point strictly between each pair of consecutive roots in (lo, hi)."""
    cuts = [(r, r) for r, _ in roots if lo < r < hi]
    if quad is not None and quad[0] < 0:
        below, above = _HALF_ROOT
        cuts += [c for c in ((below, above), (-above, -below)) if lo < c[0] and c[1] < hi]
    cuts = sorted({*cuts, (lo, lo), (hi, hi)})
    samples = [(u[1] + v[0]) / 2 for u, v in zip(cuts, cuts[1:])]
    return all(_factored_sign(scale, roots, quad, x) > 0 for x in samples)


def _expand(scale, roots, quad) -> RationalPoly:
    p = scale * RationalPoly.from_roots([r for r, m in roots for _ in range(m)])
    if quad is not None:
        a, power = quad
        p = p * RationalPoly.of(a, 0, 1) ** power
    return p


@settings(max_examples=300, deadline=None)
@given(_factored_instances())
def test_nonneg_matches_the_known_factorisation(instance):
    scale, roots, quad, lo, hi = instance
    p = _expand(scale, roots, quad)
    assert poly_nonneg_on(p, lo, hi) is _factored_verdict(scale, roots, quad, lo, hi)
    # a single point reads the sign of p there, a root counting as nonnegative
    assert poly_nonneg_on(p, hi, hi) is (_factored_sign(scale, roots, quad, hi) >= 0)


@settings(max_examples=300, deadline=None)
@given(_factored_instances(), st.sampled_from(["interval", "interval", "point", "zero"]))
def test_nonneg_decides_as_the_fraction_oracle(instance, shape):
    scale, roots, quad, lo, hi = instance
    p = RationalPoly() if shape == "zero" else _expand(scale, roots, quad)
    if shape == "point":
        lo = hi
    assert poly_nonneg_on(p, lo, hi) is poly_nonneg_on_fraction(p, lo, hi)
    # the primitive pseudo-remainder chain is the rational chain, made primitive
    q = odd_part_fraction(p)
    assert sturm_chain(q) == [list(f.coeffs) for f in sturm_chain_fraction(q)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=3, max_size=7),
    st.sampled_from([1, -1, 2]),
    st.sampled_from([(-1, 1), (-3, 2), (0, 3), (Fraction(-1, 2), Fraction(5, 3))]),
)
def test_nonneg_on_sparse_polynomials_decides_as_the_fraction_oracle(low, lead, interval):
    # gaps in the coefficients make remainders drop several degrees at once,
    # where the sign of the pseudo-remainder scaling |lc|^(delta + 1) matters
    p = RationalPoly.from_coeffs([*low, lead])
    lo, hi = interval
    assert poly_nonneg_on(p, lo, hi) is poly_nonneg_on_fraction(p, lo, hi)


@pytest.mark.parametrize(
    "p, lo, hi, expected",
    [
        # roots of odd multiplicity at the right and left endpoints
        (RationalPoly.of(1, -1), 0, 1, True),
        (-RationalPoly.from_roots([1, 1, 1]), -1, 1, True),
        (RationalPoly.from_roots([-1, -1, -1]), -1, 1, True),
        (RationalPoly.from_roots([-1, 1]), -1, 1, False),
        # an interior root of even multiplicity, rational and irrational
        (RationalPoly.from_roots([Fraction(1, 2)] * 4), 0, 1, True),
        (RationalPoly.of(Fraction(-1, 2), 0, 1) ** 2, -1, 1, True),
        # the same roots with odd multiplicity
        (RationalPoly.from_roots([Fraction(1, 2)] * 3), 0, 1, False),
        (RationalPoly.of(Fraction(-1, 2), 0, 1) ** 3, -1, 1, False),
        # sparse polynomials whose remainder sequence skips degrees
        (RationalPoly.of(2, -1, 0, 0, 1), -1, 3, True),
        (RationalPoly.of(-1, 1, 0, 0, 2), -2, 3, False),
        (RationalPoly.of(2, -1, 0, -1, 0, 0, 2), 0, 2, True),
    ],
)
def test_nonneg_endpoint_and_multiple_roots(p, lo, hi, expected):
    assert poly_nonneg_on(p, lo, hi) is expected


def test_nonneg_degenerate_intervals_and_zero_polynomial():
    p = RationalPoly.from_roots([Fraction(1, 3)])  # t - 1/3
    assert poly_nonneg_on(RationalPoly(), -1, 1)
    assert poly_nonneg_on(p, Fraction(1, 3), Fraction(1, 3))
    assert poly_nonneg_on(p, 1, 1)
    assert not poly_nonneg_on(p, 0, 0)
    for q in (RationalPoly(), RationalPoly.of(1), p):
        with pytest.raises(ValueError):
            poly_nonneg_on(q, 1, 0)


def test_nonneg_detects_dip_between_rational_roots():
    # (t - 1/4)(t - 1/2) is negative strictly between its roots
    p = RationalPoly.from_roots([Fraction(1, 4), Fraction(1, 2)])
    assert not poly_nonneg_on(p, 0, 1)
    assert poly_nonneg_on(p * p, 0, 1)


def test_nonneg_touching_root_passes():
    p = RationalPoly.from_roots([Fraction(1, 3), Fraction(1, 3)])
    assert poly_nonneg_on(p, -1, 1)


def test_nonneg_endpoint_sign():
    p = RationalPoly.of(0, 1)  # t
    assert poly_nonneg_on(p, 0, 1)
    assert not poly_nonneg_on(p, Fraction(-1, 1000), 1)


def test_nonneg_random_against_dense_grid():
    rng = random.Random(99)
    for _ in range(40):
        deg = rng.randint(1, 6)
        p = RationalPoly.from_coeffs(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg + 1)]
        )
        if p.is_zero():
            continue
        verdict = poly_nonneg_on(p, -1, 1)
        grid_neg = any(p(Fraction(i, 400)) < 0 for i in range(-400, 401))
        if grid_neg:
            assert not verdict
        # a clean positive margin on a dense grid should certify
        if all(p(Fraction(i, 400)) > Fraction(1, 100) for i in range(-400, 401)):
            assert verdict


def test_sup_norm_certified_linear():
    p = RationalPoly.of(0, 1)
    attained, upper = sup_norm_certified(p)
    assert attained == 1 == upper  # grid contains the maximiser


def test_sup_norm_certified_interior_max():
    # 1 - t^2 peaks at 1 exactly (grid hits 0)
    p = RationalPoly.of(1, 0, -1)
    attained, upper = sup_norm_certified(p)
    assert attained == 1 == upper


def test_sup_norm_certified_irrational_max():
    # t^3 - t has sup 2/(3 sqrt 3) on [-1,1], attained off any rational grid
    p = RationalPoly.of(0, -1, 0, 1)
    truth = 2 / (3 * 3**0.5)
    attained, upper = sup_norm_certified(p)
    assert float(attained) <= truth <= float(upper)
    assert float(upper) <= truth * (1 + 2e-6)
    assert poly_nonneg_on(RationalPoly.of(upper * upper) - p * p, -1, 1)


def test_sup_norm_zero():
    assert sup_norm_certified(RationalPoly()) == (0, 0)


def test_sturm_chain_counts():
    p = RationalPoly.from_roots([Fraction(-1, 2), Fraction(1, 4), Fraction(3, 4)])
    chain = sturm_chain(p)
    from dualshare.certify import count_roots_open

    assert count_roots_open(chain, Fraction(-1), Fraction(1)) == 3
    assert count_roots_open(chain, Fraction(0), Fraction(1)) == 2


def _truncation_error(n, K, w, k):
    test = exact_weight_test(n, K, w)
    return test.poly - test.cheb.truncate(k)


@pytest.mark.parametrize(
    "n, K, w, k",
    # every truncation the trunc-cert benchmark workload certifies
    [(640, 10, 2, 5), (640, 10, 2, 6), (640, 10, 8, 5), (640, 10, 8, 6),
     (512, 8, 2, 4), (512, 8, 6, 4)],
)
def test_sup_norm_matches_the_fraction_oracle_on_the_truncation_ladder(monkeypatch, n, K, w, k):
    p = _truncation_error(n, K, w, k)
    fast = sup_norm_certified(p)
    monkeypatch.setattr(certify, "poly_nonneg_on", poly_nonneg_on_fraction)
    assert sup_norm_certified(p) == fast
    assert fast[0] == max(abs(p(Fraction(i - 128, 128))) for i in range(257))


def squared_decision(p, bound, lo, hi):
    """The decision abs_bounded_on replaced: bound^2 - p^2 >= 0, twice the degree."""
    return poly_nonneg_on(RationalPoly.of(Fraction(bound) ** 2) - p * p, lo, hi)


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_coeff, max_size=6),
    st.fractions(min_value=0, max_value=4, max_denominator=9),
    st.sampled_from([(-1, 1), (0, 1), (Fraction(-1, 3), Fraction(5, 2))]),
)
def test_abs_bounded_matches_squared_decision(coeffs, bound, interval):
    p = RationalPoly.from_coeffs(coeffs)
    lo, hi = interval
    assert abs_bounded_on(p, bound, lo, hi) == squared_decision(p, bound, lo, hi)
    # bounds at the extreme grid values sit on the boundary of the decision
    grid_max = max(abs(p(lo + (hi - lo) * Fraction(i, 16))) for i in range(17))
    for b in (grid_max, grid_max + Fraction(1, 1000)):
        assert abs_bounded_on(p, b, lo, hi) == squared_decision(p, b, lo, hi)


@pytest.mark.parametrize(
    "p, bound",
    [
        # 1 - (t - 1/3)^2 / 2 reaches its sup 1 at t = 1/3, a double root of 1 - p
        (RationalPoly.of(1) - Fraction(1, 2) * RationalPoly.from_roots([Fraction(1, 3)] * 2), 1),
        # the mirror image reaches -1 at a double root of 1 + p
        (Fraction(1, 2) * RationalPoly.from_roots([Fraction(1, 3)] * 2) - RationalPoly.of(1), 1),
        # t^3 reaches +-1 only at the endpoints, simple roots of 1 -+ t^3
        (RationalPoly.of(0, 0, 0, 1), 1),
        # 3t^2 - 1 reaches 2 at both endpoints and -1 at the interior double root
        (RationalPoly.of(-1, 0, 3), 2),
    ],
)
def test_abs_bounded_at_touching_double_roots_and_endpoints(p, bound):
    bound = Fraction(bound)
    for b, expected in ((bound, True), (bound - Fraction(1, 2**40), False),
                        (bound + Fraction(1, 2**40), True)):
        assert abs_bounded_on(p, b, -1, 1) is expected
        assert squared_decision(p, b, -1, 1) is expected


def test_abs_bounded_rejects_a_negative_bound():
    with pytest.raises(ValueError):
        abs_bounded_on(RationalPoly.of(0, 1), -1, -1, 1)


@pytest.mark.parametrize(
    "p",
    [
        RationalPoly.of(0, -1, 0, 1),
        # sup 2.48... at t = sqrt(5/12), off every rational grid
        RationalPoly.of(Fraction(1, 3), 5, 0, -4),
        # a truncation error p_w - q_w, as certified by truncated_approximant
        _truncation_error(256, 4, 1, 1),
    ],
)
def test_sup_norm_bisection_path_unchanged_by_half_degree_decision(monkeypatch, p):
    calls = []

    def record(decide):
        def wrapped(q, bound, lo, hi):
            verdict = decide(q, bound, lo, hi)
            calls.append((bound, verdict))
            return verdict
        return wrapped

    monkeypatch.setattr(certify, "abs_bounded_on", record(abs_bounded_on))
    half = sup_norm_certified(p)
    half_calls, calls = calls, []
    monkeypatch.setattr(certify, "abs_bounded_on", record(squared_decision))
    assert sup_norm_certified(p) == half
    assert calls == half_calls and len(calls) > 1
