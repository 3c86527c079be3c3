import math
import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualshare.boolcube import kwise_indistinguishable
from dualshare.errors import PropertyViolation
from dualshare.dualand import (
    BitCountClasses,
    DualAndParams,
    DualAndWitness,
    ShareSampler,
    WeightVector,
    WitnessReport,
    _signed_sum_counts,
    build_witness,
    epsilon_of,
    verify_witness,
)

from oracles import (
    ParityPoly,
    and_cube,
    binomial_tail_epsilon,
    build_and_witness_fraction,
    cube_pairing,
    reconstruction_advantage,
    share_distribution,
    signed_sum_counts_fraction,
    split_cube_witness,
    subset_weight_table_fraction,
    uniform_and_params,
    verify_and_witness_fraction,
    weighted_anticoncentration_check,
    witness_values,
)


def brute_epsilon(w: WeightVector, d: Fraction) -> Fraction:
    """Pr[<w, X> >= d] by full enumeration of sign patterns."""
    n = w.n
    hits = 0
    for m in range(1 << n):
        s = sum((1 - 2 * ((m >> i) & 1)) * w.entries[i] for i in range(n))
        if s >= d:
            hits += 1
    return Fraction(hits, 1 << n)


_WEIGHTS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=3, max_denominator=6),
)


def _subset_weight(entries, mask: int) -> Fraction:
    return sum((e for i, e in enumerate(entries) if mask >> i & 1), Fraction(0))


_WEIGHT_KINDS = ("drawn", "uniform", "repeated", "distinct")


@st.composite
def and_params(draw, max_n: int = 10, kind: str = "drawn") -> DualAndParams:
    """Rational weights (zeros included) and d, often exactly on a boundary.

    ``kind`` shapes the weights: "drawn" each from a wide range, "uniform"
    one value for all, "repeated" from a pool of at most three values (zero
    allowed), "distinct" all different, so every group is a singleton.

    "subset" puts d at w(T) for a drawn subset T, so w(T) < d just fails;
    "H" puts d at |w|_1 - 2 w(T), so T sits exactly on the edge of H.
    """
    n = draw(st.integers(1, max_n))
    if kind == "uniform":
        entries = [draw(st.fractions(min_value=0, max_value=3, max_denominator=6)
                        .filter(lambda t: t > 0))] * n
    elif kind == "repeated":
        pool = draw(st.lists(_WEIGHTS, min_size=1, max_size=3))
        entries = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif kind == "distinct":
        entries = draw(st.lists(_WEIGHTS, min_size=n, max_size=n, unique=True))
    else:
        entries = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    if not any(entries):
        entries[draw(st.integers(0, n - 1))] = Fraction(1)
    w = WeightVector.of(entries)
    l1 = w.l1()
    sub = _subset_weight(entries, draw(st.integers(0, (1 << n) - 1)))
    where = draw(st.sampled_from(["subset", "H", "fraction"]))
    if where == "subset" and sub > 0:
        d = sub
    elif where == "H" and l1 - 2 * sub > 0:
        d = l1 - 2 * sub
    else:
        d = l1 * draw(st.fractions(min_value=0, max_value=1, max_denominator=12)
                      .filter(lambda t: t > 0))
    return DualAndParams(n, w, d)


def any_and_params(max_n: int = 10):
    return st.sampled_from(_WEIGHT_KINDS).flatmap(lambda kind: and_params(max_n, kind))


class TestIntegerPathAgainstFractionOracles:
    @settings(max_examples=60, deadline=None)
    @given(any_and_params())
    def test_subset_weight_table_is_the_scaled_fraction_table(self, p):
        # the class tables, read through the mask -> class table, are the
        # scaled subset weights, the class sizes and the bit counts
        scale = math.lcm(p.d.denominator, *(e.denominator for e in p.w.entries))
        subset_weights = [scale * t for t in subset_weight_table_fraction(p.w)]
        classes = BitCountClasses.of(p.w, p.d)
        assert classes.scaled_d == scale * p.d
        assert all(type(t) is int for t in classes.weights)
        assert [classes.weights[s] for s in classes.class_of] == subset_weights
        assert [classes.ones[s] for s in classes.class_of] == [
            x.bit_count() for x in range(1 << p.n)]
        sizes = Counter(classes.class_of)
        assert classes.mult == [sizes[s] for s in range(len(classes.mult))]
        assert len(classes.sizes) == len(set(p.w.entries))

    @settings(max_examples=60, deadline=None)
    @given(any_and_params())
    def test_build_matches_fraction_oracle(self, p):
        wit = build_witness(p)
        h_size, char_sums, values = build_and_witness_fraction(p)
        assert wit.H_size == h_size
        # the numerators over 2^n |H| are chi_[n] times the squared character sums
        assert wit.classes.expand(wit.numerators) == tuple(
            -m * m if x.bit_count() & 1 else m * m for x, m in enumerate(char_sums))
        assert wit.denominator == (1 << p.n) * h_size
        assert witness_values(wit) == values
        assert wit.epsilon == Fraction(h_size, 1 << p.n)

    @settings(max_examples=60, deadline=None)
    @given(any_and_params(), st.data())
    def test_verify_report_matches_fraction_oracle(self, p, data):
        wit = build_witness(p)
        # a second threshold on a subset-weight boundary, and a witness with
        # one class numerator moved, so that violations are reported too
        d2 = _subset_weight(p.w.entries, data.draw(st.integers(0, (1 << p.n) - 1)))
        nums = list(wit.numerators)
        nums[data.draw(st.integers(0, len(nums) - 1))] += data.draw(
            st.integers(-3, 3).filter(lambda t: t != 0))
        moved = DualAndWitness(wit.params, wit.H_size, wit.classes, nums)
        for phi in (wit, moved):
            for d in {p.d, d2} - {0}:
                at_d = DualAndWitness(DualAndParams(p.n, p.w, d), phi.H_size,
                                      BitCountClasses.of(p.w, d), phi.numerators)
                assert verify_witness(at_d) == verify_and_witness_fraction(
                    witness_values(at_d), d, p.w)
        assert verify_witness(wit).pure_high_degree
        # one value moved anywhere on the cube, inside a class or not, changes
        # the L1 norm, the correlation or a pairing below d (the empty set's)
        values = list(witness_values(wit))
        values[data.draw(st.integers(0, (1 << p.n) - 1))] += data.draw(
            st.fractions(max_denominator=9).filter(lambda t: t != 0))
        report = verify_and_witness_fraction(values, p.d, p.w)
        assert report != verify_witness(wit)
        assert report.l1_norm == sum(abs(v) for v in values)
        assert report.correlation == values[0]

    @settings(max_examples=40, deadline=None)
    @given(any_and_params(max_n=8), st.integers(0, 2**32))
    def test_sampler_draws_match_the_per_point_table(self, p, seed):
        # the inverse-CDF draws over the oracle's per-point character sums
        _, char_sums, _ = build_and_witness_fraction(p)
        wit = build_witness(p)
        for secret in (1, -1):
            parity = 1 if secret == -1 else 0
            points = [x for x in range(1 << p.n) if x.bit_count() & 1 == parity]
            cum = list(accumulate(char_sums[x] ** 2 for x in points))
            rng = random.Random(seed)
            expect = [points[bisect_right(cum, rng.randrange(cum[-1]))] for _ in range(50)]
            sampler = ShareSampler(wit, secret, seed)
            assert [sampler.sample_mask() for _ in range(50)] == expect
            masses = {x: c - b for x, c, b in zip(points, cum, [0] + cum) if c != b}
            assert share_distribution(wit, secret) == {
                x: Fraction(m, cum[-1]) for x, m in masses.items()}


class TestBuildWitness:
    def test_n2_worked_example(self):
        wit = build_witness(uniform_and_params(2, 1))
        assert wit.H_size == 1
        assert wit.epsilon == Fraction(1, 4)
        # phi(x) = x1 x2 / 4
        for m in range(4):
            x1, x2 = 1 - 2 * (m & 1), 1 - 2 * ((m >> 1) & 1)
            assert witness_values(wit)[m] == Fraction(x1 * x2, 4)

    def test_n1_orientation(self):
        # the raw (-1)^n factor would give correlation -1/2; the witness is
        # negated so that <phi, AND> = 1/2 = Pr[X_1 >= 1]
        wit = build_witness(uniform_and_params(1, 1))
        assert witness_values(wit) == (Fraction(1, 2), Fraction(-1, 2))
        assert wit.epsilon == Fraction(1, 2)

    def test_n4_epsilon(self):
        wit = build_witness(uniform_and_params(4, 2))
        assert wit.epsilon == Fraction(5, 16)

    def test_empty_H_rejected(self):
        with pytest.raises(ValueError):
            DualAndParams(2, WeightVector.uniform(2), Fraction(3))


class TestVerifyWitness:
    def test_n2_report(self):
        p = uniform_and_params(2, 1)
        wit = build_witness(p)
        rep = verify_witness(wit)
        assert rep.pure_high_degree
        assert rep.l1_norm == 1
        assert rep.correlation == Fraction(1, 4)
        # the subsets strictly below weight 1 are {} alone; the transform also
        # vanishes at the singletons since phi has only the full monomial
        assert 0 not in rep.violations

    def test_correlation_at_mask_0_is_the_and_pairing(self, rng):
        # AND accepts only mask 0, so phi(0^n) is the full pairing <phi, AND>
        for n in range(1, 11):
            cases = [uniform_and_params(n, d) for d in range(1, n + 1)]
            for _ in range(3):
                w = WeightVector.of(
                    [Fraction(rng.randint(1, 16), rng.randint(1, 8)) for _ in range(n)]
                )
                cases.append(DualAndParams(n, w, w.l1() * Fraction(rng.randint(1, 8), 8)))
            for p in cases:
                wit = build_witness(p)
                values = witness_values(wit)
                pairing = cube_pairing(values, and_cube(n))
                assert pairing == values[0] == wit.epsilon
                assert verify_witness(wit).correlation == pairing

    def test_zero_function_fails_normalisation(self):
        wit = build_witness(uniform_and_params(2, 1))
        zero = DualAndWitness(wit.params, wit.H_size, wit.classes, [0] * len(wit.numerators))
        rep = verify_witness(zero)
        assert rep.l1_norm == 0

    def test_reports_compare_field_by_field(self):
        rep = verify_witness(build_witness(uniform_and_params(4, 2)))
        fields = {"violations": rep.violations, "l1_norm": rep.l1_norm,
                  "correlation": rep.correlation}
        same = WitnessReport(**fields)
        assert same is not rep and same == rep
        for name, other in (("violations", (3,)), ("l1_norm", Fraction(1, 2)),
                            ("correlation", Fraction(0))):
            assert fields[name] != other
            assert WitnessReport(**{**fields, name: other}) != rep, name
        assert rep.pure_high_degree
        assert not WitnessReport(**{**fields, "violations": (3,)}).pure_high_degree

    def test_n4_correlation_matches_epsilon(self):
        p = uniform_and_params(4, 2)
        wit = build_witness(p)
        rep = verify_witness(wit)
        assert rep.correlation == Fraction(5, 16) == epsilon_of(p)

    def test_degree_boundary_is_strict(self):
        # for n=4, d=2 the witness has monomials of degree exactly 2, so the
        # pairing vanishes strictly below d but not at d
        p = uniform_and_params(4, 2)
        wit = build_witness(p)
        values = witness_values(wit)
        assert cube_pairing(values, ParityPoly(4, {0b0011: Fraction(1)})) != 0
        assert cube_pairing(values, ParityPoly(4, {0b0001: Fraction(1)})) == 0

    @settings(max_examples=60, deadline=None)
    @given(any_and_params(), st.data())
    def test_changing_one_class_value_is_reported(self, p, data):
        # a changed class j moves the empty set's pairing by the change times
        # the class size, so mask 0 is reported; a sign flip keeps the L1
        # norm, and doubling raises it
        wit = build_witness(p)
        nums = wit.numerators
        j = data.draw(st.sampled_from([j for j, v in enumerate(nums) if v]))
        for new in (-nums[j], 2 * nums[j]):
            tampered = DualAndWitness(wit.params, wit.H_size, wit.classes,
                                      nums[:j] + [new] + nums[j + 1:])
            rep = verify_witness(tampered)
            assert rep.violations[:1] == (0,)
            assert rep.l1_norm == 1 if new == -nums[j] else rep.l1_norm != 1
            with pytest.raises(PropertyViolation):
                rep.require(wit.epsilon)

    def test_uniform_sweep_exact(self):
        for n in range(2, 9):
            for d in range(1, n + 1):
                p = uniform_and_params(n, d)
                wit = build_witness(p)
                rep = verify_witness(wit)
                assert rep.pure_high_degree
                assert rep.l1_norm == 1
                assert rep.correlation == epsilon_of(p) == binomial_tail_epsilon(n, d)


class TestEpsilonOf:
    def test_n4_uniform(self):
        assert epsilon_of(uniform_and_params(4, 2)) == Fraction(5, 16)

    def test_full_threshold_single_point(self):
        for n in (1, 3, 5):
            assert epsilon_of(uniform_and_params(n, n)) == Fraction(1, 1 << n)

    def test_weighted_example(self):
        p = DualAndParams(3, WeightVector.of([2, 1, 1]), Fraction(2))
        assert epsilon_of(p) == Fraction(3, 8)

    def test_against_brute_force(self, rng):
        for _ in range(20):
            n = rng.randint(1, 7)
            w = WeightVector.of(
                [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
            )
            d = max(w.l1(), Fraction(1)) * Fraction(rng.randint(1, 8), 8)
            if not 0 < d <= max(w.l1(), Fraction(1)):
                continue
            if d > w.l1():
                continue
            p = DualAndParams(n, w, d)
            assert epsilon_of(p) == brute_epsilon(w, d)

    def test_monotone_in_d(self):
        w = WeightVector.of([2, 1, 1, Fraction(1, 2)])
        eps = [
            epsilon_of(DualAndParams(4, w, Fraction(num, 2)))
            for num in range(1, 10)
        ]
        assert all(a >= b for a, b in zip(eps, eps[1:]))


class TestSignedSumsAgainstFractionOracle:
    """The grouped integer counts behind ``epsilon_of``, against the
    per-coordinate ``Fraction`` counts."""

    @staticmethod
    def _check(w: WeightVector, ds) -> None:
        oracle = signed_sum_counts_fraction(w)
        counts, scale = _signed_sum_counts(w)
        assert {Fraction(s, scale): c for s, c in counts.items()} == oracle
        for d in ds:
            hits = sum(c for s, c in oracle.items() if s >= d)
            assert epsilon_of(DualAndParams(w.n, w, d)) == Fraction(hits, 1 << w.n)

    @settings(max_examples=80, deadline=None)
    @given(any_and_params(max_n=12))
    def test_matches_the_fraction_counts(self, p):
        self._check(p.w, [p.d])

    @pytest.mark.parametrize("entries", [
        [0, 0, 0], [0, 1, 0, 0], [Fraction(1, 2)] * 6, [0, Fraction(3, 4), 0, Fraction(3, 4)],
        [Fraction(k, k + 1) for k in range(1, 9)],
    ])
    def test_zero_uniform_and_distinct_weights(self, entries):
        w = WeightVector.of(entries)
        self._check(w, [w.l1() * Fraction(t, 4) for t in range(1, 5) if w.l1()])


class TestWeightedAnticoncentration:
    def test_uniform_n4(self):
        prob, ok = weighted_anticoncentration_check(WeightVector.uniform(4))
        assert prob == Fraction(5, 16) and ok

    def test_single_coordinate(self):
        prob, ok = weighted_anticoncentration_check(WeightVector.of([1, 0, 0, 0]))
        assert prob == Fraction(1, 2) and ok

    def test_weighted_3111(self):
        prob, ok = weighted_anticoncentration_check(WeightVector.of([3, 1, 1, 1]))
        assert prob == Fraction(7, 16) and ok

    def test_random_weights_always_pass(self, rng):
        for _ in range(30):
            n = rng.randint(1, 8)
            w = WeightVector.of(
                [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)]
            )
            prob, ok = weighted_anticoncentration_check(w)
            assert ok and prob >= Fraction(3, 32)


class TestSplitWitnessIndistinguishability:
    def test_split_is_dwise_indistinguishable(self):
        for n in range(2, 8):
            for d in range(1, n + 1):
                wit = build_witness(uniform_and_params(n, d))
                mu, nu = split_cube_witness(witness_values(wit))
                assert kwise_indistinguishable(mu, nu, d - 1)


class TestSampler:
    def test_n2_support(self):
        wit = build_witness(uniform_and_params(2, 1))
        plus = ShareSampler(wit, 1, seed=1)
        assert share_distribution(wit, 1) == {
            0b00: Fraction(1, 2),
            0b11: Fraction(1, 2),
        }
        assert {plus.sample_mask() for _ in range(50)} == {0b00, 0b11}
        minus = ShareSampler(wit, -1, seed=1)
        assert share_distribution(wit, -1) == {
            0b01: Fraction(1, 2),
            0b10: Fraction(1, 2),
        }
        assert {minus.sample_mask() for _ in range(50)} == {0b01, 0b10}

    def test_single_draw_api(self):
        wit = build_witness(uniform_and_params(3, 1))
        bits = ShareSampler(wit, 1, seed=7).sample()
        assert len(bits) == 3 and sum(bits) % 2 == 0

    def test_determinism(self):
        wit = build_witness(uniform_and_params(4, 2))
        a = ShareSampler(wit, -1, seed=42)
        b = ShareSampler(wit, -1, seed=42)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_parity_of_samples_encodes_secret(self):
        wit = build_witness(uniform_and_params(5, 2))
        for secret in (1, -1):
            sampler = ShareSampler(wit, secret, seed=3)
            for _ in range(200):
                bits = sampler.sample()
                assert (-1) ** sum(bits) == secret

    def test_empirical_frequencies_multinomial(self):
        # 10^5 draws against the exact table, 4 sigma per cell
        wit = build_witness(uniform_and_params(6, 2))
        draws = 100_000
        sampler = ShareSampler(wit, 1, seed=2024)
        counts: dict[int, int] = {}
        for _ in range(draws):
            m = sampler.sample_mask()
            counts[m] = counts.get(m, 0) + 1
        table = share_distribution(wit, 1)
        assert sum(counts.values()) == draws
        for m, p in table.items():
            expect = draws * float(p)
            sigma = math.sqrt(draws * float(p) * (1 - float(p)))
            assert abs(counts.get(m, 0) - expect) <= 4 * sigma

    def test_reconstruction_advantage_exact(self):
        wit = build_witness(uniform_and_params(2, 1))
        assert reconstruction_advantage(wit) == Fraction(1, 2) == 2 * wit.epsilon

    def test_reconstruction_advantage_is_twice_epsilon(self, rng):
        for _ in range(10):
            n = rng.randint(2, 7)
            d = rng.randint(1, n)
            wit = build_witness(uniform_and_params(n, d))
            assert reconstruction_advantage(wit) == 2 * wit.epsilon

    def test_empirical_reconstruction_advantage(self):
        wit = build_witness(uniform_and_params(5, 3))
        draws = 100_000
        means = {}
        for secret in (1, -1):
            sampler = ShareSampler(wit, secret, seed=99)
            hits = sum(1 for _ in range(draws) if sampler.sample_mask() == 0)
            means[secret] = hits / draws
        exact = float(reconstruction_advantage(wit))
        p_plus = float(share_distribution(wit, 1).get(0, Fraction(0)))
        sigma = math.sqrt(2 * p_plus * (1 - p_plus) / draws)
        assert abs((means[1] - means[-1]) - exact) <= 3 * sigma
