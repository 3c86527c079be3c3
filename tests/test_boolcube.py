import ast
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualshare.approxlab as approxlab
import dualshare.boolcube as boolcube
from dualshare.boolcube import (
    SymmetricDistribution,
    class_sizes,
    dual_pairings,
    kravchuk_table,
    kwise_indistinguishable,
    project_symmetric,
    stat_distance_symmetric,
    walsh_hadamard,
)
from dualshare.dualand import WeightVector, mask_to_bits

from conftest import random_symmetric_distribution
from oracles import (
    ParityPoly,
    basis_convert,
    bits_to_mask,
    chi,
    class_pairings_on_cube,
    cube_pairing,
    kravchuk,
    kwise_by_projection,
    l2_squared,
    parity_values,
    per_string_prob,
    point_mass,
    uniform_distribution,
    walsh_hadamard_inplace,
)


def naive_transform(values):
    """O(4^n) double loop: the oracle for the fast transform."""
    size = len(values)
    n = size.bit_length() - 1
    return [
        sum(values[s] * chi(s, x) for s in range(size)) for x in range(size)
    ]


def string_probs(d: SymmetricDistribution) -> dict[int, Fraction]:
    return {m: per_string_prob(d, m.bit_count()) for m in range(1 << d.n)}


def brute_marginal(d: SymmetricDistribution, coords: tuple[int, ...]):
    """Marginal distribution over explicit coordinates, by full enumeration."""
    out: dict[tuple[int, ...], Fraction] = {}
    for m, p in string_probs(d).items():
        bits = mask_to_bits(d.n, m)
        key = tuple(bits[i] for i in coords)
        out[key] = out.get(key, Fraction(0)) + p
    return out


class TestWalshHadamard:
    def test_single_bit_examples(self):
        assert walsh_hadamard([1, 0]) == [1, 1]
        assert walsh_hadamard([0, 1]) == [1, -1]

    def test_against_naive_loop(self, rng):
        for _ in range(5):
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)]
            assert walsh_hadamard(vals) == naive_transform(vals)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=16).filter(
            lambda v: len(v) & (len(v) - 1) == 0
        )
    )
    def test_involution_up_to_size(self, vals):
        doubled = walsh_hadamard(walsh_hadamard(vals))
        assert doubled == [len(vals) * v for v in vals]

    def test_rejects_bad_length(self):
        for size in (0, 3, 5, 6, 12, 100):
            with pytest.raises(ValueError):
                walsh_hadamard([1] * size)

    @pytest.mark.parametrize("n", range(13))
    def test_matches_inplace_butterfly(self, n, rng):
        ints = [rng.randint(-10**12, 10**12) for _ in range(1 << n)]
        fracs = [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(1 << n)]
        for vals in (ints, fracs):
            out = walsh_hadamard(vals)
            assert out == walsh_hadamard_inplace(vals)
            assert [type(v) for v in out] == [type(v) for v in vals]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.lists(
                st.integers() | st.fractions(max_denominator=50),
                min_size=1 << n, max_size=1 << n,
            )
        )
    )
    def test_matches_inplace_butterfly_on_mixed_values(self, vals):
        assert walsh_hadamard(vals) == walsh_hadamard_inplace(vals)


def _digits(index: int, sizes) -> list[int]:
    """Per-group counts of a mixed-radix class index, group 1 lowest."""
    out = []
    for g in sizes:
        index, j = divmod(index, g + 1)
        out.append(j)
    return out


_GROUPED = st.lists(st.integers(1, 4), max_size=3).flatmap(
    lambda sizes: st.tuples(
        st.just(sizes),
        st.lists(st.integers(-50, 50) | st.fractions(max_denominator=20),
                 min_size=prod(g + 1 for g in sizes), max_size=prod(g + 1 for g in sizes)),
    )
)


class TestGroupCountTransform:
    @settings(max_examples=30, deadline=None)
    @given(_GROUPED)
    def test_matches_brute_force_kravchuk_product_sum(self, case):
        sizes, vals = case
        brute = [
            sum(v * prod(kravchuk(g, s, j) for g, s, j in
                         zip(sizes, _digits(si, sizes), _digits(ji, sizes)))
                for si, v in enumerate(vals))
            for ji in range(len(vals))
        ]
        assert walsh_hadamard(vals, sizes) == brute

    @settings(max_examples=60, deadline=None)
    @given(_GROUPED)
    def test_is_the_cube_transform_read_on_classes(self, case):
        # spread the class values over the cube (every S of class s gets
        # vals[s]); the cube transform is then constant on classes and equal
        # to the class transform there
        sizes, vals = case
        groups = [g for g, size in enumerate(sizes) for _ in range(size)]
        strides = [prod(h + 1 for h in sizes[:g]) for g in range(len(sizes))]
        state = [sum(strides[groups[i]] for i in range(len(groups)) if x >> i & 1)
                 for x in range(1 << len(groups))]
        cube = walsh_hadamard_inplace([vals[s] for s in state])
        out = walsh_hadamard(vals, sizes)
        assert cube == [out[s] for s in state]

    def test_all_singleton_sizes_are_the_cube_transform(self, rng):
        for n in range(6):
            vals = [rng.randint(-99, 99) for _ in range(1 << n)]
            assert walsh_hadamard(vals, [1] * n) == walsh_hadamard(vals)

    @pytest.mark.parametrize("sizes, length", [([2], 4), ([2, 1], 5), ([0], 1), ([], 2)])
    def test_rejects_a_length_that_is_not_the_class_count(self, sizes, length):
        with pytest.raises(ValueError):
            walsh_hadamard([1] * length, sizes)


def test_the_distribution_cap_is_the_ramp_cap():
    """The distribution reader's cap lives in boolcube, so that reading a file
    runs no approxlab; it is the largest n that ramp --finite writes."""
    assert boolcube.MAX_DIST_N == approxlab.MAX_N


class TestProjectSymmetric:
    def test_uniform_projects_to_uniform(self):
        for n in (3, 5, 8):
            d = uniform_distribution(n)
            for k in range(1, n + 1):
                assert project_symmetric(d, k) == uniform_distribution(k)

    def test_point_mass_all_ones(self):
        d = point_mass(6, 6)
        assert project_symmetric(d, 2) == point_mass(2, 2)

    def test_worked_example_n5(self):
        # point mass at weight 2 on 5 bits, projected to 2 coordinates
        d = point_mass(5, 2)
        proj = project_symmetric(d, 2)
        assert proj.weight_probs == (
            Fraction(3, 10),
            Fraction(6, 10),
            Fraction(1, 10),
        )
        # oracle: brute-force marginalisation of the first two coordinates
        marg = brute_marginal(d, (0, 1))
        assert marg[(0, 0)] == Fraction(3, 10)
        assert marg[(0, 1)] + marg[(1, 0)] == Fraction(6, 10)
        assert marg[(1, 1)] == Fraction(1, 10)

    def test_symmetric_paths_scale_past_cube_sizes(self):
        # symmetric-representation operations have no 2^n table anywhere
        n = 2000
        d = point_mass(n, n // 2)
        proj = project_symmetric(d, 2)
        assert sum(proj.weight_probs) == 1
        assert stat_distance_symmetric(d, d) == 0
        assert kwise_indistinguishable(d, d, 3)

    def test_against_brute_force_marginals(self, rng):
        # agreement with full-cube marginalisation on
        # every coordinate set (symmetry makes one subset per size enough to
        # build, but the oracle checks several)
        for _ in range(50):
            n = rng.randint(2, 10)
            d = random_symmetric_distribution(rng, n)
            k = rng.randint(1, n)
            proj = project_symmetric(d, k)
            coords = tuple(sorted(rng.sample(range(n), k)))
            marg = brute_marginal(d, coords)
            by_weight = [Fraction(0)] * (k + 1)
            for key, p in marg.items():
                by_weight[sum(key)] += p
            assert tuple(by_weight) == proj.weight_probs
            # and the marginal is symmetric: per-string values constant per class
            for key, p in marg.items():
                assert p == per_string_prob(proj, sum(key))


class TestStatDistance:
    def test_identical(self):
        d = uniform_distribution(4)
        assert stat_distance_symmetric(d, d) == 0

    def test_disjoint_point_masses(self):
        a = point_mass(5, 0)
        b = point_mass(5, 5)
        assert stat_distance_symmetric(a, b) == 1

    def test_worked_example_n2(self):
        a = SymmetricDistribution.of(2, [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
        b = point_mass(2, 1)
        assert stat_distance_symmetric(a, b) == Fraction(1, 2)

    def test_equals_best_deterministic_test_exhaustively(self, rng):
        # every one of the 2^(2^K) deterministic tests, literally, for K <= 4
        # (integer-scaled so the exhaustive scan stays exact and fast)
        for k in (2, 3, 4):
            d1 = random_symmetric_distribution(rng, k)
            d2 = random_symmetric_distribution(rng, k)
            diffs = [
                per_string_prob(d1, m.bit_count()) - per_string_prob(d2, m.bit_count())
                for m in range(1 << k)
            ]
            from math import lcm

            scale = lcm(*(d.denominator for d in diffs))
            scaled = [int(d * scale) for d in diffs]
            best = 0
            for test_mask in range(1 << (1 << k)):
                adv = 0
                x = test_mask
                while x:
                    low = x & -x
                    adv += scaled[low.bit_length() - 1]
                    x ^= low
                if adv > best:
                    best = adv
            assert Fraction(best, scale) == stat_distance_symmetric(d1, d2)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            stat_distance_symmetric(
                uniform_distribution(2), uniform_distribution(3)
            )


class TestKwise:
    def brute_kwise(self, d1, d2, k):
        n = d1.n
        for coords in combinations(range(n), k):
            if brute_marginal(d1, coords) != brute_marginal(d2, coords):
                return False
        return True

    def test_parity_distributions(self):
        # uniform over even-parity vs odd-parity strings: (n-1)-wise
        # indistinguishable but n-wise distinguishable
        for n in (2, 3, 4, 5):
            even = [
                Fraction(comb(n, h), 2 ** (n - 1)) if h % 2 == 0 else Fraction(0)
                for h in range(n + 1)
            ]
            odd = [
                Fraction(comb(n, h), 2 ** (n - 1)) if h % 2 == 1 else Fraction(0)
                for h in range(n + 1)
            ]
            d1 = SymmetricDistribution.of(n, even)
            d2 = SymmetricDistribution.of(n, odd)
            assert kwise_indistinguishable(d1, d2, n - 1)
            assert not kwise_indistinguishable(d1, d2, n)
            assert self.brute_kwise(d1, d2, n - 1)
            assert not self.brute_kwise(d1, d2, n)

    def test_identical(self):
        d = uniform_distribution(3)
        assert kwise_indistinguishable(d, d, 3)

    def test_worked_example_n2(self):
        d1 = point_mass(2, 1)
        d2 = SymmetricDistribution.of(2, [Fraction(1, 2), 0, Fraction(1, 2)])
        assert kwise_indistinguishable(d1, d2, 1)
        assert not kwise_indistinguishable(d1, d2, 2)

    def test_monotone_in_k(self, rng):
        for n in (4, 5, 6):
            even = [
                Fraction(comb(n, h), 2 ** (n - 1)) if h % 2 == 0 else Fraction(0)
                for h in range(n + 1)
            ]
            odd = [
                Fraction(comb(n, h), 2 ** (n - 1)) if h % 2 == 1 else Fraction(0)
                for h in range(n + 1)
            ]
            d1 = SymmetricDistribution.of(n, even)
            d2 = SymmetricDistribution.of(n, odd)
            top = max(k for k in range(n + 1) if kwise_indistinguishable(d1, d2, k))
            for j in range(top + 1):
                assert kwise_indistinguishable(d1, d2, j)


# class masses on 1-3 groups of 1-4 coordinates (at most 10), ints and Fractions
_CLASS_MASSES = st.lists(st.integers(1, 4), min_size=1, max_size=3).filter(
    lambda sizes: sum(sizes) <= 10).flatmap(
    lambda sizes: st.tuples(
        st.just(sizes),
        st.lists(st.integers(-9, 9) | st.fractions(max_denominator=12),
                 min_size=prod(g + 1 for g in sizes), max_size=prod(g + 1 for g in sizes)),
        st.sets(st.integers(0, prod(g + 1 for g in sizes) - 1)),
    )
)


def _stencil_pair(n: int, k: int, base: list[int], coeffs: list[int]):
    """(mu, nu) = base -/+ psi over a common total, psi a sum of shifted
    (k+1)-th differences (-1)^i C(k+1, i) at weights a..a+k+1, which
    annihilate every polynomial of degree <= k in h and so pair to zero with
    every chi_S, |S| <= k."""
    psi = [0] * (n + 1)
    for a, c in enumerate(coeffs[: n - k]):
        for i in range(k + 2):
            psi[a + i] += c * (-1) ** i * comb(k + 1, i)
    # mu and nu stay nonnegative: the base outweighs every |psi_h|
    lift = [b + max(abs(v) for v in psi) for b in base]
    total = sum(lift)
    return (SymmetricDistribution.of(n, [Fraction(b + v, total) for b, v in zip(lift, psi)]),
            SymmetricDistribution.of(n, [Fraction(b - v, total) for b, v in zip(lift, psi)]))


# (n, k, base, stencil coefficients) for n <= 16 and 0 <= k < n
_PAIRS = st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, n - 1),
    st.lists(st.integers(1, 5), min_size=n + 1, max_size=n + 1),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
))


class TestDualPairings:
    @settings(max_examples=80, deadline=None)
    @given(_CLASS_MASSES)
    def test_class_form_matches_the_cube_pairing(self, case):
        sizes, psi, tested = case
        pairings, l1 = dual_pairings(psi, sizes, sorted(tested))
        cube, cube_l1 = class_pairings_on_cube(psi, sizes)
        assert pairings == {s: v for s, v in cube.items() if s in tested}
        assert l1 == cube_l1 == sum(abs(Fraction(p)) for p in psi)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 16).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(-1, n),
        st.lists(st.integers(-9, 9) | st.fractions(max_denominator=12),
                 min_size=n + 1, max_size=n + 1))))
    def test_one_group_is_the_kravchuk_row_sum(self, case):
        n, k, psi = case
        expect = {r: sum(Fraction(p) * kravchuk(n, r, h) for h, p in enumerate(psi)) / comb(n, r)
                  for r in range(k + 1)}
        pairings, l1 = dual_pairings(psi, (n,), range(k + 1))
        assert pairings == {r: v for r, v in expect.items() if v}
        assert l1 == sum(abs(Fraction(p)) for p in psi)
        if n <= 10:
            cube, _ = class_pairings_on_cube(psi, (n,))
            assert pairings == {r: v for r, v in cube.items() if r <= k}

    def test_one_group_builds_the_rows_up_to_the_tested_size_only(self, monkeypatch):
        n = 997  # a grid size no other test builds rows for
        boolcube._KRAVCHUK_ROWS.pop(n, None)
        built = []
        stream = boolcube._kravchuk_stream

        def counted(g):
            for row in stream(g):
                built.append(g)
                yield row

        monkeypatch.setattr(boolcube, "_kravchuk_stream", counted)
        psi = [Fraction(0)] * (n + 1)
        psi[0], psi[n] = Fraction(1, 2), Fraction(-1, 2)
        pairings, l1 = dual_pairings(psi, (n,), range(4))
        # chi_S at weight n is (-1)^|S|: only odd sizes pair
        assert pairings == {1: Fraction(1), 3: Fraction(1)} and l1 == 1
        assert built == [n] * 4 and n not in boolcube._KRAVCHUK_ROWS

    def test_one_group_at_n_1000_leaves_no_table(self):
        # half the rows of n = 1000 would hold about 50 MB if kept
        n, k = 1000, 500
        boolcube._KRAVCHUK_ROWS.pop(n, None)
        mu = [Fraction(comb(n, h), 1 << n) for h in range(n + 1)]
        nu = list(mu)  # one point's mass moved from weight 1 to weight 0
        nu[0], nu[1] = nu[0] + Fraction(1, 1 << n), nu[1] - Fraction(1, 1 << n)
        d1, d2 = SymmetricDistribution.of(n, mu), SymmetricDistribution.of(n, nu)
        assert not kwise_indistinguishable(d1, d2, k)
        assert n not in boolcube._KRAVCHUK_ROWS

    def test_class_sizes_count_points(self):
        assert class_sizes((2, 1)) == [1, 2, 1, 1, 2, 1]
        assert sum(class_sizes((3, 4, 1))) == 1 << 8

    @settings(max_examples=80, deadline=None)
    @given(_PAIRS)
    def test_pairs_built_kwise_equal_agree_with_the_projections(self, case):
        n, k, base, coeffs = case
        mu, nu = _stencil_pair(n, k, base, coeffs)
        assert kwise_indistinguishable(mu, nu, k)
        for j in range(n + 1):
            assert kwise_indistinguishable(mu, nu, j) == kwise_by_projection(mu, nu, j)

    @settings(max_examples=80, deadline=None)
    @given(_PAIRS.filter(lambda case: case[1] >= 1), st.data())
    def test_moving_one_mass_breaks_indistinguishability(self, case, data):
        # mu - nu pairs to zero with every chi_S, |S| = 1 <= k, so after the
        # move the size-1 pairing is the moved mass's alone, 2 (src - dst) amount / n
        n, k, base, coeffs = case
        mu, nu = _stencil_pair(n, k, base, coeffs)
        src = data.draw(st.sampled_from([h for h, p in enumerate(mu.weight_probs) if p]))
        dst = data.draw(st.integers(0, n).filter(lambda h: h != src))
        moved = list(mu.weight_probs)
        amount = moved[src] * data.draw(st.fractions(0, 1).filter(lambda t: t > 0))
        moved[src] -= amount
        moved[dst] += amount
        perturbed = SymmetricDistribution.of(n, moved)
        for j in range(1, n + 1):
            assert not kwise_indistinguishable(perturbed, nu, j)
            assert not kwise_by_projection(perturbed, nu, j)

    def test_no_module_outside_boolcube_reads_the_kravchuk_table(self):
        package = Path(boolcube.__file__).parent
        readers = sorted(
            path.name for path in package.glob("*.py") if path.name != "boolcube.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
            and "_kravchuk_rows" in (getattr(node, "attr", None), getattr(node, "id", None),
                                     getattr(node, "name", None))
        )
        assert not readers, readers


class TestParityPoly:
    def test_exact_and_has_weight_one(self):
        # 2^-t prod (1 + x_i), the +-1-domain AND, has parity weight exactly 1
        for t in (1, 2, 3, 4):
            mono = {(1 << t) - 1: Fraction(1)}
            p = basis_convert(mono, t)  # b_1...b_t = AND of bits
            assert p.weight() == 1

    def test_single_character(self):
        p = ParityPoly(4, {0b1010: Fraction(1)})
        assert p.weight() == 1

    def test_linear_combination(self):
        p = ParityPoly(3, {0: Fraction(3), 0b011: Fraction(-2)})
        assert p.weight() == 5

    def test_weight_invariant_under_relabeling(self, rng):
        mono = {
            rng.randrange(16): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(6)
        }
        p = basis_convert(mono, 4)
        # relabeling = permuting variables; realised here by reversing bit order
        relabeled = ParityPoly(
            4,
            {
                int(format(s, "04b")[::-1], 2): c
                for s, c in p.coeffs.items()
            },
        )
        assert relabeled.weight() == p.weight()


class TestBasisConvert:
    def test_single_variable(self):
        p = basis_convert({0b1: Fraction(1)}, 2)
        assert p.coeffs == {0: Fraction(1, 2), 0b1: Fraction(-1, 2)}

    def test_constant(self):
        p = basis_convert({0: Fraction(1)}, 2)
        assert p.coeffs == {0: Fraction(1)}

    def test_two_variable_product(self):
        p = basis_convert({0b11: Fraction(1)}, 2)
        assert p.coeffs == {
            0: Fraction(1, 4),
            0b01: Fraction(-1, 4),
            0b10: Fraction(-1, 4),
            0b11: Fraction(1, 4),
        }

    def test_pointwise_agreement(self, rng):
        for _ in range(10):
            n = rng.randint(1, 5)
            mono = {
                rng.randrange(1 << n): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(4)
            }
            values = parity_values(basis_convert(mono, n))
            for m in range(1 << n):
                bits = mask_to_bits(n, m)
                direct = sum(
                    c * (1 if all(bits[i] for i in range(n) if (s >> i) & 1) else 0)
                    for s, c in mono.items()
                )
                assert values[m] == direct


class TestPairWithWitness:
    def test_phi_n2_with_and(self):
        from dualshare.dualand import build_witness
        from oracles import and_cube, uniform_and_params, witness_values

        wit = build_witness(uniform_and_params(2, 1))
        assert cube_pairing(witness_values(wit), and_cube(2)) == Fraction(1, 4)

    def test_phi_n2_with_single_character(self):
        from dualshare.dualand import build_witness
        from oracles import uniform_and_params, witness_values

        wit = build_witness(uniform_and_params(2, 1))
        assert cube_pairing(witness_values(wit), ParityPoly(2, {0b1: Fraction(1)})) == 0


class TestKravchuk:
    def test_sum_over_subsets(self, rng):
        # kravchuk(n, r, h) = sum over |S|=r of chi_S at a fixed weight-h point
        for _ in range(10):
            n = rng.randint(1, 8)
            r = rng.randint(0, n)
            h = rng.randint(0, n)
            x = bits_to_mask([1] * h + [0] * (n - h))
            brute = sum(
                chi(sum(1 << i for i in subset), x)
                for subset in combinations(range(n), r)
            )
            assert kravchuk(n, r, h) == kravchuk_table(n)[r][h] == brute

    def test_sum_over_strings(self, rng):
        # kravchuk(n, h, r) = sum over |x|=h of chi_S at a fixed size-r subset
        for _ in range(10):
            n = rng.randint(1, 8)
            r = rng.randint(0, n)
            h = rng.randint(0, n)
            s = sum(1 << i for i in range(r))
            brute = sum(
                chi(s, bits_to_mask([1 if i in pos else 0 for i in range(n)]))
                for pos in combinations(range(n), h)
            )
            assert kravchuk(n, h, r) == kravchuk_table(n)[h][r] == brute

    def test_table_is_every_row_up_to_n(self):
        for n in range(1, 12):
            assert kravchuk_table(n) == [[kravchuk(n, r, h) for h in range(n + 1)]
                                         for r in range(n + 1)]


class TestWeightVector:
    def test_norms(self):
        w = WeightVector.of([2, 1, 1])
        assert w.l1() == 4
        assert l2_squared(w) == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector.of([1, -1])
