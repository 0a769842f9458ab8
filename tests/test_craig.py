from functools import reduce
from itertools import combinations

import pytest

from hookzeta.arith import divisors, prime_factorization, valuation
from hookzeta.bounds import Bounds, ScaleError
from hookzeta.craig import (
    ScaledCraigLattice,
    classify_sublattice,
    craig_lattice,
    enumerate_index_sublattices,
    enumerate_index_sublattices_naive,
    enumerate_p_sublattices,
    is_g_stable,
    maximal_sublattices_p,
    mu_p,
    phi_p,
    phi_p_class,
    rad_p,
    scaled_inclusion,
    scaled_index,
    scaled_intersect,
    scaled_lattice_basis,
    scaled_maximal_sublattices,
    scaled_radical,
    scaled_radical_interval,
    _all_submodules,
    _residue_action,
    _word_submodules,
)
from hookzeta.exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    is_sublattice,
    lattice_index,
    lattice_intersect,
)
from hookzeta.specht import RepGenerators, craig_generators, specht_generators_closed


def scaled(n, p, a, b):
    return scaled_lattice_basis(n, ScaledCraigLattice(p, a, b))


def realized(n, family):
    return {scaled_lattice_basis(n, x) for x in family}


def integer_moebius(lattice, maximal, target):
    """Sum (-1)^|J| over subsets J of `maximal` meeting in `target`, by lattice_intersect."""
    return sum(
        (-1) ** size
        for size in range(len(maximal) + 1)
        for subset in combinations(maximal, size)
        if reduce(lattice_intersect, subset, lattice) == target
    )


class TestCraigLattice:
    def test_n3_d2_basis(self):
        lat = craig_lattice(3, 2)
        assert lat.basis.basis == IntMatrix([[2, 0, -1], [0, 2, 2], [0, 0, 1]])

    def test_d1_is_standard(self):
        assert craig_lattice(2, 1).basis == LatticeBasis(IntMatrix.identity(2))

    def test_n2_d3_basis(self):
        assert craig_lattice(2, 3).basis.basis == IntMatrix([[3, 1], [0, 1]])

    def test_determinant(self):
        for n in range(2, 7):
            for d in (1, 2, 3, n + 1):
                assert craig_lattice(n, d).basis.determinant() == d ** (n - 1)


class TestStability:
    def test_divisor_criterion_both_directions(self):
        for n in range(2, 7):
            gens = craig_generators(n)
            for d in range(1, 2 * (n + 1) + 1):
                expected = (n + 1) % d == 0
                assert is_g_stable(craig_lattice(n, d).basis, gens) == expected, (n, d)

    def test_scaled_lattices_stable(self):
        gens = craig_generators(3)
        for a in range(3):
            for b in range(3):
                assert is_g_stable(scaled(3, 2, a, b), gens)


class TestScaledClosedForms:
    def test_inclusion_examples(self):
        assert scaled_inclusion(ScaledCraigLattice(3, 1, 0), ScaledCraigLattice(3, 0, 1))
        assert not scaled_inclusion(ScaledCraigLattice(3, 0, 0), ScaledCraigLattice(3, 1, 0))
        assert not scaled_inclusion(ScaledCraigLattice(3, 0, 2), ScaledCraigLattice(3, 1, 0))

    def test_intersection_examples(self):
        x = ScaledCraigLattice(2, 0, 2)
        assert scaled_intersect(x, x) == x
        assert scaled_intersect(
            ScaledCraigLattice(2, 0, 2), ScaledCraigLattice(2, 1, 0)
        ) == ScaledCraigLattice(2, 1, 1)
        assert scaled_intersect(
            ScaledCraigLattice(2, 0, 1), ScaledCraigLattice(2, 1, 0)
        ) == ScaledCraigLattice(2, 1, 0)

    def test_index_examples(self):
        assert scaled_index(2, ScaledCraigLattice(3, 0, 0), ScaledCraigLattice(3, 0, 1)) == 1
        for n in (2, 3, 4):
            assert scaled_index(n, ScaledCraigLattice(3, 0, 0), ScaledCraigLattice(3, 1, 0)) == n
        assert scaled_index(3, ScaledCraigLattice(2, 0, 2), ScaledCraigLattice(2, 1, 1)) == 1

    def test_index_requires_inclusion(self):
        with pytest.raises(LatticeError, match="not-sublattice"):
            scaled_index(2, ScaledCraigLattice(3, 1, 0), ScaledCraigLattice(3, 0, 0))

    def test_agreement_with_generic_operations(self):
        for n in (2, 3, 5):
            for p in sorted(prime_factorization(n + 1)):
                for a in range(3):
                    for b in range(3):
                        for a2 in range(3):
                            for b2 in range(3):
                                x = ScaledCraigLattice(p, a, b)
                                y = ScaledCraigLattice(p, a2, b2)
                                lx, ly = scaled(n, p, a, b), scaled(n, p, a2, b2)
                                assert scaled_inclusion(x, y) == is_sublattice(lx, ly)
                                meet = scaled_intersect(x, y)
                                assert scaled(n, p, meet.a, meet.b) == lattice_intersect(lx, ly)
                                if scaled_inclusion(x, y):
                                    assert p ** scaled_index(n, y, x) == lattice_index(ly, lx)


class TestMaximalSublattices:
    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (5, 2), (5, 3), (7, 2)])
    def test_three_case_classification(self, n, p):
        gens = craig_generators(n)
        v = valuation(n + 1, p)
        for i in range(v + 1):
            got = maximal_sublattices_p(craig_lattice(n, p**i).basis, gens, p)
            assert set(got) == realized(n, scaled_maximal_sublattices(n, p, i))

    def test_closed_form_n7_p2(self):
        # v = 3: one maximal sublattice at both ends, two in between
        want = {0: [(0, 1)], 1: [(0, 2), (1, 0)], 2: [(0, 3), (1, 1)], 3: [(1, 2)]}
        for i, pairs in want.items():
            got = scaled_maximal_sublattices(7, 2, i)
            assert [(x.a, x.b) for x in got] == pairs
            assert all(x.p == 2 for x in got)

    def test_closed_form_needs_a_representative(self):
        for n, p, i in ((4, 2, 0), (7, 2, 4), (7, 2, -1), (7, 4, 1)):
            with pytest.raises(ValueError):
                scaled_maximal_sublattices(n, p, i)

    def test_middle_case_indices(self):
        # two maximal sublattices with indices p^(n-1) and p
        n, p = 7, 2
        lat = craig_lattice(n, 2).basis
        got = maximal_sublattices_p(lat, craig_generators(n), p)
        assert sorted(lattice_index(lat, m) for m in got) == [2, 64]

    def test_inert_prime_single_maximal(self):
        # p not dividing n+1: the residue module is irreducible, so the only
        # maximal stable sublattice is p L
        for n, p in ((2, 2), (3, 3), (4, 2), (4, 3), (6, 2), (6, 3), (6, 5)):
            gens = craig_generators(n)
            lat = craig_lattice(n, 1).basis
            got = maximal_sublattices_p(lat, gens, p)
            assert got == [lat.scale(p)]

    def test_spinning_bound(self):
        gens = craig_generators(6)
        with pytest.raises(ScaleError, match="spinning-scale-exceeded"):
            maximal_sublattices_p(
                craig_lattice(6, 1).basis, gens, 7, Bounds(spinning_max_order=1000)
            )


class TestResidueSubmodules:
    def test_word_spins_match_exhaustive_spinning(self):
        cases = 0
        for n in range(2, 10):
            for p in (2, 3, 5, 7, 11, 13):
                if p**n > 512:
                    continue
                pairs = [(craig_lattice(n, d).basis, craig_generators(n)) for d in divisors(n + 1)]
                pairs.append((LatticeBasis(IntMatrix.identity(n)), specht_generators_closed(n)))
                for lat, gens in pairs:
                    acts = _residue_action(lat, gens, p)
                    assert _word_submodules(acts, p, n) == _all_submodules(acts, p, n), (n, p)
                    cases += 1
        assert cases == 67

    def test_identity_generators_fall_back_to_exhaustive_spinning(self):
        n, p = 3, 2
        gens = RepGenerators(n, (IntMatrix.identity(n),) * n)
        lat = craig_lattice(n, 1).basis
        assert _word_submodules(_residue_action(lat, gens, p), p, n) is None
        assert len(maximal_sublattices_p(lat, gens, p)) == (p**n - 1) // (p - 1)

    def test_fallback_interval_is_the_subspace_lattice(self):
        # Identity generators: every subspace of F_2^3 is a submodule, and the
        # Moebius value at codimension k is (-1)^k 2^(k(k-1)/2).
        n, p = 3, 2
        gens = RepGenerators(n, (IntMatrix.identity(n),) * n)
        lat = craig_lattice(n, 1).basis
        members = phi_p(lat, gens, p)
        assert len(members) == 16
        assert rad_p(lat, gens, p) == lat.scale(2)
        values = []
        for member in members:
            k = valuation(lattice_index(lat, member), p)
            values.append(mu_p(lat, gens, p, member))
            assert values[-1] == (-1) ** k * 2 ** (k * (k - 1) // 2)
        assert sorted(values) == [-8] + [-1] * 7 + [1] + [2] * 7

    @pytest.mark.parametrize("n", range(2, 8))
    def test_fp_radical_and_moebius_match_integer_intersections(self, n):
        # Every L(p^i) and the Specht lattice at each p | n+1, against the
        # intersections of the lifted maximal sublattices.
        for p in sorted(prime_factorization(n + 1)):
            v = valuation(n + 1, p)
            pairs = [(craig_lattice(n, p**i).basis, craig_generators(n)) for i in range(v + 1)]
            pairs.append((LatticeBasis(IntMatrix.identity(n)), specht_generators_closed(n)))
            for lat, gens in pairs:
                maximal = maximal_sublattices_p(lat, gens, p)
                assert rad_p(lat, gens, p) == reduce(lattice_intersect, maximal), (n, p)
                for member in phi_p(lat, gens, p):
                    assert mu_p(lat, gens, p, member) == integer_moebius(lat, maximal, member)


class TestPrimeValidation:
    def test_composite_p_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            maximal_sublattices_p(craig_lattice(3, 1).basis, craig_generators(3), 4)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            enumerate_p_sublattices(craig_lattice(3, 1).basis, craig_generators(3), 1, 2)

    def test_every_entry_point_rejects(self):
        gens = craig_generators(3)
        lat = craig_lattice(3, 1).basis
        calls = [
            lambda: ScaledCraigLattice(4, 0, 0),
            lambda: rad_p(lat, gens, 4),
            lambda: phi_p(lat, gens, 4),
            lambda: phi_p_class(lat, gens, 4, 1),
            lambda: mu_p(lat, gens, 4, lat),
            lambda: enumerate_p_sublattices(lat, gens, 4, 0),
            lambda: classify_sublattice(lat, 3, 4),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="prime"):
                call()


class TestRadical:
    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (5, 2), (5, 3), (7, 2)])
    def test_closed_form(self, n, p):
        gens = craig_generators(n)
        v = valuation(n + 1, p)
        for i in range(v + 1):
            got = rad_p(craig_lattice(n, p**i).basis, gens, p)
            assert got == scaled_lattice_basis(n, scaled_radical(n, p, i))


class TestRadicalInterval:
    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (7, 2)])
    def test_contents(self, n, p):
        gens = craig_generators(n)
        v = valuation(n + 1, p)
        for i in range(v + 1):
            got = set(phi_p(craig_lattice(n, p**i).basis, gens, p))
            assert got == realized(n, scaled_radical_interval(n, p, i))

    def test_class_filter_examples(self):
        gens = craig_generators(3)
        l1 = craig_lattice(3, 1).basis
        assert phi_p_class(l1, gens, 2, 1) == [scaled(3, 2, 0, 1)]
        assert phi_p_class(l1, gens, 2, 2) == []
        l2 = craig_lattice(3, 2).basis
        assert set(phi_p_class(l2, gens, 2, 1)) == {scaled(3, 2, 0, 1), scaled(3, 2, 1, 1)}


class TestMoebius:
    def test_full_lattice_value(self):
        gens = craig_generators(3)
        for i in (0, 1, 2):
            lat = craig_lattice(3, 2**i).basis
            assert mu_p(lat, gens, 2, lat) == 1

    def test_middle_case_values(self):
        # 0 < i < v: two maximal sublattices meeting in p L(p^i)
        n, p, i = 3, 2, 1
        gens = craig_generators(n)
        lat = craig_lattice(n, p**i).basis
        assert mu_p(lat, gens, p, scaled(n, p, 0, i + 1)) == -1
        assert mu_p(lat, gens, p, scaled(n, p, 1, i - 1)) == -1
        assert mu_p(lat, gens, p, scaled(n, p, 1, i)) == 1

    def test_outside_interval_rejected(self):
        gens = craig_generators(3)
        lat = craig_lattice(3, 1).basis
        with pytest.raises(LatticeError):
            mu_p(lat, gens, 2, lat.scale(4))


class TestPPowerWalk:
    def test_n2_p3_chain(self):
        found = enumerate_p_sublattices(
            craig_lattice(2, 1).basis, craig_generators(2), 3, 4
        )
        assert [len(found[e]) for e in range(5)] == [1, 1, 1, 1, 1]

    def test_n3_p2_counts(self):
        found = enumerate_p_sublattices(
            craig_lattice(3, 1).basis, craig_generators(3), 2, 6
        )
        assert [len(found[e]) for e in range(7)] == [1, 0, 1, 1, 1, 1, 1]

    def test_inert_prime_counts(self):
        found = enumerate_p_sublattices(
            craig_lattice(4, 1).basis, craig_generators(4), 2, 4
        )
        assert [len(found[e]) for e in range(5)] == [1, 0, 0, 0, 1]

    def test_every_walked_lattice_classifies(self):
        for n, p in ((2, 3), (3, 2), (5, 2), (5, 3)):
            gens = craig_generators(n)
            v = valuation(n + 1, p)
            found = enumerate_p_sublattices(craig_lattice(n, 1).basis, gens, p, 5)
            seen = set()
            for e, lats in found.items():
                for lat in lats:
                    a, b = classify_sublattice(lat, n, p)
                    assert b <= v
                    assert a * n + b * (n - 1) == e
                    assert scaled(n, p, a, b) == lat
                    seen.add((a, b))
            expected = {
                (a, b)
                for a in range(6)
                for b in range(v + 1)
                if a * n + b * (n - 1) <= 5
            }
            assert seen == expected


class TestSumDecomposition:
    def test_n5_factorial_coefficients(self):
        # m = 6!/5 = 144, with the p-part removed: 9 L(1) + 16 L(1) = L(1)
        from hookzeta.exactmat import lattice_sum

        l1 = craig_lattice(5, 1).basis
        assert lattice_sum(l1.scale(9), l1.scale(16)) == l1

    def test_p_free_parts_reassemble_every_representative(self):
        from hookzeta.exactmat import lattice_sum

        for n in range(2, 8):
            for d in [x for x in range(1, n + 2) if (n + 1) % x == 0]:
                total = None
                for p in sorted(prime_factorization(n + 1)):
                    vd = valuation(d, p)
                    part = craig_lattice(n, p**vd).basis.scale(d // p**vd)
                    total = part if total is None else lattice_sum(total, part)
                assert total == craig_lattice(n, d).basis, (n, d)


class TestClassify:
    def test_examples(self):
        assert classify_sublattice(craig_lattice(2, 1).basis.scale(3), 2, 3) == (1, 0)
        assert classify_sublattice(craig_lattice(2, 3).basis, 2, 3) == (0, 1)
        assert classify_sublattice(craig_lattice(3, 2).basis.scale(2), 3, 2) == (1, 1)

    def test_unclassifiable_rejected(self):
        # an unstable sublattice of 2-power index does not match the family
        with pytest.raises(LatticeError):
            classify_sublattice(LatticeBasis(IntMatrix([[2, 0], [0, 1]])), 2, 2)


class TestIndexCensus:
    def test_index_one(self):
        lat = craig_lattice(2, 1).basis
        assert enumerate_index_sublattices(lat, craig_generators(2), 1) == [lat]

    def test_n2_index_nine(self):
        lat = craig_lattice(2, 1).basis
        got = enumerate_index_sublattices(lat, craig_generators(2), 9)
        assert got == [lat.scale(3)]

    def test_n2_index_two_empty(self):
        lat = craig_lattice(2, 1).basis
        assert enumerate_index_sublattices(lat, craig_generators(2), 2) == []

    def test_matches_naive_census(self):
        grid = {
            2: (2, 3, 4, 6, 9, 12, 16, 18, 24, 27, 36),
            3: (2, 4, 6, 8, 12, 16, 24, 27),
            4: (2, 4, 5, 8, 16, 25),
        }
        for n, ms in grid.items():
            gens = craig_generators(n)
            for d in (1, n + 1):
                lat = craig_lattice(n, d).basis
                for m in ms:
                    fast = enumerate_index_sublattices(lat, gens, m)
                    slow = enumerate_index_sublattices_naive(lat, gens, m)
                    assert fast == slow, (n, d, m)

    def test_clearing_a_result_leaves_later_calls_whole(self):
        lat = craig_lattice(3, 1).basis
        gens = craig_generators(3)
        first = enumerate_index_sublattices(lat, gens, 216)
        kept = list(first)
        assert kept
        first.clear()
        assert enumerate_index_sublattices(lat, gens, 216) == kept

    def test_all_results_have_right_index_and_stability(self):
        gens = craig_generators(3)
        lat = craig_lattice(3, 2).basis
        for m in (4, 8, 12):
            for sub in enumerate_index_sublattices(lat, gens, m):
                assert lattice_index(lat, sub) == m
                assert is_g_stable(sub, gens)

    def test_index_bound(self):
        lat = craig_lattice(2, 1).basis
        with pytest.raises(ScaleError, match="enumeration-scale-exceeded"):
            enumerate_index_sublattices(lat, craig_generators(2), 501)

    def test_unstable_base_rejected(self):
        lat = craig_lattice(2, 2).basis
        with pytest.raises(LatticeError):
            enumerate_index_sublattices(lat, craig_generators(2), 3)
