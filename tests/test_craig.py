import random
from functools import reduce
from itertools import combinations, product

import pytest

from hookzeta import craig, verify
from hookzeta.arith import divisors, prime_factorization, valuation
from hookzeta.bounds import DEFAULT_BOUNDS, Bounds, ScaleError
from hookzeta.craig import (
    ScaledCraigLattice,
    classify_sublattice,
    craig_lattice,
    enumerate_index_sublattices,
    enumerate_index_sublattices_naive,
    enumerate_p_sublattices,
    identify_stable_lattice,
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
    _residue_action,
    _word_submodules,
)
from hookzeta.exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    is_scalar_multiple,
    lattice_index,
    lattice_intersect,
    lattice_sum,
)
from hookzeta.specht import RepGenerators, craig_generators, specht_generators_closed
from hookzeta.zeta import dirichlet_coeff, global_zeta


def scaled(n, p, a, b):
    return scaled_lattice_basis(n, ScaledCraigLattice(p, a, b))


def projective_reps(n, p):
    """One representative per line of F_p^n: first nonzero coordinate is 1."""
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def exhaustive_submodules(action, p, n):
    """The oracle: every action-invariant subspace of F_p^n, by spinning every line."""
    return craig._submodules_from_spins(projective_reps(n, p), action, p, n, DEFAULT_BOUNDS)


def integer_moebius(lattice, maximal, target):
    """Sum (-1)^|J| over subsets J of `maximal` meeting in `target`, by lattice_intersect."""
    return sum(
        (-1) ** size
        for size in range(len(maximal) + 1)
        for subset in combinations(maximal, size)
        if reduce(lattice_intersect, subset, lattice) == target
    )


def integer_families(rng, n):
    """Seeded random integer actions on Z^n: one dense family, then upper
    triangular ones (they fix a flag, so their censuses are not empty) with
    random diagonals, all-distinct diagonals (a tie for the commonest entry),
    zero diagonals, and a scalar generator (A - cI = 0)."""

    def mat(diag=None, upper=True):
        rows = [[rng.randint(-2, 2) if j >= i or not upper else 0 for j in range(n)]
                for i in range(n)]
        for i, x in enumerate(diag or ()):
            rows[i][i] = x
        return IntMatrix(rows)

    scalar = IntMatrix([[3 * (i == j) for j in range(n)] for i in range(n)])
    return [
        RepGenerators(n, tuple(mat(upper=False) for _ in range(n))),
        RepGenerators(n, tuple(mat() for _ in range(n))),
        RepGenerators(n, tuple(mat(list(range(n))) for _ in range(n))),
        RepGenerators(n, tuple(mat([0] * n) for _ in range(n))),
        RepGenerators(n, (scalar,) + tuple(mat() for _ in range(n - 1))),
    ]


def assert_shifted_form(action, shifted, p=None):
    """Each generator's sparse form is A - cI, c a commonest diagonal entry."""
    reduce_p = (lambda x: x) if p is None else (lambda x: x % p)
    for rows, terms in zip(action, shifted):
        n = len(rows)
        dense = [[0] * n for _ in range(n)]
        for r, row in terms:
            for j, x in row:
                assert reduce_p(x)
                dense[r][j] = x
        c = reduce_p(rows[0][0] - dense[0][0])
        for i in range(n):
            for j in range(n):
                assert reduce_p(rows[i][j] - dense[i][j]) == (c if i == j else 0)
        diag = [reduce_p(rows[i][i]) for i in range(n)]
        assert diag.count(c) == max(map(diag.count, diag))


def dense_closure(vec, action, p):
    """The echelon key of the smallest subspace holding vec that every dense
    action matrix maps into itself, mod p."""
    key = craig._echelon([vec], p)
    while True:
        images = tuple(
            tuple(sum(a * x for a, x in zip(row, v)) % p for row in rows)
            for rows in action
            for v in key
        )
        grown = craig._echelon(key + images, p)
        if grown == key:
            return key
        key = grown


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
        check = verify.check_stability_classification(range(2, 7))
        assert check.passed, check.detail

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
        check = verify.check_scaled_closed_forms((2, 3, 5), 2)
        assert check.passed, check.detail


class TestMaximalSublattices:
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_three_case_classification(self, n):
        check = verify.check_maximal_sublattices((n,))
        assert check.passed, check.detail

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
        # A layer memoized under the default bounds is not served to a call
        # with a tighter bound.
        gens = craig_generators(6)
        lat = craig_lattice(6, 1).basis
        assert maximal_sublattices_p(lat, gens, 7) == [craig_lattice(6, 7).basis]
        with pytest.raises(ScaleError, match="spinning-scale-exceeded"):
            maximal_sublattices_p(lat, gens, 7, Bounds(spinning_max_order=1000))


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
                    got = _word_submodules(acts, p, n, DEFAULT_BOUNDS)
                    assert got == exhaustive_submodules(acts, p, n), (n, p)
                    cases += 1
        assert cases == 67

    def test_spin_matches_the_dense_closure(self):
        # Every L(d) with n <= 7 at every p <= 7, and integer actions on Z^n;
        # a spin that fills the space exits with None.
        rng = random.Random(11)
        cases = [
            (_residue_action(craig_lattice(n, d).basis, craig_generators(n), p), p, n)
            for n in range(2, 8)
            for p in (2, 3, 5, 7)
            for d in divisors(n + 1)
        ]
        cases += [
            (_residue_action(LatticeBasis(IntMatrix.identity(n)), gens, p), p, n)
            for n in (2, 3)
            for gens in integer_families(rng, n)
            for p in (2, 3)
        ]
        exits = set()
        for action, p, n in cases:
            shifted = craig._shifted_terms(action)
            assert_shifted_form(action, shifted, p)
            vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            vectors += [tuple(rng.randrange(p) for _ in range(n)) for _ in range(2)]
            for vec in filter(any, vectors):
                want = dense_closure(vec, action, p)
                got = craig._spin(vec, shifted, p, n)
                assert got == (None if len(want) == n else want), (action, p, vec)
                exits.add(got is None)
        assert exits == {True, False}

    def test_identity_generators_have_no_semisimple_word(self):
        # The raise is not cached: a second call raises again.
        n, p = 3, 2
        gens = RepGenerators(n, (IntMatrix.identity(n),) * n)
        lat = craig_lattice(n, 1).basis
        for _ in range(2):
            with pytest.raises(ValueError, match="no-semisimple-word"):
                maximal_sublattices_p(lat, gens, p)

    def test_subspace_lattice_interval_from_the_exhaustive_oracle(self, monkeypatch):
        # Identity generators, with the oracle in place of the word path:
        # every subspace of F_p^3 is a submodule, and the Moebius value at
        # codimension k is (-1)^k p^(k(k-1)/2).  At p = 3 there are 13
        # maximal submodules.
        n = 3
        gens = RepGenerators(n, (IntMatrix.identity(n),) * n)
        lat = craig_lattice(n, 1).basis

        def oracle(action, p, n, bounds):
            return exhaustive_submodules(action, p, n)

        craig._residue_layer.cache_clear()
        monkeypatch.setattr(craig, "_word_submodules", oracle)
        try:
            for p in (2, 3):
                members = phi_p(lat, gens, p)
                assert rad_p(lat, gens, p) == lat.scale(p)
                codims = [valuation(lattice_index(lat, member), p) for member in members]
                lines = p * p + p + 1
                assert sorted(codims) == [0] + [1] * lines + [2] * lines + [3]
                for member, k in zip(members, codims):
                    assert mu_p(lat, gens, p, member) == (-1) ** k * p ** (k * (k - 1) // 2)
        finally:
            craig._residue_layer.cache_clear()

    def test_every_family_lattice_has_a_semisimple_word(self):
        # Every L(d) under the standard action and the Specht lattice, at
        # default bounds: one maximal sublattice pL at a prime not dividing
        # n+1, and the closed-form count at the others.
        cases = 0
        for n in range(2, 11):
            pairs = [(d, craig_lattice(n, d).basis, craig_generators(n)) for d in divisors(n + 1)]
            pairs.append((n + 1, LatticeBasis(IntMatrix.identity(n)), specht_generators_closed(n)))
            for p in (2, 3, 5, 7, 11):
                for d, lat, gens in pairs:
                    got = maximal_sublattices_p(lat, gens, p)
                    if (n + 1) % p:
                        assert got == [lat.scale(p)], (n, p, d)
                    else:
                        want = scaled_maximal_sublattices(n, p, valuation(d, p))
                        assert len(got) == len(want), (n, p, d)
                    cases += 1
        assert cases == 175

    def test_join_closure_is_bounded(self):
        # diag(1..6) is semisimple mod 7 with six eigenlines, so its residue
        # module has 2^6 submodules: the estimate 6^3 (6 + 7) = 2808 passes a
        # bound of 5000, and the closure trips once 6^3 times its size does.
        n, p = 6, 7
        diag = IntMatrix([[i + 1 if i == j else 0 for j in range(n)] for i in range(n)])
        gens = RepGenerators(n, (diag,) + (IntMatrix.identity(n),) * (n - 1))
        lat = LatticeBasis(IntMatrix.identity(n))
        with pytest.raises(ScaleError, match="spinning-scale-exceeded"):
            maximal_sublattices_p(lat, gens, p, Bounds(spinning_max_order=5000))
        assert len(maximal_sublattices_p(lat, gens, p)) == n

    def test_one_spin_serves_every_entry_point(self, monkeypatch):
        n, p = 7, 2
        lat, gens = craig_lattice(n, 2).basis, craig_generators(n)
        craig._residue_layer.cache_clear()
        spins = []
        real = craig._spin

        def counted(*args):
            spins.append(args)
            return real(*args)

        monkeypatch.setattr(craig, "_spin", counted)
        members = phi_p(lat, gens, p)
        assert spins
        spins.clear()
        assert len(maximal_sublattices_p(lat, gens, p)) == 2
        assert rad_p(lat, gens, p) == scaled(n, p, 1, 1)
        assert phi_p_class(lat, gens, p, 2) == [scaled(n, p, 0, 2)]
        assert sorted(mu_p(lat, gens, p, member) for member in members) == [-1, -1, 1, 1]
        assert spins == []

    def test_clearing_a_result_leaves_later_calls_whole(self):
        lat, gens = craig_lattice(7, 2).basis, craig_generators(7)
        for entry in (maximal_sublattices_p, phi_p):
            first = entry(lat, gens, 2)
            kept = list(first)
            first.clear()
            assert entry(lat, gens, 2) == kept

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
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_closed_form(self, n):
        check = verify.check_radical((n,))
        assert check.passed, check.detail


class TestRadicalInterval:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_contents(self, n):
        check = verify.check_radical_interval((n,))
        assert check.passed, check.detail

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
        check = verify.check_p_power_classification((2, 3, 5), 5)
        assert check.passed, check.detail


class TestSumDecomposition:
    def test_n5_factorial_coefficients(self):
        # m = 6!/5 = 144, with the p-part removed: 9 L(1) + 16 L(1) = L(1)
        l1 = craig_lattice(5, 1).basis
        assert lattice_sum(l1.scale(9), l1.scale(16)) == l1

    def test_p_free_parts_reassemble_every_representative(self):
        check = verify.check_sum_decomposition(range(2, 8))
        assert check.passed, check.detail


class TestClassify:
    def test_examples(self):
        assert classify_sublattice(craig_lattice(2, 1).basis.scale(3), 2, 3) == (1, 0)
        assert classify_sublattice(craig_lattice(2, 3).basis, 2, 3) == (0, 1)
        assert classify_sublattice(craig_lattice(3, 2).basis.scale(2), 3, 2) == (1, 1)

    def test_unclassifiable_rejected(self):
        # an unstable sublattice of 2-power index does not match the family
        with pytest.raises(LatticeError):
            classify_sublattice(LatticeBasis(IntMatrix([[2, 0], [0, 1]])), 2, 2)

    def test_scale_not_a_power_of_p_rejected(self):
        # 3 L(2) is a stable family member, but 3 is not a power of 2
        with pytest.raises(LatticeError):
            classify_sublattice(craig_lattice(3, 2).basis.scale(3), 3, 2)


class TestIdentifyStableLattice:
    @staticmethod
    def divisor_loop(lattice):
        """The oracle: compare the lattice with every L(d), d | n+1."""
        n = lattice.dim
        for d in divisors(n + 1):
            if is_scalar_multiple(craig_lattice(n, d).basis, lattice) is not None:
                return d
        return None

    def test_matches_the_divisor_loop(self):
        rng = random.Random(20261018)
        lattices = [
            craig_lattice(n, d).basis.scale(c)
            for n in range(2, 13)
            for d in range(1, n + 2)
            for c in (1, 2, 3, 6)
        ]
        while len(lattices) < 600:
            n = rng.randint(2, 6)
            m = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            try:
                lattices.append(LatticeBasis(m))
            except LatticeError:
                pass
        found = [identify_stable_lattice(lat) for lat in lattices]
        assert found == [self.divisor_loop(lat) for lat in lattices]
        # every family member is named, and L(d) for d not dividing n+1 is not
        assert found[: 4 * sum(n + 1 for n in range(2, 13))] == [
            d if (n + 1) % d == 0 else None
            for n in range(2, 13)
            for d in range(1, n + 2)
            for _ in range(4)
        ]


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

    def test_matches_naive_census_under_integer_actions(self):
        # Z^n is stable under every integer matrix, so any family has a census.
        # The naive census of Z^4 passes a second at m = 16, so n = 4 stops at 8.
        rng = random.Random(12)
        families = [gens for n in (2, 3) for gens in integer_families(rng, n)]
        families += [specht_generators_closed(n) for n in (2, 3, 4)]
        found = 0
        for gens in families:
            lat = LatticeBasis(IntMatrix.identity(gens.n))
            action = tuple(a.entries for a in gens.mats)
            assert_shifted_form(action, craig._shifted_terms(action))
            for m in range(1, 17 if gens.n < 4 else 9):
                fast = enumerate_index_sublattices(lat, gens, m)
                assert fast == enumerate_index_sublattices_naive(lat, gens, m), (gens, m)
                found += len(fast)
        assert found > 100

    # At p^2 and above the walk solves entries from congruences: a residual of an
    # earlier column waiting at the entry's column, and the column's own image
    # once its substitution passed the diagonal.  These grids reach both.
    @pytest.mark.parametrize("n, seed, ms", [
        (2, 13, (25, 27, 32, 49)),
        (2, 14, (25, 27, 32, 49)),
        (2, 15, (25, 27, 32, 49)),
        (3, 13, (27,)),
    ])
    def test_matches_naive_census_at_higher_prime_powers(self, n, seed, ms):
        lat = LatticeBasis(IntMatrix.identity(n))
        for gens in integer_families(random.Random(seed), n):
            for m in ms:
                fast = enumerate_index_sublattices(lat, gens, m)
                assert fast == enumerate_index_sublattices_naive(lat, gens, m), (gens, m)

    @pytest.mark.parametrize("m", [25, 49])
    def test_matches_naive_census_of_l1_at_odd_prime_squares(self, m):
        lat, gens = craig_lattice(3, 1).basis, craig_generators(3)
        assert enumerate_index_sublattices(lat, gens, m) == enumerate_index_sublattices_naive(lat, gens, m)

    def test_clearing_a_result_leaves_later_calls_whole(self):
        lat = craig_lattice(3, 1).basis
        gens = craig_generators(3)
        first = enumerate_index_sublattices(lat, gens, 216)
        kept = list(first)
        assert kept
        first.clear()
        assert enumerate_index_sublattices(lat, gens, 216) == kept

    def test_new_layer_of_a_known_lattice_solves_nothing(self, monkeypatch):
        # The action rows are solved once per (lattice, generators), not per layer.
        lat, gens = craig_lattice(3, 1).basis, craig_generators(3)
        craig._census_layer.cache_clear()
        craig._conjugated_action_rows.cache_clear()
        enumerate_index_sublattices(lat, gens, 2)
        calls = []
        real = craig.solve_in_lattice

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(craig, "solve_in_lattice", counted)
        enumerate_index_sublattices(lat, gens, 3)
        assert calls == []

    def test_repeated_query_solves_nothing(self, monkeypatch):
        lat = craig_lattice(3, 1).basis
        first = enumerate_index_sublattices(lat, craig_generators(3), 216)
        calls = []
        real = craig.solve_in_lattice

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(craig, "solve_in_lattice", counted)
        assert enumerate_index_sublattices(lat, craig_generators(3), 216) == first
        assert calls == []

    def test_layer_key_includes_the_generators(self):
        # Z^3 is L(1) for the standard action and the Specht lattice L(4)
        # for the Specht action; the two censuses differ at m = 2 and m = 54.
        lat = LatticeBasis(IntMatrix.identity(3))
        families = {1: craig_generators(3), 4: specht_generators_closed(3)}
        got = {d: [] for d in families}
        for m in range(1, 65):
            for d, gens in families.items():
                got[d].append(len(enumerate_index_sublattices(lat, gens, m)))
        for d in families:
            z = global_zeta(3, d)
            assert got[d] == [dirichlet_coeff(z, m) for m in range(1, 65)], d
        assert (got[1][1], got[4][1]) == (0, 1)
        assert (got[1][53], got[4][53]) == (0, 1)

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
