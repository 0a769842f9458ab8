import random
from fractions import Fraction
from itertools import permutations

import pytest

from hookzeta.craig import craig_lattice
from hookzeta.exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    MatrixError,
    det,
    hnf,
    is_scalar_multiple,
    is_sublattice,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    matrix_from_json,
    matrix_to_json,
)


def leibniz_det(m):
    """Independent determinant oracle: signed permutation expansion."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= m[i, perm[i]]
        total += sign * term
    return total


def random_nonsingular(rng, n, lo=-6, hi=6):
    while True:
        m = IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if leibniz_det(m) != 0:
            return m


def random_unimodular(rng, n, steps=15):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for r in range(n):
            rows[r][j] += c * rows[r][i]
    return IntMatrix(rows)


class TestIntMatrix:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.0, 0], [0, 1]])

    def test_rejects_ragged(self):
        with pytest.raises(MatrixError):
            IntMatrix([[1, 0], [0]])

    def test_product_and_identity(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a * IntMatrix.identity(2) == a
        assert IntMatrix.identity(2) * a == a
        assert a * IntMatrix([[0, 1], [1, 0]]) == IntMatrix([[2, 1], [4, 3]])

    def test_scalar_and_sum(self):
        a = IntMatrix([[1, -2], [0, 5]])
        assert 3 * a == IntMatrix([[3, -6], [0, 15]])
        assert a - a == IntMatrix([[0, 0], [0, 0]])

    def test_apply(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a.apply((1, 1)) == (3, 7)

    def test_json_roundtrip_big_entries(self):
        a = IntMatrix([[10**30, -1], [0, 2]])
        blob = matrix_to_json(a)
        assert blob["entries"][0][0] == str(10**30)
        assert matrix_from_json(blob) == a

    def test_json_accepts_integers_and_decimal_strings(self):
        blob = {"rows": 1, "cols": 3, "entries": [[3, "-4", "+5"]]}
        assert matrix_from_json(blob) == IntMatrix([[3, -4, 5]])

    @pytest.mark.parametrize(
        "blob",
        [
            [[1, 0], [0, 1]],
            {"rows": 2, "cols": 2},
            {"rows": 2, "cols": 2, "entries": 5},
            {"rows": 2, "cols": 2, "entries": [[1.7, 0], [0, 1]]},
            {"rows": 2, "cols": 2, "entries": [[True, 0], [0, 1]]},
            {"rows": 2, "cols": 2, "entries": [["1.0", "0"], ["0", "1"]]},
            {"rows": 2, "cols": 2, "entries": [[" 1", "0"], ["0", "1"]]},
            {"rows": 2, "cols": 2, "entries": [[None, 0], [0, 1]]},
        ],
    )
    def test_json_rejects_malformed_input(self, blob):
        with pytest.raises(MatrixError):
            matrix_from_json(blob)


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(3)) == 1

    def test_craig_basis_n3_d2(self):
        assert det(craig_lattice(3, 2).basis.basis) == 4

    def test_triangular(self):
        assert det(IntMatrix([[3, 1], [0, 1]])) == 3

    def test_non_square_rejected(self):
        with pytest.raises(MatrixError):
            det(IntMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_matches_permutation_expansion(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            assert det(m) == leibniz_det(m)


class TestHnf:
    def test_already_reduced(self):
        m = IntMatrix([[2, 0], [0, 2]])
        assert hnf(m) == m

    def test_identity(self):
        for n in (1, 2, 5):
            assert hnf(IntMatrix.identity(n)) == IntMatrix.identity(n)

    def test_determinant_three_example(self):
        # Frozen from the unimodular-reduction oracle below: the lattice
        # spanned by (-1,-1) and (1,-2) has canonical form [[1,0],[1,3]].
        m = IntMatrix([[-1, 1], [-1, -2]])
        h = hnf(m)
        assert h == IntMatrix([[1, 0], [1, 3]])
        assert det(h) == 3
        # both column sets lie in each other's span
        la, lb = LatticeBasis(m), LatticeBasis(h)
        assert is_sublattice(la, lb) and is_sublattice(lb, la)

    def test_canonical_shape(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 5)
            h = hnf(random_nonsingular(rng, n))
            for i in range(n):
                assert h[i, i] > 0
                for j in range(n):
                    if j > i:
                        assert h[i, j] == 0
                    elif j < i:
                        assert 0 <= h[i, j] < h[i, i]

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(30):
            h = hnf(random_nonsingular(rng, rng.randint(2, 4)))
            assert hnf(h) == h

    def test_unimodular_invariance(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 5)
            m = random_nonsingular(rng, n)
            u = random_unimodular(rng, n)
            assert hnf(m * u) == hnf(m)

    def test_rectangular_full_row_rank(self):
        m = IntMatrix([[2, 0, 1], [0, 2, 1]])
        h = hnf(m)
        assert (h.rows, h.cols) == (2, 2)
        assert det(h) != 0

    def test_singular_rejected(self):
        with pytest.raises(MatrixError, match="singular"):
            hnf(IntMatrix([[1, 2], [2, 4]]))


class TestLatticeBasis:
    def test_equality_is_basis_independent(self):
        rng = random.Random(19)
        m = random_nonsingular(rng, 3)
        u = random_unimodular(rng, 3)
        assert LatticeBasis(m) == LatticeBasis(m * u)
        assert hash(LatticeBasis(m)) == hash(LatticeBasis(m * u))

    def test_singular_basis_rejected(self):
        with pytest.raises(LatticeError, match="singular"):
            LatticeBasis(IntMatrix([[1, 1], [1, 1]]))

    def test_membership(self):
        lat = LatticeBasis(IntMatrix([[2, 0], [0, 3]]))
        assert lat.contains((4, -3))
        assert not lat.contains((1, 0))

    def test_scale_by_fraction(self):
        l3 = craig_lattice(2, 3).basis
        tripled = l3.scale(3)
        assert tripled.scale(Fraction(1, 3)) == l3
        with pytest.raises(LatticeError):
            l3.scale(Fraction(1, 2))


class TestLatticeIndex:
    def test_scaling_multiplies_by_power(self):
        l1 = craig_lattice(2, 1).basis
        assert lattice_index(l1, l1.scale(3)) == 9

    def test_craig_inclusion_n2(self):
        assert lattice_index(craig_lattice(2, 1).basis, craig_lattice(2, 3).basis) == 3

    def test_scaled_inclusion_n3(self):
        sup = craig_lattice(3, 2).basis
        sub = craig_lattice(3, 1).basis.scale(2)
        assert lattice_index(sup, sub) == 2

    def test_not_sublattice_rejected(self):
        l1 = craig_lattice(2, 1).basis
        with pytest.raises(LatticeError, match="not-sublattice"):
            lattice_index(l1.scale(2), l1)

    def test_multiplicative_along_chains(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 4)
            a = LatticeBasis(random_nonsingular(rng, n))

            def shrink(base):
                f = IntMatrix(
                    [
                        [
                            rng.randint(1, 3) if i == j else (rng.randint(0, 2) if j < i else 0)
                            for j in range(n)
                        ]
                        for i in range(n)
                    ]
                )
                return LatticeBasis(base.basis * f)

            b = shrink(a)
            c = shrink(b)
            assert lattice_index(a, c) == lattice_index(a, b) * lattice_index(b, c)


class TestIsSublattice:
    def test_scalings(self):
        for n in (2, 3, 4):
            zn = LatticeBasis(IntMatrix.identity(n))
            assert is_sublattice(zn.scale(2), zn)
            assert not is_sublattice(zn, zn.scale(2))

    def test_craig_chain(self):
        assert is_sublattice(craig_lattice(2, 3).basis, craig_lattice(2, 1).basis)

    def test_dimension_mismatch(self):
        with pytest.raises(MatrixError):
            is_sublattice(LatticeBasis(IntMatrix.identity(2)), LatticeBasis(IntMatrix.identity(3)))


class TestIntersectAndSum:
    def test_self_operations(self):
        lat = craig_lattice(3, 2).basis
        assert lattice_intersect(lat, lat) == lat
        assert lattice_sum(lat, lat) == lat

    def test_scaled_standard(self):
        z2 = LatticeBasis(IntMatrix.identity(2))
        assert lattice_intersect(z2, z2.scale(3)) == z2.scale(3)
        assert lattice_sum(z2.scale(2), z2.scale(3)) == z2

    def test_craig_intersection_closed_form_instance(self):
        # L(3) meet 3 L(1) inside the n=2 family equals 3 L(1)
        l3 = craig_lattice(2, 3).basis
        scaled = craig_lattice(2, 1).basis.scale(3)
        assert lattice_intersect(l3, scaled) == scaled

    def test_intersection_is_greatest_lower_bound(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(2, 4)
            a = LatticeBasis(random_nonsingular(rng, n))
            b = LatticeBasis(random_nonsingular(rng, n))
            meet = lattice_intersect(a, b)
            assert is_sublattice(meet, a) and is_sublattice(meet, b)
            # det(b) * a is a common sublattice and must sit inside the meet
            common = a.scale(b.determinant())
            assert is_sublattice(common, a) and is_sublattice(common, b)
            assert is_sublattice(common, meet)

    def test_absorption_laws(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 4)
            a = LatticeBasis(random_nonsingular(rng, n))
            b = LatticeBasis(random_nonsingular(rng, n))
            assert lattice_sum(a, lattice_intersect(a, b)) == a
            assert lattice_intersect(a, lattice_sum(a, b)) == a

    def test_commutative_associative(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(2, 3)
            a = LatticeBasis(random_nonsingular(rng, n))
            b = LatticeBasis(random_nonsingular(rng, n))
            c = LatticeBasis(random_nonsingular(rng, n))
            assert lattice_intersect(a, b) == lattice_intersect(b, a)
            assert lattice_intersect(lattice_intersect(a, b), c) == lattice_intersect(
                a, lattice_intersect(b, c)
            )
            assert lattice_sum(a, b) == lattice_sum(b, a)


class TestScalarMultiple:
    def test_integer_scaling(self):
        l1 = craig_lattice(2, 1).basis
        assert is_scalar_multiple(l1, l1.scale(5)) == 5

    def test_distinct_representatives(self):
        assert is_scalar_multiple(craig_lattice(2, 1).basis, craig_lattice(2, 3).basis) is None

    def test_normalized_rescale(self):
        l3 = craig_lattice(2, 3).basis
        assert is_scalar_multiple(l3, l3.scale(3).scale(Fraction(1, 3))) == 1

    def test_rational_ratio(self):
        z2 = LatticeBasis(IntMatrix.identity(2))
        assert is_scalar_multiple(z2.scale(2), z2.scale(3)) == Fraction(3, 2)
