import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, prod

import pytest

from hookzeta import craig, exactmat, verify
from hookzeta.arith import prime_factorization
from hookzeta.craig import ScaledCraigLattice, craig_lattice, scaled_inclusion, scaled_lattice_basis
from hookzeta.exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    MatrixError,
    hnf,
    is_sublattice,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    matrix_from_json,
    matrix_to_json,
    solve_in_lattice,
    solve_triangular,
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

    def test_apply(self):
        a = IntMatrix([[1, 2], [3, 4]])
        assert a.apply((1, 1)) == (3, 7)

    def test_from_columns(self):
        assert IntMatrix.from_columns([(1, 3), [2, 4]]) == IntMatrix([[1, 2], [3, 4]])

    @pytest.mark.parametrize("columns", [[], [[1, 2], [3]], [[1], [2, 3]], [[], []]])
    def test_from_columns_rejects_bad_shapes(self, columns):
        # zip(*columns) alone would truncate ragged columns silently
        with pytest.raises(MatrixError):
            IntMatrix.from_columns(columns)

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
        assert h[0, 0] * h[1, 1] == 3
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
        assert h[0, 0] * h[1, 1] != 0

    def test_singular_rejected(self):
        with pytest.raises(MatrixError, match="singular"):
            hnf(IntMatrix([[1, 2], [2, 4]]))


def bareiss_det(m):
    """Fraction-free Bareiss elimination: the determinant with exact division."""
    a = [list(row) for row in m.entries]
    n, sign, prev = m.rows, 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dense_square(rng, n):
    return IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])


def seeded_square_grid():
    """300 small matrices (n = 1..8) and dense ones at n = 36, 48, 64."""
    rng = random.Random(23)
    for _ in range(300):
        yield dense_square(rng, rng.randint(1, 8))
    for n in (36, 48, 64):
        for seed in (1, 2, 3):
            yield dense_square(random.Random(seed), n)


class TestHnfSeededGrid:
    def test_bareiss_matches_leibniz(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            assert bareiss_det(m) == leibniz_det(m)

    def test_shape_span_and_determinant_pin_the_form(self, time_limit):
        # A lower-triangular H with positive pivots and each entry left of a
        # pivot in [0, pivot) is the normal form of M exactly when M's columns
        # lie in H's span and the two determinants agree in absolute value.
        with time_limit(30):
            for m in seeded_square_grid():
                det = bareiss_det(m)
                if det == 0:
                    with pytest.raises(MatrixError, match="singular"):
                        hnf(m)
                    continue
                h = hnf(m)
                n = m.rows
                for i in range(n):
                    assert h[i, i] > 0
                    assert all(h[i, j] == 0 for j in range(i + 1, n))
                    assert all(0 <= h[i, j] < h[i, i] for j in range(i))
                assert all(solve_triangular(h, m.column(j)) is not None for j in range(n))
                assert prod(h[i, i] for i in range(n)) == abs(det)

    def test_dense_64_within_the_time_limit(self, time_limit):
        m = dense_square(random.Random(1), 64)
        with time_limit(5):
            h = hnf(m)
        assert h.rows == 64


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

    def test_contains_checks_the_length(self):
        lat = LatticeBasis(IntMatrix.identity(2)).scale(2)
        with pytest.raises(MatrixError, match="dimension mismatch"):
            lat.contains([2, 4, 7])
        with pytest.raises(MatrixError, match="dimension mismatch"):
            lat.contains([2])
        assert lat.contains(iter([2, 4]))

    def test_scale_refuses_floats(self):
        lat = LatticeBasis(IntMatrix.identity(2)).scale(2)
        for c in (1.5, 2.0, "3", Fraction(3), True, 0, -2):
            with pytest.raises(LatticeError, match="positive int"):
                lat.scale(c)


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
            # Second isomorphism theorem: (a + b) / b is isomorphic to a / (a meet b),
            # which with meet inside a and b fixes the meet exactly.
            assert lattice_index(a, meet) == lattice_index(lattice_sum(a, b), b)

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


def random_lattice(rng, n, lo=-4, hi=4):
    """A seeded full-rank lattice; singular draws are redrawn."""
    while True:
        try:
            rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
            return LatticeBasis(IntMatrix(rows))
        except LatticeError:
            pass


def tag_intersect(a, b):
    """Intersection by the earlier two-step algorithm, kept as the oracle.

    The columns (A e_j, e_j) and (B e_j, 0) are brought to column echelon form
    on their first n entries by Euclid's column steps, carrying the last n
    entries as tags.  The last n columns then have a zero first half, so their
    tags x span the x parts of the integer kernel of [A | B], and the A x span
    the intersection, which the public constructor normalizes.
    """
    n = a.dim
    cols = [list(a.hnf.column(j)) + [int(i == j) for i in range(n)] for j in range(n)]
    cols += [list(b.hnf.column(j)) + [0] * n for j in range(n)]
    for i in range(n):
        for j in range(i + 1, 2 * n):
            while cols[j][i]:
                q = cols[i][i] // cols[j][i]
                cols[i] = [x - q * y for x, y in zip(cols[i], cols[j])]
                cols[i], cols[j] = cols[j], cols[i]
    assert all(not any(c[:n]) for c in cols[n:])
    return LatticeBasis(IntMatrix.from_columns(a.hnf.apply(c[n:]) for c in cols[n:]))


class TestIntersectionOracle:
    def test_seeded_grid_matches_the_tag_algorithm(self):
        rng = random.Random(41)
        for _ in range(1200):
            n = rng.randint(1, 8)
            a, b = random_lattice(rng, n), random_lattice(rng, n)
            assert lattice_intersect(a, b) == tag_intersect(a, b)

    def test_scaled_families_match_the_tag_algorithm(self):
        for n in (2, 3, 5, 7):
            family = [
                craig_lattice(n, d).basis.scale(s)
                for d in (1, 2, 4, n + 1)
                for s in (1, 2, 6)
                if (n + 1) % d == 0
            ]
            for a, b in product(family, repeat=2):
                meet = lattice_intersect(a, b)
                assert meet == tag_intersect(a, b)
                assert meet.basis == meet.hnf == hnf(meet.hnf)

    def test_results_are_their_own_normal_form(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(2, 6)
            a, b = random_lattice(rng, n), random_lattice(rng, n)
            for lat in (lattice_sum(a, b), lattice_intersect(a, b), a.scale(6)):
                assert lat.basis == lat.hnf == LatticeBasis(lat.basis).hnf
                assert all(isinstance(x, int) for row in lat.hnf.entries for x in row)


class TestPrimitive:
    @staticmethod
    def grid():
        """Seeded lattices: small random ones, dense random bases at n = 12 and
        24, scaled hook lattices, and each of them built again from its basis
        times 6 and times 35 by the checked constructor."""
        rng = random.Random(47)
        lats = [random_lattice(rng, rng.randint(1, 8)) for _ in range(200)]
        lats += [LatticeBasis(dense_square(random.Random(seed), n)) for n in (12, 24) for seed in (1, 2)]
        lats += [craig_lattice(n, d).basis.scale(s) for n in (3, 5, 7) for d in (1, n + 1) for s in (1, 4, 9)]
        return lats + [LatticeBasis(lat.basis * k) for lat in lats for k in (6, 35)]

    def test_inverse_of_scale(self):
        contents = set()
        for lat in self.grid():
            c, m = lat.primitive()
            contents.add(c)
            assert m.scale(c) == lat
            assert m.hnf == hnf(m.hnf) == hnf(m.basis)
            assert gcd(*(x for row in m.hnf.entries for x in row)) == 1
            assert m.primitive()[0] == 1 and m.primitive()[1] is m
            if c == 1:
                assert m is lat
            for k in (1, 3, 10):
                kc, km = lat.scale(k).primitive()
                assert (kc, km) == (k * c, m)
        assert {1, 4, 6, 9, 24, 35, 315} <= contents


def closed_form_grid():
    """The ordered pairs (x, y, X, Y) that `check_scaled_closed_forms` runs at
    n_max 6: X = p^a L(p^b) for every prime p | n+1 and a, b <= 3."""
    for n in range(2, 7):
        for p in sorted(prime_factorization(n + 1)):
            family = [ScaledCraigLattice(p, a, b) for a in range(4) for b in range(4)]
            bases = {x: scaled_lattice_basis(n, x) for x in family}
            for x, y in product(family, repeat=2):
                yield x, y, bases[x], bases[y]


def stacked_sum(a, b):
    """The normal form of the 2n columns of both operands, with no shortcut."""
    return hnf(IntMatrix.from_columns(list(zip(*a.hnf.entries)) + list(zip(*b.hnf.entries))))


def random_hnf(rng, n, diagonal):
    """The lattice whose normal form has the given pivots and seeded entries
    left of each pivot, reduced into [0, pivot)."""
    rows = [[rng.randrange(diagonal[i]) if j < i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = diagonal[i]
    lat = LatticeBasis(IntMatrix(rows))
    assert lat.hnf.entries == tuple(map(tuple, rows))
    return lat


class TestNestedShortcuts:
    """`lattice_intersect` answers nested operands with one inclusion test;
    the oracles below take no shortcut, and `lattice_sum` is checked on the
    same pairs."""

    def test_closed_form_grid_matches_the_oracles(self):
        pairs = nested = 0
        for x, y, a, b in closed_form_grid():
            pairs += 1
            nested += scaled_inclusion(x, y) or scaled_inclusion(y, x)
            assert lattice_intersect(a, b) == tag_intersect(a, b)
            assert lattice_sum(a, b).hnf == stacked_sum(a, b)
        assert (pairs, nested) == (1536, 1404)

    def test_seeded_meets_and_joins_match_the_oracles(self):
        rng = random.Random(2701)
        for _ in range(300):
            n = rng.randint(1, 6)
            a, b = random_lattice(rng, n), random_lattice(rng, n)
            meet, join = tag_intersect(a, b), LatticeBasis(stacked_sum(a, b))
            for x, y in ((a, meet), (meet, a), (a, join), (join, a), (a, a)):
                assert lattice_intersect(x, y) == tag_intersect(x, y)
                assert lattice_sum(x, y).hnf == stacked_sum(x, y)
                # a keeps the caller's basis; a result is always its normal form.
                for lat in (lattice_intersect(x, y), lattice_sum(x, y)):
                    assert lat.basis == lat.hnf

    def test_divisible_pivots_need_not_nest(self):
        two = LatticeBasis(IntMatrix.identity(2)).scale(2)
        skew = LatticeBasis(IntMatrix([[2, 0], [1, 2]]))
        assert skew.hnf.entries == ((2, 0), (1, 2))
        assert not is_sublattice(two, skew) and not is_sublattice(skew, two)
        assert lattice_intersect(two, skew) == tag_intersect(two, skew)
        assert lattice_sum(two, skew).hnf == stacked_sum(two, skew)

    def test_inclusion_matches_the_triangular_solve(self):
        rng = random.Random(2703)
        outcomes = set()
        for _ in range(3000):
            n = rng.randint(1, 5)
            sup_diag = [rng.choice((1, 2, 3, 4, 6)) for _ in range(n)]
            # The pivots of sup divide those of sub, so the entries below decide.
            sub_diag = [x * rng.choice((1, 1, 2, 3, 5)) for x in sup_diag]
            sup, sub = random_hnf(rng, n, sup_diag), random_hnf(rng, n, sub_diag)
            if rng.random() < 0.2:
                sub = LatticeBasis(sup.basis * rng.choice((2, 3, 6)))
            expected = solve_in_lattice(sup.hnf, sub.hnf) is not None
            assert is_sublattice(sub, sup) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}
        for x, y, a, b in closed_form_grid():
            assert is_sublattice(a, b) == (solve_in_lattice(b.hnf, a.hnf) is not None)


class TestWorkCounts:
    """Pin the work the closed-form check and `verify` do, so a change that
    drops the nested shortcut or the L(d) memo shows here."""

    def test_closed_forms_run_132_stacked_intersections(self, monkeypatch):
        firsts = []
        column_hnf = exactmat._column_hnf

        def counted(cols, first=0):
            firsts.append(first)
            return column_hnf(cols, first)

        monkeypatch.setattr(exactmat, "_column_hnf", counted)
        assert verify.check_scaled_closed_forms(range(2, 7), 3).passed
        assert sum(first > 0 for first in firsts) == 132

    def test_verify_builds_each_craig_lattice_once(self):
        craig.craig_lattice.cache_clear()
        assert verify.run_verification(6)["passed"]
        assert craig.craig_lattice.cache_info().misses == 57


def _hypothesis():
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.strategies


def _matrices(st, n, lo=-6, hi=6):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n)


def _lattices(st, n):
    """Strategy for full-rank lattices of dimension n; singular draws are dropped."""

    def build(rows):
        try:
            return LatticeBasis(IntMatrix(rows))
        except LatticeError:
            return None

    return _matrices(st, n).map(build).filter(lambda lat: lat is not None)


def _unimodular(st, n):
    """Products of elementary column operations, then an optional column negation."""

    def build(args):
        steps, flip = args
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j, c in steps:
            if i != j:
                for row in rows:
                    row[j] += c * row[i]
        if flip >= 0:
            for row in rows:
                row[flip] = -row[flip]
        return IntMatrix(rows)

    step = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    return st.tuples(st.lists(step, max_size=12), st.integers(-1, n - 1)).map(build)


def _lower_factor(st, n):
    """A lower-triangular integer matrix with diagonal entries 1..3."""

    def build(e):
        return IntMatrix(
            [[max(e[i][i], 1) if j == i else e[i][j] * (j < i) for j in range(n)] for i in range(n)]
        )

    return _matrices(st, n, 0, 3).map(build)


PROPERTY_SETTINGS = {"derandomize": True, "database": None, "max_examples": 60, "deadline": None}


def _sized(st, case):
    return st.integers(1, 5).flatmap(case)


class TestProperties:
    def test_hnf_idempotent_and_unimodular_invariant(self):
        hyp, st = _hypothesis()

        @hyp.settings(**PROPERTY_SETTINGS)
        @hyp.given(_sized(st, lambda n: st.tuples(_lattices(st, n), _unimodular(st, n))))
        def prop(case):
            lat, u = case
            assert hnf(lat.hnf) == lat.hnf
            assert hnf(lat.basis * u) == lat.hnf

        prop()

    def test_index_multiplicative_along_chains(self):
        hyp, st = _hypothesis()

        def chain(n):
            return st.tuples(_lattices(st, n), _lower_factor(st, n), _lower_factor(st, n))

        @hyp.settings(**PROPERTY_SETTINGS)
        @hyp.given(_sized(st, chain))
        def prop(case):
            a, f, g = case
            b = LatticeBasis(a.basis * f)
            c = LatticeBasis(b.basis * g)
            assert lattice_index(a, c) == lattice_index(a, b) * lattice_index(b, c)

        prop()

    def test_absorption_and_the_tag_oracle(self):
        hyp, st = _hypothesis()

        @hyp.settings(**PROPERTY_SETTINGS)
        @hyp.given(_sized(st, lambda n: st.tuples(_lattices(st, n), _lattices(st, n))))
        def prop(case):
            a, b = case
            meet, join = lattice_intersect(a, b), lattice_sum(a, b)
            assert meet == tag_intersect(a, b)
            assert lattice_sum(a, meet) == a
            assert lattice_intersect(a, join) == a
            assert lattice_index(a, meet) == lattice_index(join, b)

        prop()

    def test_hnf_matches_sympy(self):
        hyp, st = _hypothesis()
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form

        @hyp.settings(**PROPERTY_SETTINGS)
        @hyp.given(_sized(st, lambda n: _lattices(st, n)))
        def prop(lat):
            # sympy's form is upper triangular with each row reduced right of
            # its pivot: reversing the rows of the input and both the rows and
            # the columns of the output maps it onto ours.
            n = lat.dim
            theirs = hermite_normal_form(sympy.Matrix(lat.basis.entries[::-1]))
            assert [[int(theirs[n - 1 - i, n - 1 - j]) for j in range(n)] for i in range(n)] == [
                list(row) for row in lat.hnf.entries
            ]

        prop()
