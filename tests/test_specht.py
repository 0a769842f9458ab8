from math import factorial

import pytest

from hookzeta.bounds import Bounds, ScaleError
from hookzeta.arith import content
from hookzeta.craig import craig_lattice
from hookzeta.exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    det,
    is_scalar_multiple,
    matrix_from_json,
)
from hookzeta.specht import (
    HookTableau,
    RepGenerators,
    Tabloid,
    _intertwines,
    closed_intertwiner,
    craig_generators,
    generators_to_json,
    identify_specht_lattice,
    intertwiner,
    polytabloid,
    specht_generators_closed,
    specht_generators_oracle,
    verify_coxeter,
)


class TestCraigGenerators:
    def test_n2_matrices(self):
        g = craig_generators(2)
        assert g.mats[0] == IntMatrix([[1, 1], [0, -1]])
        assert g.mats[1] == IntMatrix([[-1, 0], [1, 1]])

    def test_involutions(self):
        for n in range(2, 9):
            g = craig_generators(n)
            for m in g.mats:
                assert m * m == IntMatrix.identity(n)

    def test_n3_middle_generator(self):
        # direct evaluation of the elementary-matrix formula: the off-diagonal
        # 1,2,1 block sits in row k
        g = craig_generators(3)
        assert g.mats[1] == IntMatrix([[-1, 0, 0], [1, 1, 1], [0, 0, -1]])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            craig_generators(1)


class TestVerifyCoxeter:
    def test_standard_coordinates(self):
        for n in range(2, 11):
            assert verify_coxeter(craig_generators(n))

    def test_broken_sign_detected(self):
        g = craig_generators(4)
        bad = [list(r) for r in g.mats[1].entries]
        bad[1][0] = -bad[1][0]
        mats = list(g.mats)
        mats[1] = IntMatrix(bad)
        assert not verify_coxeter(RepGenerators(4, tuple(mats)))

    def test_specht_coordinates(self):
        for n in range(2, 11):
            assert verify_coxeter(specht_generators_closed(n))


class TestPolytabloid:
    def test_n2_t2(self):
        e = polytabloid(HookTableau(2, 2))
        assert e == {
            Tabloid((1, 2), (3,)): 1,
            Tabloid((2, 3), (1,)): -1,
        }

    def test_n2_t3(self):
        e = polytabloid(HookTableau(2, 3))
        assert e == {
            Tabloid((1, 3), (2,)): 1,
            Tabloid((2, 3), (1,)): -1,
        }

    def test_term_count_is_column_group_order(self):
        for t in range(2, 6):
            e = polytabloid(HookTableau(4, t))
            assert len(e) == factorial(4)
            assert set(e.values()) == {1, -1}

    def test_scale_bound(self):
        with pytest.raises(ScaleError, match="oracle-scale-exceeded"):
            polytabloid(HookTableau(8, 2), Bounds(polytabloid_max_n=7))

    def test_tableau_validation(self):
        with pytest.raises(ValueError):
            HookTableau(3, 5)


class TestSpechtOracle:
    def test_n2_matrices(self):
        g = specht_generators_oracle(2)
        assert g.mats[0] == IntMatrix([[1, 0], [-1, -1]])
        assert g.mats[1] == IntMatrix([[0, 1], [1, 0]])

    def test_n3_straightening_column(self):
        # s_1 e_{T_2} = e_{T_2} - e_{T_3} + e_{T_4}
        g = specht_generators_oracle(3)
        assert g.mats[0].column(0) == (1, -1, 1)

    def test_coxeter(self):
        for n in range(2, 6):
            assert verify_coxeter(specht_generators_oracle(n))


class TestSpechtClosedForm:
    def test_matches_oracle(self):
        for n in range(2, 7):
            assert specht_generators_closed(n).mats == specht_generators_oracle(n).mats

    def test_trace_is_hook_character(self):
        for n in range(2, 11):
            for gens in (craig_generators(n), specht_generators_closed(n)):
                for m in gens.mats:
                    assert m.trace() == 2 - n


class TestIntertwiner:
    def test_self_intertwiner_is_identity(self):
        for n in (2, 3, 5):
            g = craig_generators(n)
            assert intertwiner(g, g) == IntMatrix.identity(n)

    def test_n2_value(self):
        p = intertwiner(specht_generators_closed(2), craig_generators(2))
        assert p == IntMatrix([[1, -1], [1, 2]])
        assert abs(det(p)) == 3

    def test_defining_equations_and_uniqueness(self):
        for n in range(2, 7):
            a = specht_generators_closed(n)
            b = craig_generators(n)
            p = intertwiner(a, b)
            for ak, bk in zip(a.mats, b.mats):
                assert bk * p == p * ak

    def test_n3_determinant_matches_identified_lattice(self):
        # the identified representative has determinant (n+1)^(n-1) = 16 and
        # the primitive intertwiner maps onto exactly that lattice
        p = intertwiner(specht_generators_closed(3), craig_generators(3))
        assert abs(det(p)) == 16
        assert is_scalar_multiple(craig_lattice(3, 4).basis, LatticeBasis(p)) == 1

    def test_inequivalent_rejected(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        reducible = RepGenerators(2, (swap, swap))
        assert verify_coxeter(reducible)
        with pytest.raises(LatticeError, match="not-equivalent-or-not-irreducible"):
            intertwiner(craig_generators(2), reducible)


class TestClosedIntertwiner:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_equals_the_solved_intertwiner(self, n):
        solved = intertwiner(specht_generators_closed(n), craig_generators(n))
        assert closed_intertwiner(specht_generators_closed(n), craig_generators(n)) == solved

    @pytest.mark.parametrize("n", [*range(2, 13), 32, 64])
    def test_primitive_with_the_index_of_the_specht_lattice(self, n):
        # [Z^n : L(n+1)] = (n+1)^(n-1), and the solve normalizes P[0][0] > 0
        p = closed_intertwiner(specht_generators_closed(n), craig_generators(n))
        assert content(x for row in p.entries for x in row) == 1
        assert p[0, 0] == 1
        assert abs(det(p)) == (n + 1) ** (n - 1)

    def test_check_rejects_any_changed_entry(self):
        n = 4
        a, b = specht_generators_closed(n), craig_generators(n)
        p = closed_intertwiner(a, b)
        _intertwines(a, b, p)
        for i in range(n):
            for j in range(n):
                rows = [list(r) for r in p.entries]
                rows[i][j] += 1
                with pytest.raises(LatticeError, match="defining equations"):
                    _intertwines(a, b, IntMatrix(rows))

    def test_check_rejects_a_swapped_family(self):
        for n in (2, 5, 9):
            g = craig_generators(n)
            _intertwines(g, g, IntMatrix.identity(n))
            with pytest.raises(LatticeError, match="defining equations"):
                _intertwines(g, g, closed_intertwiner(specht_generators_closed(n), g))

    def test_check_rejects_mismatched_dimensions(self):
        with pytest.raises(LatticeError, match="dimensions"):
            _intertwines(craig_generators(3), craig_generators(3), IntMatrix.identity(2))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            specht_generators_closed(1)


class TestIdentifySpechtLattice:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_lands_on_largest_divisor(self, n):
        a, b = specht_generators_closed(n), craig_generators(n)
        assert identify_specht_lattice(a, b) == (closed_intertwiner(a, b), n + 1)


class TestSerialization:
    def test_roundtrip(self):
        g = craig_generators(3)
        blob = generators_to_json(g)
        assert blob["n"] == 3
        assert tuple(matrix_from_json(m) for m in blob["generators"]) == g.mats
