import random
from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import NamedTuple

import pytest

from hookzeta import verify
from hookzeta.bounds import Bounds, ScaleError
from hookzeta.arith import content
from hookzeta.craig import craig_lattice
from hookzeta.exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    matrix_from_json,
    matrix_to_json,
)
from hookzeta.specht import (
    RepGenerators,
    _intertwines,
    closed_intertwiner,
    craig_generators,
    identify_specht_lattice,
    intertwiner,
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


@dataclass(frozen=True)
class HookTableau:
    """Standard Young tableau of shape (2, 1^(n-1)), determined by box (1,2).

    The first column is {1, ..., n+1} minus t in increasing order, so the n
    standard tableaux are T_2, ..., T_{n+1}.
    """

    n: int
    t: int

    def __post_init__(self):
        if not 2 <= self.t <= self.n + 1:
            raise ValueError("box (1,2) entry must lie in 2..n+1")

    @property
    def first_column(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 2) if v != self.t)


class Tabloid(NamedTuple):
    """Row-equivalence class: unordered two-element first row, then singles."""

    row_pair: tuple[int, int]
    singles: tuple[int, ...]


def _tabloid(a, b, singles):
    return Tabloid((min(a, b), max(a, b)), tuple(singles))


def _perm_sign(seq):
    """Sign of the permutation sending sorted(seq) to seq."""
    rank = {v: i for i, v in enumerate(sorted(seq))}
    idx = [rank[v] for v in seq]
    inv = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx)) if idx[i] > idx[j])
    return -1 if inv % 2 else 1


def polytabloid(tableau):
    """Signed tabloid expansion over the column stabilizer of the tableau.

    The column group permutes the n first-column entries, so the expansion has
    exactly n! terms with coefficients +-1.
    """
    return {
        _tabloid(image[0], tableau.t, image[1:]): _perm_sign(image)
        for image in permutations(tableau.first_column)
    }


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


def _apply_adjacent(tab, k):
    """Relabel a tabloid by the transposition (k k+1)."""

    def sw(v):
        return {k: k + 1, k + 1: k}.get(v, v)

    a, b = tab.row_pair
    return _tabloid(sw(a), sw(b), (sw(v) for v in tab.singles))


def full_expansion_oracle(n):
    """The Specht action read off the full n!-term tabloid expansions.

    Applies each transposition to the expansion of every basis polytabloid,
    reads the coefficient of e_{T_u} off the identity tabloid of T_u (pair
    {1, u}, singles increasing), and checks that the combination reproduces
    the permuted expansion exactly.
    """
    labels = range(2, n + 2)
    expansions = {u: polytabloid(HookTableau(n, u)) for u in labels}
    anchors = {u: _tabloid(1, u, (v for v in range(2, n + 2) if v != u)) for u in labels}
    mats = []
    for k in range(1, n + 1):
        columns = []
        for t in labels:
            moved = {_apply_adjacent(tab, k): c for tab, c in expansions[t].items()}
            coeffs = [moved.get(anchors[u], 0) for u in labels]
            acc = {}
            for x, u in zip(coeffs, labels):
                if x:
                    for tab, c in expansions[u].items():
                        acc[tab] = acc.get(tab, 0) + x * c
            assert {tab: c for tab, c in acc.items() if c} == moved
            columns.append(coeffs)
        mats.append(IntMatrix.from_columns(columns))
    return RepGenerators(n, tuple(mats))


class TestGroupedOracle:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_the_full_expansion(self, n):
        assert specht_generators_oracle(n).mats == full_expansion_oracle(n).mats

    @pytest.mark.parametrize("n", range(2, 33))
    def test_equals_the_closed_rule(self, n):
        oracle = specht_generators_oracle(n, Bounds(polytabloid_max_n=32))
        assert oracle.mats == specht_generators_closed(n).mats

    def test_reach_is_the_oracle_bound(self):
        with pytest.raises(ScaleError, match="oracle-scale-exceeded"):
            specht_generators_oracle(8, Bounds(polytabloid_max_n=7))


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
        assert LatticeBasis(p).determinant() == 3

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
        assert LatticeBasis(p).determinant() == 16
        assert LatticeBasis(p) == craig_lattice(3, 4).basis

    def test_inequivalent_rejected(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        reducible = RepGenerators(2, (swap, swap))
        assert verify_coxeter(reducible)
        with pytest.raises(LatticeError, match="not-equivalent-or-not-irreducible"):
            intertwiner(craig_generators(2), reducible)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_no_intertwiner_to_the_negated_family(self, n):
        # b(s_k) P = -P b(s_k) has only P = 0: nullity 0.
        b = craig_generators(n)
        negated = RepGenerators(n, tuple(-1 * m for m in b.mats))
        with pytest.raises(LatticeError, match="not-equivalent-or-not-irreducible"):
            intertwiner(b, negated)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trivial_families_leave_every_unknown_free(self, n):
        # Every P intertwines two identity families: nullity n^2.
        ones = RepGenerators(n, (IntMatrix.identity(n),) * n)
        with pytest.raises(LatticeError, match="not-equivalent-or-not-irreducible"):
            intertwiner(ones, ones)

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(LatticeError, match="different dimensions"):
            intertwiner(craig_generators(2), craig_generators(3))

    def test_densely_conjugated_families(self):
        # intertwiner(U^-1 a U, b) is closed_intertwiner(a, b) U up to sign and content.
        for seed in range(1, 21):
            rng = random.Random(seed)
            for n in range(2, 11):
                u, u_inv = _elementary_pair(n, [_elementary_step(rng, n) for _ in range(3 * n)])
                _assert_conjugated_solve(u, u_inv)

    def test_densely_conjugated_families_property(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        def case(n):
            step = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
            return st.lists(step, max_size=3 * n).map(lambda steps: _elementary_pair(n, steps))

        @hyp.settings(derandomize=True, database=None, max_examples=60, deadline=None)
        @hyp.given(st.integers(2, 8).flatmap(case))
        def prop(pair):
            _assert_conjugated_solve(*pair)

        prop()

    def test_specht_identification_to_27_within_the_time_limit(self, time_limit):
        with time_limit(10):
            assert verify.check_specht_identification(range(2, 28)).passed


def _elementary_step(rng, n):
    i, j = rng.sample(range(n), 2)
    return i, j, rng.choice([-3, -2, -1, 1, 2, 3])


def _elementary_pair(n, steps):
    """U from the column operations "add c times column i to column j", and U^-1."""
    u = [[int(r == c) for c in range(n)] for r in range(n)]
    u_inv = [row[:] for row in u]
    for i, j, c in steps:
        if i != j:
            for row in u:
                row[j] += c * row[i]
            u_inv[i] = [x - c * y for x, y in zip(u_inv[i], u_inv[j])]
    return IntMatrix(u), IntMatrix(u_inv)


def _normalized(m):
    entries = [x for row in m.entries for x in row]
    g = content(entries) * (1 if next(x for x in entries if x) > 0 else -1)
    return IntMatrix([[x // g for x in row] for row in m.entries])


def _assert_conjugated_solve(u, u_inv):
    n = u.rows
    assert u * u_inv == IntMatrix.identity(n)
    a, b = specht_generators_closed(n), craig_generators(n)
    conjugated = RepGenerators(n, tuple(u_inv * m * u for m in a.mats))
    assert intertwiner(conjugated, b) == _normalized(closed_intertwiner(a, b) * u)


class TestClosedIntertwiner:
    @pytest.mark.parametrize("n", [*range(2, 17), 24, 32])
    def test_equals_the_solved_intertwiner(self, n):
        solved = intertwiner(specht_generators_closed(n), craig_generators(n))
        assert closed_intertwiner(specht_generators_closed(n), craig_generators(n)) == solved

    @pytest.mark.parametrize("n", [*range(2, 13), 32, 64])
    def test_primitive_with_the_index_of_the_specht_lattice(self, n):
        # [Z^n : L(n+1)] = (n+1)^(n-1), and the solve normalizes P[0][0] > 0
        p = closed_intertwiner(specht_generators_closed(n), craig_generators(n))
        assert content(x for row in p.entries for x in row) == 1
        assert p[0, 0] == 1
        assert LatticeBasis(p).determinant() == (n + 1) ** (n - 1)

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
        assert tuple(matrix_from_json(matrix_to_json(m)) for m in g.mats) == g.mats
