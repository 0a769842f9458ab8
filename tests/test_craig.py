import random
from functools import reduce
from itertools import combinations, product
from math import comb
from operator import mul

import pytest

from hookzeta import craig, verify
from hookzeta.arith import divisors, prime_factorization, valuation
from hookzeta.bounds import DEFAULT_BOUNDS, Bounds, ScaleError
from hookzeta.craig import (
    ScaledCraigLattice,
    classify_sublattice,
    craig_lattice,
    enumerate_index_sublattices,
    enumerate_p_sublattices,
    identify_stable_lattice,
    is_g_stable,
    maximal_sublattices_p,
    mu_p,
    phi_p,
    rad_p,
    scaled_inclusion,
    scaled_index,
    scaled_intersect,
    scaled_lattice_basis,
    scaled_maximal_sublattices,
    _block_reach,
    _residue_action,
)
from hookzeta.exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    solve_in_lattice,
    solve_triangular,
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


def plain_walk(lattice, gens, p, max_exp):
    """`enumerate_p_sublattices` without its (c, M) memo: every lattice met is
    expanded through `maximal_sublattices_p`, and lifts past max_exp dropped."""
    levels = {0: {lattice}}
    for e in range(max_exp):
        for lat in levels.get(e, ()):
            for sub in maximal_sublattices_p(lat, gens, p):
                e2 = e + valuation(lattice_index(lat, sub), p)
                if e2 <= max_exp:
                    levels.setdefault(e2, set()).add(sub)
    return {e: sorted(levels.get(e, ()), key=LatticeBasis.key) for e in range(max_exp + 1)}


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


def action_in_basis(lattice, mat):
    """The oracles' dense action: `mat` in the lattice's basis H, H^-1 (mat H)
    by one lattice solve, or None when the lattice is not invariant under it.
    Independent of the sparse conjugation `craig._conjugated_action`."""
    return solve_in_lattice(lattice.hnf, mat * lattice.hnf)


def dense_is_stable(lattice, gens):
    return all(action_in_basis(lattice, m) is not None for m in gens.mats)


def dense_residue_action(lattice, gens, p):
    """The oracles' action on L/pL: each dense `action_in_basis` matrix mod p,
    independent of the sparse conjugation of the fast path."""
    return tuple(
        tuple(tuple(x % p for x in row) for row in action_in_basis(lattice, m).entries)
        for m in gens.mats
    )


def assert_shifted_form(action, shifted, p=None, gens=None):
    """Each generator's sparse form (c, terms) is cI plus terms equal to the
    dense action, with no kept term 0 (mod p).  c is a commonest diagonal
    entry of the action itself, or, for a form conjugated from `gens`, of the
    generator (mod p)."""
    reduce_p = (lambda x: x) if p is None else (lambda x: x % p)
    assert len(shifted) == len(action)
    sources = action if gens is None else [m.entries for m in gens.mats]
    for rows, (c, terms), source in zip(action, shifted, sources):
        n = len(rows)
        dense = [[c * (i == j) for j in range(n)] for i in range(n)]
        for r, row in terms:
            for j, x in row:
                assert reduce_p(x)
                dense[r][j] = reduce_p(dense[r][j] + x)
        assert dense == [list(row) for row in rows]
        diag = [source[i][i] for i in range(n)]
        assert c in {reduce_p(x) for x in diag if diag.count(x) == max(map(diag.count, diag))}


def dense_closure(vec, action, p):
    """The echelon key of the smallest subspace holding vec that every dense
    action matrix maps into itself, mod p: the span of vec and of the images
    of every vector that enlarged it."""
    basis = {}
    craig._rref_insert(basis, list(vec), p, len(vec))
    queue = [vec]
    while queue:
        v = queue.pop()
        for rows in action:
            img = [sum(map(mul, row, v)) % p for row in rows]
            if any(craig._rref_insert(basis, img, p, len(img))):
                queue.append(img)
    return tuple(tuple(row) for _, row in sorted(basis.items()))


def exhaustive_layer(action, p, n):
    """The oracle: (maximal, radical, moebius) of the submodules of F_p^n
    under the dense action, from their definitions.

    Every submodule is the join of the closures of its lines, so closing the
    closures of all lines under joins yields every submodule.  The radical is
    the largest submodule inside every maximal one, and moebius maps each
    submodule x above it to mu(x) = -sum of mu(y) over the y above x.
    """
    full = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    cyclic = {dense_closure(vec, action, p) for vec in projective_reps(n, p)}
    subs = cyclic | {(), full}
    frontier = subs
    while frontier:
        frontier = {craig._echelon(a + b, p) for a in frontier for b in cyclic} - subs
        subs |= frontier

    def inside(small, big):
        return craig._echelon(big + small, p) == big

    proper = subs - {full}
    maximal = [m for m in proper if not any(o != m and inside(m, o) for o in proper)]
    radical = max((s for s in subs if all(inside(s, m) for m in maximal)), key=len)
    moebius = {}
    for x in sorted((s for s in subs if inside(radical, s)), key=len, reverse=True):
        above = (mu for y, mu in moebius.items() if y != x and inside(x, y))
        moebius[x] = 1 if x == full else -sum(above)
    return sorted(maximal), radical, moebius


def all_triangular_bases(n, m):
    """Every canonical lower-triangular basis of index m, as rows (no
    stability filter)."""
    for diag in product(divisors(m), repeat=n):
        if reduce(mul, diag) != m:
            continue
        free = [(i, j) for i in range(n) for j in range(i) if diag[i] > 1]
        for values in product(*(range(diag[i]) for i, _ in free)):
            rows = [[diag[i] * (i == j) for j in range(n)] for i in range(n)]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield rows


def enumerate_index_sublattices_naive(lattice, gens, m):
    """The oracle census: every triangular basis H of index m, kept when each
    dense generator image of each column of L H lies in the span of L H.

    L H is lower triangular, so `solve_triangular` decides each membership;
    only stable candidates become lattices.  No pruning: exponentially slower
    than the walk."""
    n = lattice.dim
    base = lattice.hnf.entries
    mats = [a.entries for a in gens.mats]
    out = []
    for h in all_triangular_bases(n, m):
        rows = [[sum(base[i][k] * h[k][j] for k in range(j, i + 1)) for j in range(n)]
                for i in range(n)]
        cand = IntMatrix(rows)
        cols = list(zip(*rows))
        if all(
            solve_triangular(cand, [sum(map(mul, row, col)) for row in a]) is not None
            for a in mats
            for col in cols
        ):
            out.append(LatticeBasis(IntMatrix.from_columns(cols)))
    return sorted(out, key=LatticeBasis.key)


def assert_within_constraints(lattice, gens, subs):
    """Each stable sublattice's diagonal d in the lattice's coordinates has
    d_r | a d_t for every constraint (r, t, a) of the census section comment:
    for each generator cI + S and column t, the first row r != t of S that
    reads any column >= t, when t is the only one it reads, with coefficient
    a.  Returns whether any constraint was derived."""
    n = lattice.dim
    found = []
    for (c, _), a in zip(craig._conjugated_action(lattice, gens), gens.mats):
        s = [[x - c * (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(action_in_basis(lattice, a).entries)]
        for t in range(n):
            r = next((r for r in range(n) if any(s[r][t:])), t)
            if r != t and not any(s[r][t + 1:]):
                found.append((r, t, s[r][t]))
    for sub in subs:
        h = solve_in_lattice(lattice.hnf, sub.hnf)
        d = [h[i, i] for i in range(n)]
        assert all(a * d[t] % d[r] == 0 for r, t, a in found), (sub, found)
    return bool(found)


def is_upper_triangular(gens):
    return not any(any(row[:i]) for m in gens.mats for i, row in enumerate(m.entries))


def transposed(gens):
    return RepGenerators(gens.n, tuple(IntMatrix.from_columns(m.entries) for m in gens.mats))


def mat_mul_mod(a, b, p):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in a]


def charpoly_mod(mat, p):
    """The oracle: the characteristic polynomial over F_p of a dense matrix,
    constant term first, via reduction to Hessenberg form."""
    n = len(mat)
    h = [row[:] for row in mat]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        inv = pow(h[m][m - 1], -1, p)
        for r in range(m + 1, n):
            u = h[r][m - 1] * inv % p
            if u:
                # Similarity by an elementary matrix: row r -= u row m, then
                # column m += u column r.
                h[r] = [(x - u * y) % p for x, y in zip(h[r], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[r]) % p
    # chi_m is the characteristic polynomial of the leading m x m block.
    chis = [[1]]
    for m in range(1, n + 1):
        prev = chis[m - 1]
        chi = [0] + prev
        for k, c in enumerate(prev):
            chi[k] -= h[m - 1][m - 1] * c
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % p
            coef = t * h[m - i - 1][m - 1]
            for k, c in enumerate(chis[m - i - 1]):
                chi[k] -= coef * c
        chis.append([x % p for x in chi])
    return chis[n]


def poly_at_matrix(f, mat, p):
    """f(mat) over F_p by Horner's rule on dense matrices."""
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    for c in reversed(f):
        out = mat_mul_mod(out, mat, p)
        for i in range(n):
            out[i][i] = (out[i][i] + c) % p
    return out


def is_irreducible(f, p):
    """f has no factor of degree i <= deg f / 2: gcd(f, x^(p^i) - x) = 1."""
    power = [0, 1]
    for _ in range((len(f) - 1) // 2):
        base = power
        for _ in range(p - 1):
            power = craig._poly_divmod(craig._poly_mul(power, base, p), f, p)[1]
        minus_x = power + [0] * (2 - len(power))
        minus_x[1] = (minus_x[1] - 1) % p
        if not craig._poly_trim(minus_x) or len(craig._poly_gcd(f, minus_x, p)) > 1:
            return False
    return True


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

    def test_memo_returns_the_same_value_and_refuses_floats(self):
        assert craig_lattice(3, 2) is craig_lattice(3, 2)
        with pytest.raises(TypeError):
            craig_lattice(3, 2.0)


class TestStability:
    def test_divisor_criterion_both_directions(self):
        check = verify.check_stability_classification(range(2, 7))
        assert check.passed, check.detail

    def test_scaled_lattices_stable(self):
        gens = craig_generators(3)
        for a in range(3):
            for b in range(3):
                assert dense_is_stable(scaled(3, 2, a, b), gens)


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
    # n = 26 (n + 1 = 3^3) guards the residue path at large n, at default bounds.
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 26])
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


def echelon_cases():
    """Seeded (rows, p) over p in {2, 3, 5, 7}, up to 8 x 8, with zero rows,
    repeated rows and rows that are sums of earlier ones mixed in."""
    rng = random.Random(41)
    cases = []
    for p in (2, 3, 5, 7):
        for _ in range(40):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            rows = []
            for _ in range(m):
                kind = rng.random()
                if kind < 0.15:
                    rows.append([0] * n)
                elif kind < 0.3 and rows:
                    rows.append(list(rng.choice(rows)))
                elif kind < 0.45 and len(rows) > 1:
                    a, b = rng.sample(rows, 2)
                    rows.append([(x + y) % p for x, y in zip(a, b)])
                else:
                    rows.append([rng.randrange(p) for _ in range(n)])
            cases.append((rows, p))
    return cases


class TestEchelon:
    """The one F_p reduction, against sympy and against plain multiplication."""

    def test_keys_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        for rows, p in echelon_cases():
            field = sympy.GF(p)
            shape = (len(rows), len(rows[0]))
            reduced = DomainMatrix([[field(x) for x in row] for row in rows], shape, field).rref()[0]
            want = [[field.to_int(x) % p for x in row] for row in reduced.to_list()]
            assert craig._echelon(rows, p) == tuple(tuple(r) for r in want if any(r)), (rows, p)

    def test_tags_give_kernels_and_inverses(self):
        reached = set()
        for rows, p in echelon_cases():
            m, n = len(rows), len(rows[0])
            basis, kernel = {}, []
            for i, row in enumerate(rows):
                residue = craig._rref_insert(basis, row + [int(i == j) for j in range(m)], p, n)
                if not any(residue[:n]):
                    kernel.append(residue[n:])
            rank = len(craig._echelon(rows, p))
            assert len(basis) == rank and len(kernel) == m - rank
            # Row i tagged e_i leaves a 1 at i and only earlier rows below it,
            # so the kernel tags are nonzero and independent.
            lasts = [max(i for i, x in enumerate(t) if x) for t in kernel]
            assert len(set(lasts)) == len(kernel)
            for t, last in zip(kernel, lasts):
                assert t[last] == 1
                assert [sum(t[i] * rows[i][j] for i in range(m)) % p for j in range(n)] == [0] * n
            reached.add("kernel" if kernel else "independent")
            if m == n == rank:
                unit = [[int(i == j) for j in range(n)] for i in range(n)]
                inverse = [r[n:] for r in craig._echelon([r + u for r, u in zip(rows, unit)], p)]
                product = [[sum(a * b for a, b in zip(r, col)) % p for col in zip(*rows)] for r in inverse]
                assert product == unit, (rows, p)
                reached.add("inverse")
        assert reached == {"kernel", "independent", "inverse"}


class TestResidueSubmodules:
    def test_word_spins_match_exhaustive_spinning(self):
        # The residue layer read off the word's blocks equals the oracle's on
        # every family lattice with p^n <= 512, and on seeded integer actions
        # on Z^2 to Z^4 with p^n <= 256, where a family without a semisimple
        # word must raise.  The grid reaches a block below another, two top
        # classes, and two kernel vectors with one spin.
        cases, reached = 0, set()

        def compare(lat, gens, p):
            n = lat.dim
            maximal, radical, moebius = exhaustive_layer(dense_residue_action(lat, gens, p), p, n)
            try:
                got = craig._residue_layer(lat, gens, p, DEFAULT_BOUNDS)
            except ValueError as exc:
                assert "no-semisimple-word" in str(exc), (gens, p)
                reached.add("no semisimple word")
                return
            assert (sorted(got[0]), got[1], dict(got[2])) == (maximal, radical, moebius), (gens, p)
            reach = _block_reach(_residue_action(lat, gens, p), p, n, DEFAULT_BOUNDS)[1]
            reached.update(
                name
                for name, hit in (
                    ("non-top block", radical != ()),
                    ("two top classes", len(maximal) > 1),
                    ("equal spins", len(set(reach)) < len(reach)),
                )
                if hit
            )

        for n in range(2, 10):
            for p in (2, 3, 5, 7, 11, 13):
                if p**n > 512:
                    continue
                pairs = [(craig_lattice(n, d).basis, craig_generators(n)) for d in divisors(n + 1)]
                pairs.append((LatticeBasis(IntMatrix.identity(n)), specht_generators_closed(n)))
                for lat, gens in pairs:
                    compare(lat, gens, p)
                    cases += 1
        assert cases == 67
        rng = random.Random(13)
        for _ in range(12):
            for n in (2, 3, 4):
                for gens in integer_families(rng, n):
                    for p in (2, 3, 5):
                        if p**n <= 256:
                            compare(LatticeBasis(IntMatrix.identity(n)), gens, p)
        assert reached == {"non-top block", "two top classes", "equal spins", "no semisimple word"}

    def test_reach_sets_match_the_dense_closure(self):
        # Every L(d) with n <= 7 at every p <= 7, and integer actions on Z^n
        # with a semisimple word: the blocks a block reaches span the closure
        # of its kernel vector, in cases where they are all blocks and where
        # they are not.
        rng = random.Random(11)
        cases = [
            (craig_lattice(n, d).basis, craig_generators(n), p)
            for n in range(2, 8)
            for p in (2, 3, 5, 7)
            for d in divisors(n + 1)
        ]
        cases += [
            (LatticeBasis(IntMatrix.identity(n)), gens, p)
            for n in (2, 3)
            for gens in integer_families(rng, n)
            for p in (2, 3)
        ]
        exits = set()
        for lat, gens, p in cases:
            n, action = lat.dim, dense_residue_action(lat, gens, p)
            shifted = _residue_action(lat, gens, p)
            assert_shifted_form(action, shifted, p, gens)
            try:
                bases, reach = _block_reach(shifted, p, n, DEFAULT_BOUNDS)
            except ValueError as exc:
                assert "no-semisimple-word" in str(exc)
                continue
            for basis, blocks in zip(bases, reach):
                got = craig._echelon([v for b in blocks for v in bases[b]], p)
                for vec in basis:
                    assert got == dense_closure(tuple(vec), action, p), (action, p)
                exits.add(len(blocks) == len(bases))
        assert exits == {True, False}

    def test_word_kernels_match_dense_oracles(self):
        # Every L(d) with n <= 11 at p in {2, 3, 5, 7}, and seeded integer
        # actions on Z^2 to Z^4.  For every prefix word the sparse word action
        # equals the dense product and the relative minimal polynomials
        # multiply to its dense characteristic polynomial; the chosen word is
        # the longest squarefree one, and its blocks hold the Krylov basis
        # of ker f(B) per irreducible factor f, together a basis of F_p^n.
        cases = [
            (craig_lattice(n, d).basis, craig_generators(n), p)
            for n in range(2, 12)
            for p in (2, 3, 5, 7)
            for d in divisors(n + 1)
        ]
        rng = random.Random(17)
        cases += [
            (LatticeBasis(IntMatrix.identity(n)), gens, p)
            for _ in range(3)
            for n in (2, 3, 4)
            for gens in integer_families(rng, n)
            for p in (2, 3, 5, 7)
        ]
        outcomes = {"kernels": 0, "raised": 0}
        for lat, gens, p in cases:
            n, action = lat.dim, dense_residue_action(lat, gens, p)
            shifted = _residue_action(lat, gens, p)
            words, chis = [], []
            word = [[int(i == j) for j in range(n)] for i in range(n)]
            for k, rows in enumerate(action, start=1):
                word = mat_mul_mod(word, rows, p)
                apply = craig._word_action(shifted[:k], p)
                units = [[int(i == j) for i in range(n)] for j in range(n)]
                assert [list(col) for col in zip(*map(apply, units))] == word
                chi = reduce(
                    lambda a, b: craig._poly_mul(a, b, p),
                    (g for _, g, _ in craig._relative_minpolys(apply, p, n)),
                )
                assert chi == charpoly_mod(word, p), (action, p, k)
                words.append(word)
                chis.append(chi)
            squarefree = [k for k, chi in enumerate(chis, 1) if craig._is_squarefree(chi, p)]
            if not squarefree:
                with pytest.raises(ValueError, match="no-semisimple-word"):
                    craig._word_kernels(shifted, p, n)
                outcomes["raised"] += 1
                continue
            k, chi, blocks = craig._word_kernels(shifted, p, n)
            assert (k, chi) == (max(squarefree), chis[k - 1])
            assert reduce(lambda a, b: craig._poly_mul(a, b, p), (f for f, _ in blocks)) == chi
            for f, basis in blocks:
                assert is_irreducible(f, p), (f, p)
                assert any(basis[0]) and len(basis) == len(f) - 1
                fb = poly_at_matrix(f, words[k - 1], p)
                for vec, nxt in zip(basis, basis[1:]):
                    assert [sum(map(mul, row, vec)) % p for row in words[k - 1]] == nxt
                for vec in basis:
                    assert [sum(map(mul, row, vec)) % p for row in fb] == [0] * n, (action, p, f)
            assert len(craig._echelon([v for _, basis in blocks for v in basis], p)) == n
            outcomes["kernels"] += len(blocks)
        assert min(outcomes.values()) > 0, outcomes

    def test_identity_generators_have_no_semisimple_word(self):
        # The raise is not cached: a second call raises again.
        n, p = 3, 2
        gens = RepGenerators(n, (IntMatrix.identity(n),) * n)
        lat = craig_lattice(n, 1).basis
        for _ in range(2):
            with pytest.raises(ValueError, match="no-semisimple-word"):
                maximal_sublattices_p(lat, gens, p)

    def test_subspace_lattice_interval_from_the_exhaustive_oracle(self):
        # Identity generators, through the oracle's generic layer (the word
        # path rejects them): every subspace of F_p^3 is a submodule, the
        # radical is pL, and the Moebius value at codimension k is
        # (-1)^k p^(k(k-1)/2).  At p = 3 there are 13 maximal submodules.
        n = 3
        gens = RepGenerators(n, (IntMatrix.identity(n),) * n)
        lat = craig_lattice(n, 1).basis
        for p, size in ((2, 16), (3, 28)):
            maximal, radical, moebius = exhaustive_layer(dense_residue_action(lat, gens, p), p, n)
            assert craig._lift_subspace(lat, radical, p) == lat.scale(p)
            codims = [n - len(key) for key in moebius]
            lines = p * p + p + 1
            assert len(maximal) == lines and len(moebius) == size
            assert sorted(codims) == [0] + [1] * lines + [2] * lines + [3]
            for key, k in zip(moebius, codims):
                assert moebius[key] == (-1) ** k * p ** (k * (k - 1) // 2)

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

    def test_radical_interval_is_bounded(self):
        # diag(1..6) is semisimple mod 7 with six eigenlines, each its own top
        # class: the estimate 6^3 (6 + 7) = 2808 passes a bound of 5000, and
        # n^3 2^t with t = 6 top classes (13824 > 5000) trips.
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
        craig._action_layer.cache_clear()
        graphs = []
        real = craig._block_reach

        def counted(*args):
            graphs.append(args)
            return real(*args)

        monkeypatch.setattr(craig, "_block_reach", counted)
        members = phi_p(lat, gens, p)
        assert len(graphs) == 1
        graphs.clear()
        assert len(maximal_sublattices_p(lat, gens, p)) == 2
        assert rad_p(lat, gens, p) == scaled(n, p, 1, 1)
        assert verify._interval_classes(lat, gens, p, DEFAULT_BOUNDS)[p**2] == [scaled(n, p, 0, 2)]
        assert sorted(mu_p(lat, gens, p, member) for member in members) == [-1, -1, 1, 1]
        assert graphs == []

    def test_scaled_lattice_shares_the_layer(self, monkeypatch):
        # p L(p^i) has the action of L(p^i) in its own basis, so its maximal
        # sublattices are p times those of L(p^i), read off the same layer.
        n, p = 7, 2
        lat, gens = craig_lattice(n, 2).basis, craig_generators(n)
        craig._action_layer.cache_clear()
        graphs = []
        real = craig._block_reach

        def counted(*args):
            graphs.append(args)
            return real(*args)

        monkeypatch.setattr(craig, "_block_reach", counted)
        maximal = maximal_sublattices_p(lat, gens, p)
        scaled_maximal = maximal_sublattices_p(lat.scale(p), gens, p)
        assert len(graphs) == 1
        assert sorted(m.key() for m in scaled_maximal) == sorted(
            m.scale(p).key() for m in maximal
        )

    def test_walk_builds_one_layer_per_reduced_action(self, monkeypatch):
        # The walk on L(1) at n = 8, p = 3 meets eight lattices p^a L(3^b) with
        # an exponent left to walk, but only three primitive ones: L(1), L(3)
        # and L(9).  Each is conjugated and reduced mod 3 once, and its
        # maximal keys are lifted once: L(1) to L(3), L(3) to L(9) and 3 L(1),
        # L(9) to 3 L(3).  The memo-free walk is the oracle.
        lat, gens = craig_lattice(8, 1).basis, craig_generators(8)
        craig._action_layer.cache_clear()
        craig._conjugated_action.cache_clear()
        lifts = []
        real = craig.hnf

        def counted(m):
            lifts.append(m)
            return real(m)

        monkeypatch.setattr(craig, "hnf", counted)
        found = enumerate_p_sublattices(lat, gens, 3, 24)
        assert craig._action_layer.cache_info().misses == 3
        assert craig._conjugated_action.cache_info().misses == 3
        assert len(lifts) == 4
        monkeypatch.setattr(craig, "_action_layer", craig._action_layer.__wrapped__)
        assert enumerate_p_sublattices(lat, gens, 3, 24) == found == plain_walk(lat, gens, 3, 24)

    @pytest.mark.parametrize("c, d", [(3, 3), (2, 1)])
    def test_walk_from_a_scaled_start_is_scaled(self, c, d):
        # Scaling by c maps the sublattices of M onto those of c M: from
        # 3 L(3), whose content is a power of p, and from 2 L(1), whose content
        # is not, the walk is c times the walk from L(d), as the memo-free
        # walk finds it.
        n, p, max_exp = 8, 3, 24
        lat, gens = craig_lattice(n, d).basis, craig_generators(n)
        found = enumerate_p_sublattices(lat.scale(c), gens, p, max_exp)
        assert found == {e: [x.scale(c) for x in lats]
                         for e, lats in enumerate_p_sublattices(lat, gens, p, max_exp).items()}
        assert found == plain_walk(lat.scale(c), gens, p, max_exp)

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


class TestConjugatedAction:
    @staticmethod
    def compare(lat, gens):
        """The sparse conjugation, densified as cI plus its terms, equals
        `action_in_basis`, or both reject; `is_g_stable` agrees."""
        dense = [action_in_basis(lat, m) for m in gens.mats]
        assert is_g_stable(lat, gens) == (None not in dense)
        if None in dense:
            with pytest.raises(LatticeError):
                craig._conjugated_action.__wrapped__(lat, gens)
            return False
        form = craig._conjugated_action.__wrapped__(lat, gens)
        assert_shifted_form([a.entries for a in dense], form, gens=gens)
        return True

    def test_matches_action_in_basis(self):
        # Every L(d) with n = 2..10 under the standard and the Specht action,
        # and seeded integer actions on Z^n, on Z^n itself, on the stable
        # sublattices of index 4 and on a random triangular lattice.
        outcomes = []
        for n in range(2, 11):
            for d in divisors(n + 1):
                for gens in (craig_generators(n), specht_generators_closed(n)):
                    outcomes.append(self.compare(craig_lattice(n, d).basis, gens))
        rng = random.Random(19)
        for _ in range(3):
            for n in (2, 3, 4):
                for gens in integer_families(rng, n):
                    lat = LatticeBasis(IntMatrix.identity(n))
                    lats = [lat] + enumerate_index_sublattices(lat, gens, 4)
                    lats.append(LatticeBasis(IntMatrix(
                        [[rng.randint(1, 3) if i == j else rng.randint(-3, 3) * (j < i)
                          for j in range(n)] for i in range(n)]
                    )))
                    outcomes += [self.compare(x, gens) for x in lats]
        assert outcomes.count(True) > 100 and outcomes.count(False) > 20

    def test_dimension_mismatch_raises(self):
        for lat, gens in ((craig_lattice(3, 1).basis, craig_generators(4)),
                          (craig_lattice(4, 5).basis, specht_generators_closed(3))):
            with pytest.raises(LatticeError, match="dimension mismatch"):
                is_g_stable(lat, gens)

    def test_unstable_lattice_raises_uncached(self):
        n, gens = 4, craig_generators(4)
        for _ in range(2):
            with pytest.raises(LatticeError, match="not stable"):
                craig._conjugated_action(craig_lattice(n, 2).basis, gens)
        lat = craig_lattice(n, 5).basis
        want = [action_in_basis(lat, m).entries for m in gens.mats]
        assert_shifted_form(want, craig._conjugated_action(lat, gens), gens=gens)

    # The generator's own commonest diagonal entry c is kept through the
    # conjugation; on these generators the conjugated matrix's first commonest
    # diagonal entry is another value.
    @pytest.mark.parametrize("family, n, d, k, c", [
        (craig_generators, 2, 3, 0, 1),
        (specht_generators_closed, 2, 3, 1, 0),
        (craig_generators, 3, 4, 0, -1),
    ])
    def test_scalar_is_the_generators_commonest_diagonal_entry(self, family, n, d, k, c):
        gens, lat = family(n), craig_lattice(n, d).basis
        assert self.compare(lat, gens)
        assert craig._conjugated_action(lat, gens)[k][0] == c
        rows = action_in_basis(lat, gens.mats[k]).entries
        diag = [rows[i][i] for i in range(n)]
        assert max(diag, key=diag.count) != c


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
            lambda: mu_p(lat, gens, 4, lat),
            lambda: enumerate_p_sublattices(lat, gens, 4, 0),
            lambda: classify_sublattice(lat, 4),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="prime"):
                call()


class TestRadical:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 26])
    def test_closed_form(self, n):
        check = verify.check_radical((n,))
        assert check.passed, check.detail


class TestRadicalInterval:
    @pytest.mark.parametrize("n", [2, 3, 7, 26])
    def test_contents(self, n):
        check = verify.check_radical_interval((n,))
        assert check.passed, check.detail

    def test_class_filter_examples(self):
        gens = craig_generators(3)
        l1 = verify._interval_classes(craig_lattice(3, 1).basis, gens, 2, DEFAULT_BOUNDS)
        assert l1.get(2) == [scaled(3, 2, 0, 1)]
        assert l1.get(4, []) == []
        l2 = verify._interval_classes(craig_lattice(3, 2).basis, gens, 2, DEFAULT_BOUNDS)
        assert set(l2[2]) == {scaled(3, 2, 0, 1), scaled(3, 2, 1, 1)}


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

    def test_the_check_names_a_wrong_level_and_an_unclassified_lattice(self, monkeypatch):
        # At n = 2, p = 3 the walk finds L(1) at level 0 and L(3) at level 1.
        real = craig.enumerate_p_sublattices

        def relabelled(*args):
            return {e + 1: lats for e, lats in real(*args).items()}

        def foreign(*args):
            return {**real(*args), 1: [LatticeBasis(IntMatrix([[1, 0], [0, 3]]))]}

        monkeypatch.setattr(craig, "enumerate_p_sublattices", relabelled)
        check = verify.check_p_power_classification((2,), 3)
        assert not check.passed and "(2, 3, 1, (0, 0))" in check.detail
        monkeypatch.setattr(craig, "enumerate_p_sublattices", foreign)
        check = verify.check_p_power_classification((2,), 3)
        assert not check.passed and "(2, 3, 1, 'unclassified')" in check.detail


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
        assert classify_sublattice(craig_lattice(2, 1).basis.scale(3), 3) == (1, 0)
        assert classify_sublattice(craig_lattice(2, 3).basis, 3) == (0, 1)
        assert classify_sublattice(craig_lattice(3, 2).basis.scale(2), 2) == (1, 1)

    def test_unclassifiable_rejected(self):
        # an unstable sublattice of 2-power index does not match the family
        with pytest.raises(LatticeError):
            classify_sublattice(LatticeBasis(IntMatrix([[2, 0], [0, 1]])), 2)

    def test_scale_not_a_power_of_p_rejected(self):
        # 3 L(2) is a stable family member, but 3 is not a power of 2
        with pytest.raises(LatticeError):
            classify_sublattice(craig_lattice(3, 2).basis.scale(3), 2)


class TestIdentifyStableLattice:
    @staticmethod
    def divisor_loop(lattice):
        """The oracle: compare the lattice with every L(d), d | n+1, by a
        cross-multiplied proportionality test of the two normal forms (scaling
        by a positive rational scales a normal form entrywise)."""
        n = lattice.dim
        b = lattice.hnf.entries
        for d in divisors(n + 1):
            a = craig_lattice(n, d).basis.hnf.entries
            if all(xa * b[0][0] == xb * a[0][0]
                   for ra, rb in zip(a, b) for xa, xb in zip(ra, rb)):
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
        # Every d | n + 1: L(d) and L(d') that agree at p share one walked p-layer.
        grid = {
            2: (2, 3, 4, 6, 9, 12, 16, 18, 24, 27, 36),
            3: (2, 4, 6, 8, 12, 16, 24, 27),
            4: (2, 4, 5, 8, 16, 25),
            5: (2, 3, 4, 6),
        }
        for n, ms in grid.items():
            gens = craig_generators(n)
            for d in divisors(n + 1):
                lat = craig_lattice(n, d).basis
                for m in ms:
                    fast = enumerate_index_sublattices(lat, gens, m)
                    slow = enumerate_index_sublattices_naive(lat, gens, m)
                    assert fast == slow, (n, d, m)
                    assert assert_within_constraints(lat, gens, slow)

    def test_matches_naive_census_under_integer_actions(self):
        # Z^n is stable under every integer matrix, so any family has a census.
        # The naive census of Z^4 passes a second at m = 16, so n = 4 stops at 8.
        # Some of these families derive census shape constraints, some none.
        families = []
        for seed in range(12, 16):
            rng = random.Random(seed)
            families += [gens for n in (2, 3) for gens in integer_families(rng, n)]
        families += [transposed(gens) for gens in families if is_upper_triangular(gens)]
        families += [specht_generators_closed(n) for n in (2, 3, 4)]
        families.append(RepGenerators(1, (IntMatrix([[-1]]),)))
        found, sides = 0, set()
        for gens in families:
            lat = LatticeBasis(IntMatrix.identity(gens.n))
            action = tuple(a.entries for a in gens.mats)
            assert_shifted_form(action, craig._shifted_terms(action))
            for m in range(1, 17 if gens.n < 4 else 9):
                fast = enumerate_index_sublattices(lat, gens, m)
                slow = enumerate_index_sublattices_naive(lat, gens, m)
                assert fast == slow, (gens, m)
                if gens.n == 1:
                    assert fast == [LatticeBasis(IntMatrix([[m]]))]
                sides.add(assert_within_constraints(lat, gens, slow))
                found += len(fast)
        assert found > 100
        assert sides == {True, False}

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
                slow = enumerate_index_sublattices_naive(lat, gens, m)
                assert fast == slow, (gens, m)
                assert_within_constraints(lat, gens, slow)

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
        craig._conjugated_action.cache_clear()
        enumerate_index_sublattices(lat, gens, 2)
        calls = []
        real = craig.solve_triangular

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(craig, "solve_triangular", counted)
        enumerate_index_sublattices(lat, gens, 3)
        assert calls == []

    def test_repeated_query_solves_nothing(self, monkeypatch):
        lat = craig_lattice(3, 1).basis
        first = enumerate_index_sublattices(lat, craig_generators(3), 216)
        calls = []
        real = craig.solve_triangular

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(craig, "solve_triangular", counted)
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
                assert dense_is_stable(sub, gens)

    def test_index_bound(self):
        lat = craig_lattice(2, 1).basis
        with pytest.raises(ScaleError, match="enumeration-scale-exceeded"):
            enumerate_index_sublattices(lat, craig_generators(2), 501)

    def test_unstable_base_rejected(self):
        lat = craig_lattice(2, 2).basis
        with pytest.raises(LatticeError):
            enumerate_index_sublattices(lat, craig_generators(2), 3)

    def test_unstable_base_rejected_when_its_local_lattice_is_stable(self):
        # L(3) is unstable at n = 3; its 2-local lattice L(3) + Z^3 is Z^3 = L(1),
        # whose 2-layer is already memoized here.
        gens = craig_generators(3)
        assert enumerate_index_sublattices(craig_lattice(3, 1).basis, gens, 2) == []
        with pytest.raises(LatticeError):
            enumerate_index_sublattices(craig_lattice(3, 3).basis, gens, 2)

    def test_each_p_local_lattice_is_walked_once(self, monkeypatch):
        # At n = 5, L(d) agrees with L(gcd(d, p^v)) at p: the 2-layers of L(3)
        # and L(6) are those of L(1) and L(2), and the 3-layers of L(2) and
        # L(6) those of L(1) and L(3).  Every other prime sees only L(1) = Z^5.
        n, gens = 5, craig_generators(5)
        lattices = {d: craig_lattice(n, d).basis for d in divisors(n + 1)}
        craig._census_layer.cache_clear()
        walked = []
        real = craig._census_walk

        def counted(lattice, gens, p, k):
            walked.append((lattice, p, k))
            return real(lattice, gens, p, k)

        monkeypatch.setattr(craig, "_census_walk", counted)
        for lat in lattices.values():
            for m in range(1, 65):
                enumerate_index_sublattices(lat, gens, m)
        assert len(walked) == len(set(walked))
        name = {lat: d for d, lat in lattices.items()}
        on = {}
        for lat, p, _ in walked:
            on.setdefault(p, set()).add(name[lat])
        assert on.pop(2) == {1, 2}
        assert on.pop(3) == {1, 3}
        assert on and all(ds == {1} for ds in on.values())

    def test_census_grid_walks_397_of_2024_shapes(self, monkeypatch):
        # The benchmark's census grid walks 166 layers.  Of their 2024 diagonal
        # shapes, the difference constraints leave 397; dropping them, or
        # weakening or misreading one, changes this count.
        craig._census_layer.cache_clear()
        layers, walked = [], []
        real = craig._compositions

        def counted(total, n, bound):
            layers.append(comb(total + n - 1, n - 1))
            for shape in real(total, n, bound):
                walked.append(shape)
                yield shape

        monkeypatch.setattr(craig, "_compositions", counted)
        for n, limit in ((3, 500), (5, 64)):
            gens = craig_generators(n)
            for d in divisors(n + 1):
                lat = craig_lattice(n, d).basis
                for m in range(1, limit + 1):
                    enumerate_index_sublattices(lat, gens, m)
        assert (len(layers), sum(layers), len(walked)) == (166, 2024, 397)
