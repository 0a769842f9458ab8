"""Integral realizations of the n-dimensional hook module of S_{n+1}.

Two coordinate systems are constructed for the same module:

* the classical "standard" coordinates, where the adjacent transposition
  (k k+1) acts by E^{k,k-1} + 2 E^{k,k} + E^{k,k+1} - I, and
* the Specht-basis coordinates, indexed by the n standard Young tableaux of
  shape (2, 1^(n-1)).

The Specht action is available twice: a brute-force oracle that expands
polytabloids into signed tabloid sums and solves exactly, and a closed
combinatorial rule that must agree with the oracle before being trusted at
sizes the oracle cannot reach.  A Schur intertwiner between the two
realizations locates the Specht lattice among the stable lattices of the
standard coordinates.  The intertwiner has a closed form
(`closed_intertwiner`), whose defining equations are checked exactly on every
call; the exact Fraction solve (`intertwiner`) stays as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import NamedTuple

from . import craig
from .arith import content
from .bounds import DEFAULT_BOUNDS, Bounds, ScaleError
from .exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    matrix_to_json,
)


@dataclass(frozen=True)
class RepGenerators:
    """Action matrices of the adjacent transpositions s_1 .. s_n.

    mats[k-1] is the matrix of s_k = (k k+1) on the n-dimensional module.
    """

    n: int
    mats: tuple[IntMatrix, ...]

    def __post_init__(self):
        if len(self.mats) != self.n:
            raise ValueError("need exactly n generator matrices")
        for m in self.mats:
            if m.rows != self.n or m.cols != self.n:
                raise ValueError("generator matrices must be n x n")


def craig_generators(n: int) -> RepGenerators:
    """Standard-coordinate action: s_k = E^{k,k-1} + 2 E^{k,k} + E^{k,k+1} - I.

    Out-of-range E^{i,j} are zero.  The identity subtracted is the full n x n
    identity; anything else would break the involution property, which is
    checked by the test suite.
    """
    if n < 2:
        raise ValueError("module dimension must be at least 2")
    mats = []
    for k in range(1, n + 1):
        rows = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
        for j, c in ((k - 1, 1), (k, 2), (k + 1, 1)):
            if 1 <= j <= n:
                rows[k - 1][j - 1] += c
        mats.append(IntMatrix(rows))
    return RepGenerators(n, tuple(mats))


def verify_coxeter(gens: RepGenerators) -> bool:
    """Exact check of the S_{n+1} presentation on the given matrices.

    Involutions, the braid relation for adjacent generators, and commutation
    for distant ones.
    """
    n = gens.n
    ident = IntMatrix.identity(n)
    mats = gens.mats
    for m in mats:
        if m * m != ident:
            return False
    for k in range(n - 1):
        prod = mats[k] * mats[k + 1]
        if prod * prod * prod != ident:
            return False
    for k in range(n):
        for l in range(k + 2, n):
            if mats[k] * mats[l] != mats[l] * mats[k]:
                return False
    return True


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


def _make_tabloid(a: int, b: int, singles) -> Tabloid:
    pair = (a, b) if a < b else (b, a)
    return Tabloid(pair, tuple(singles))


def _apply_adjacent(tab: Tabloid, k: int) -> Tabloid:
    """Relabel a tabloid by the transposition (k k+1)."""

    def sw(v: int) -> int:
        if v == k:
            return k + 1
        if v == k + 1:
            return k
        return v

    a, b = tab.row_pair
    return _make_tabloid(sw(a), sw(b), (sw(v) for v in tab.singles))


def _perm_sign(seq: tuple[int, ...]) -> int:
    """Sign of the permutation sending sorted(seq) to seq."""
    rank = {v: i for i, v in enumerate(sorted(seq))}
    idx = [rank[v] for v in seq]
    inv = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx)) if idx[i] > idx[j])
    return -1 if inv % 2 else 1


def polytabloid(tableau: HookTableau, bounds: Bounds = DEFAULT_BOUNDS) -> dict[Tabloid, int]:
    """Signed tabloid expansion over the column stabilizer of the tableau.

    The column group permutes the n first-column entries, so the expansion has
    exactly n! terms with coefficients +-1.
    """
    n = tableau.n
    if n > bounds.polytabloid_max_n:
        raise ScaleError("oracle-scale-exceeded: polytabloid expansion needs n! terms")
    col = tableau.first_column
    t = tableau.t
    out: dict[Tabloid, int] = {}
    for image in permutations(col):
        sign = _perm_sign(image)
        out[_make_tabloid(image[0], t, image[1:])] = sign
    return out


def _identity_tabloid(n: int, u: int) -> Tabloid:
    """The tabloid of the untouched tableau T_u; it pins down e_{T_u}'s coefficient."""
    singles = tuple(v for v in range(2, n + 2) if v != u)
    return _make_tabloid(1, u, singles)


def specht_generators_oracle(n: int, bounds: Bounds = DEFAULT_BOUNDS) -> RepGenerators:
    """Specht-basis action computed from first principles.

    Applies each transposition to the full tabloid expansion of every basis
    polytabloid, reads off the basis coefficients (each e_{T_u} is the unique
    basis vector supported on the identity tabloid of T_u), and verifies the
    claimed combination reproduces the permuted expansion exactly.
    """
    if n < 2:
        raise ValueError("module dimension must be at least 2")
    expansions = {u: polytabloid(HookTableau(n, u), bounds) for u in range(2, n + 2)}
    anchors = {u: _identity_tabloid(n, u) for u in range(2, n + 2)}
    mats = []
    for k in range(1, n + 1):
        columns = []
        for t in range(2, n + 2):
            moved: dict[Tabloid, int] = {}
            for tab, c in expansions[t].items():
                moved[_apply_adjacent(tab, k)] = c
            coeffs = [moved.get(anchors[u], 0) for u in range(2, n + 2)]
            # exact consistency check of the solved combination
            acc: dict[Tabloid, int] = {}
            for x, u in zip(coeffs, range(2, n + 2)):
                if x == 0:
                    continue
                for tab, c in expansions[u].items():
                    val = acc.get(tab, 0) + x * c
                    if val:
                        acc[tab] = val
                    elif tab in acc:
                        del acc[tab]
            if acc != moved:
                raise LatticeError("polytabloid expansion is not a basis combination")
            columns.append(coeffs)
        mats.append(IntMatrix.from_columns(columns))
    return RepGenerators(n, tuple(mats))


def specht_generators_closed(n: int) -> RepGenerators:
    """Closed combinatorial rule for the Specht-basis action.

    s_k fixes the tableau shape: basis vectors with t outside {k, k+1} pick up
    a sign, s_k swaps e_{T_k} and e_{T_{k+1}} for k >= 2, and s_1 straightens
    the non-standard image of e_{T_2} into an alternating sum.  Trusted only
    because the test suite proves it equal to the oracle on every size the
    oracle can reach.
    """
    if n < 2:
        raise ValueError("module dimension must be at least 2")
    mats = []
    for k in range(1, n + 1):
        columns = []
        for t in range(2, n + 2):
            col = [0] * n
            if k == 1:
                if t == 2:
                    col[0] = 1
                    for u in range(3, n + 2):
                        col[u - 2] = (-1) ** u
                else:
                    col[t - 2] = -1
            elif t == k:
                col[k - 1] = 1
            elif t == k + 1:
                col[k - 2] = 1
            else:
                col[t - 2] = -1
            columns.append(col)
        mats.append(IntMatrix.from_columns(columns))
    return RepGenerators(n, tuple(mats))


def _nullspace_dim_one(rows: list[list[int]], width: int) -> list[Fraction]:
    """Solve a homogeneous integer system with one-dimensional solution space.

    Online integer row echelon (rows normalized by their gcd to keep entries
    small), then rational back-substitution with the unique free variable set
    to 1.  Raises LatticeError when the nullity is not exactly 1.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = list(row)
        for col in sorted(pivots):
            if row[col]:
                piv = pivots[col]
                a, b = piv[col], row[col]
                row = [a * x - b * y for x, y in zip(row, piv)]
        lead = next((j for j in range(width) if row[j]), None)
        if lead is None:
            continue
        g = content(row)
        if g > 1:
            row = [x // g for x in row]
        pivots[lead] = row
    if width - len(pivots) != 1:
        raise LatticeError("not-equivalent-or-not-irreducible")
    free = next(j for j in range(width) if j not in pivots)
    sol: list[Fraction] = [Fraction(0)] * width
    sol[free] = Fraction(1)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        s = sum((Fraction(row[j]) * sol[j] for j in range(col + 1, width)), Fraction(0))
        sol[col] = -s / row[col]
    return sol


def intertwiner(a: RepGenerators, b: RepGenerators) -> IntMatrix:
    """Primitive integer matrix P with b(s_k) P = P a(s_k) for every k.

    Unique up to sign when both actions are irreducible and equivalent; the
    returned matrix has entry gcd 1 and first nonzero entry positive.
    """
    if a.n != b.n:
        raise LatticeError("generator families have different dimensions")
    n = a.n
    rows = []
    for ak, bk in zip(a.mats, b.mats):
        for i in range(n):
            for j in range(n):
                # coefficient of P[r][c] in (b P - P a)[i][j]
                coeff = [0] * (n * n)
                for l in range(n):
                    coeff[l * n + j] += bk.entries[i][l]
                    coeff[i * n + l] -= ak.entries[l][j]
                rows.append(coeff)
    sol = _nullspace_dim_one(rows, n * n)
    den = 1
    for x in sol:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in sol]
    g = content(ints)
    if g > 1:
        ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    p = IntMatrix([ints[i * n : (i + 1) * n] for i in range(n)])
    _intertwines(a, b, p)
    return p


def _nonzeros(vec) -> list[tuple[int, int]]:
    return [(l, x) for l, x in enumerate(vec) if x]


def _combine(terms, vectors, n: int) -> list[int]:
    """The sum of x * vectors[l] over the (l, x) pairs in terms."""
    out = [0] * n
    for l, x in terms:
        out = [o + x * y for o, y in zip(out, vectors[l])]
    return out


def _intertwines(a: RepGenerators, b: RepGenerators, p: IntMatrix) -> None:
    """Check b(s_k) P = P a(s_k) exactly for every k; raise LatticeError otherwise.

    Both products are formed from the nonzero generator entries only: row i of
    b(s_k) P combines the rows of P where row i of b(s_k) is nonzero, and
    column j of P a(s_k) combines the columns of P where column j of a(s_k) is
    nonzero.  A standard s_k is -I plus one row of at most three nonzeros, and
    a closed Specht s_k has one nonzero per column apart from the dense first
    column of s_1, so each generator costs O(n^2) instead of the n^3 of a
    dense product.
    """
    n = a.n
    if b.n != n or (p.rows, p.cols) != (n, n):
        raise LatticeError("generator families and intertwiner have different dimensions")
    rows = p.entries
    cols = tuple(zip(*rows))
    for ak, bk in zip(a.mats, b.mats):
        left = [tuple(_combine(_nonzeros(r), rows, n)) for r in bk.entries]
        right = [_combine(_nonzeros(c), cols, n) for c in zip(*ak.entries)]
        if left != list(zip(*right)):
            raise LatticeError("intertwiner candidate fails its defining equations")


def closed_intertwiner(a: RepGenerators, b: RepGenerators) -> IntMatrix:
    """The intertwiner from the closed Specht action a to the standard action b.

    With 0-based i, j: P[i][j] = (-1)^(i+j) (i+1) for j >= i and
    P[i][j] = -(-1)^(i+j) (n-i) for j < i.  P[0][0] = 1, so P is primitive with
    a positive first entry: the matrix `intertwiner(a, b)` solves for, which
    stays as the test oracle.  The defining equations are checked exactly
    against the given families on every call.
    """
    n = a.n
    p = IntMatrix(
        tuple((-1) ** (i + j) * (i + 1 if j >= i else i - n) for j in range(n))
        for i in range(n)
    )
    _intertwines(a, b, p)
    return p


def identify_specht_lattice(a: RepGenerators, b: RepGenerators) -> tuple[IntMatrix, int]:
    """Locate the Specht lattice among the stable lattices of the standard coordinates.

    Maps the Specht basis lattice through the closed intertwiner P from the
    closed Specht family a to the standard family b, and returns P with the
    divisor d of n+1 whose lattice L(d) is a scalar multiple of the image.
    """
    p = closed_intertwiner(a, b)
    d = craig.identify_stable_lattice(LatticeBasis(p))
    if d is None:
        raise LatticeError("intertwined lattice matches no stable representative")
    return p, d


def generators_to_json(gens: RepGenerators) -> dict:
    return {"n": gens.n, "generators": [matrix_to_json(m) for m in gens.mats]}
