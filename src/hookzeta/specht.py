"""Integral realizations of the n-dimensional hook module of S_{n+1}.

Two coordinate systems are constructed for the same module:

* the classical "standard" coordinates, where the adjacent transposition
  (k k+1) acts by E^{k,k-1} + 2 E^{k,k} + E^{k,k+1} - I, and
* the Specht-basis coordinates, indexed by the n standard Young tableaux of
  shape (2, 1^(n-1)).

The Specht action is available twice: an oracle from first principles, on
polytabloids grouped by first-row pair (the test suite checks it against the
n!-term polytabloid expansion), and a closed combinatorial rule that must agree
with the oracle before being trusted at sizes the oracle is not run at.  A Schur
intertwiner between the two realizations locates the Specht lattice among the
stable lattices of the standard coordinates.  The intertwiner has a closed form
(`closed_intertwiner`), whose defining equations are checked exactly on every
call; the exact sparse solve over Q (`intertwiner`) stays as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import craig
from .arith import content
from .bounds import DEFAULT_BOUNDS, Bounds, ScaleError
from .exactmat import IntMatrix, LatticeBasis, LatticeError, _combine, _nonzeros


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


def specht_generators_oracle(n: int, bounds: Bounds = DEFAULT_BOUNDS) -> RepGenerators:
    """Specht-basis action computed from first principles.

    The polytabloid e_{T_t} has n! terms, one per ordering of its first column
    {1, ..., n+1} minus t.  Those with first-row pair {x, t} are all orderings
    of the other n - 1 entries, each signed by its permutation; so e_{T_t} is
    held as one signed term per pair, a bit mask of {x, t} with
    sign (-1)^(position of x in the first column).  s_k relabels the pair, and
    flips the sign exactly when k and k+1 are both singles (they are adjacent
    in every ordering's sort).  The coefficient of e_{T_u} is read off the pair
    {1, u}, since e_{T_u} is the unique basis vector supported on the identity
    tabloid of T_u, and the claimed combination must reproduce the moved
    vector exactly.  Distinct pairs have disjoint tabloid supports, so the map
    back to full expansions is injective and the check still decides.
    """
    if n < 2:
        raise ValueError("module dimension must be at least 2")
    if n > bounds.polytabloid_max_n:
        raise ScaleError("oracle-scale-exceeded: n is above the polytabloid oracle bound")
    labels = range(2, n + 2)
    grouped = {
        t: {
            1 << x | 1 << t: (-1) ** i
            for i, x in enumerate(x for x in range(1, n + 2) if x != t)
        }
        for t in labels
    }
    mats = []
    for k in range(1, n + 1):
        swap = 3 << k
        columns = []
        for t in labels:
            moved = {}
            for mask, c in grouped[t].items():
                hit = mask & swap
                if hit == swap:
                    moved[mask] = c
                elif hit:
                    moved[mask ^ swap] = c
                else:
                    moved[mask] = -c
            coeffs = [moved.get(1 << 1 | 1 << u, 0) for u in labels]
            # exact consistency check of the solved combination
            acc: dict[int, int] = {}
            for x, u in zip(coeffs, labels):
                if x:
                    for mask, c in grouped[u].items():
                        acc[mask] = acc.get(mask, 0) + x * c
            if {m: c for m, c in acc.items() if c} != moved:
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


def _subtract(row: dict, c, other: dict) -> None:
    """row -= c * other for sparse rows kept as dicts, in place."""
    for u, x in other.items():
        row[u] = row.get(u, 0) - c * x


def intertwiner(a: RepGenerators, b: RepGenerators) -> IntMatrix:
    """Primitive integer matrix P with b(s_k) P = P a(s_k) for every k.

    Unique up to sign when both actions are irreducible and equivalent; the
    returned matrix has entry gcd 1 and first nonzero entry positive.

    An exact sparse solve over Q.  Entry (i, j) of b(s_k) P - P a(s_k) is an
    equation in the unknowns P[r][c], numbered r n + c, read off the nonzeros
    of row i of b(s_k) and of column j of a(s_k).  Each equation is reduced
    into a reduced echelon basis kept as a dict from pivot to row: every row is
    1 at its pivot, the largest unknown it reads, and 0 at every other pivot.
    With exactly one unknown f left without a pivot, P[f] = 1 and each pivot
    unknown is minus its row's entry at f.
    """
    if a.n != b.n:
        raise LatticeError("generator families have different dimensions")
    n = a.n
    basis: dict[int, dict] = {}
    for ak, bk in zip(a.mats, b.mats):
        cols = [_nonzeros(c) for c in zip(*ak.entries)]
        for i, brow in enumerate(_nonzeros(r) for r in bk.entries):
            for j, acol in enumerate(cols):
                row = {l * n + j: x for l, x in brow}
                _subtract(row, 1, {i * n + l: x for l, x in acol})
                for piv in [u for u, x in row.items() if x and u in basis]:
                    _subtract(row, row[piv], basis[piv])
                row = {u: x for u, x in row.items() if x}
                if not row:
                    continue
                lead = max(row)
                # An int inverse keeps a row of ints integral: at n = 27 that
                # halves the solve against Fraction arithmetic throughout.
                inv = Fraction(1, row[lead])
                inv = inv.numerator if inv.denominator == 1 else inv
                row = {u: x * inv for u, x in row.items()}
                for other in basis.values():
                    if other.get(lead):
                        _subtract(other, other[lead], row)
                        del other[lead]
                basis[lead] = row
    if n * n - len(basis) != 1:
        raise LatticeError("not-equivalent-or-not-irreducible")
    free = next(u for u in range(n * n) if u not in basis)
    sol = [-basis[u].get(free, 0) if u in basis else 1 for u in range(n * n)]
    den = 1
    for x in sol:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [x.numerator * (den // x.denominator) for x in sol]
    # The first nonzero entry is positive: a row reads no unknown past its
    # pivot, so every unknown before the free one is 0, and P[free] = 1.
    g = content(ints)
    p = IntMatrix([[x // g for x in ints[i * n : (i + 1) * n]] for i in range(n)])
    _intertwines(a, b, p)
    return p


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
