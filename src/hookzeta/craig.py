"""The family of stable lattices of the hook module and its sublattice structure.

For every divisor d of n+1 there is a stable lattice L(d) inside the
n-dimensional hook module, given by an explicit triangular basis.  Every
stable sublattice whose index is a power of a prime p is a scaled member
p^a L(p^b) of the same family, and inclusion, intersection and index between
scaled members have closed forms, as do the maximal stable sublattices, the
radical and the radical interval of each L(p^i).  This module materializes the
lattices, implements the closed forms, and provides two independent
enumeration routes:

* a breadth-first walk over maximal stable sublattices, driven by the
  submodule lattice of the residue module L/pL, which is read off from a few
  spins at kernels of one group-algebra word with squarefree characteristic
  polynomial, and
* an exhaustive census of all sublattices of a given index via canonical
  triangular bases, filtered by stability.

The two routes check each other; the census is the trusted brute-force oracle
for every closed formula in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from math import gcd
from types import MappingProxyType

from .arith import content, divisors, is_prime, prime_factorization, valuation
from .bounds import DEFAULT_BOUNDS, Bounds, ScaleError
from .exactmat import (
    IntMatrix,
    LatticeBasis,
    LatticeError,
    hnf,
    is_scalar_multiple,
    lattice_intersect,
    matrix_to_json,
    solve_in_lattice,
)

__all__ = [
    "CraigLattice",
    "ScaledCraigLattice",
    "craig_lattice",
    "scaled_lattice_basis",
    "scaled_inclusion",
    "scaled_intersect",
    "scaled_index",
    "scaled_maximal_sublattices",
    "scaled_radical",
    "scaled_radical_interval",
    "identify_stable_lattice",
    "is_g_stable",
    "action_in_basis",
    "maximal_sublattices_p",
    "rad_p",
    "phi_p",
    "phi_p_class",
    "mu_p",
    "enumerate_p_sublattices",
    "enumerate_index_sublattices",
    "classify_sublattice",
    "lattices_to_json",
]


@dataclass(frozen=True)
class CraigLattice:
    """The lattice L(d): diagonal (d, ..., d, 1) plus one alternating column."""

    n: int
    d: int
    basis: LatticeBasis


def _require_prime(p: int) -> None:
    """The shared guard of every entry point that takes a prime."""
    if not is_prime(p):
        raise ValueError(f"p must be a prime number, got {p}")


@dataclass(frozen=True)
class ScaledCraigLattice:
    """The classified form p^a L(p^b) of a stable sublattice of p-power index."""

    p: int
    a: int
    b: int

    def __post_init__(self):
        _require_prime(self.p)
        if self.a < 0 or self.b < 0:
            raise ValueError("exponents must be nonnegative")


def craig_lattice(n: int, d: int) -> CraigLattice:
    """Construct L(d) for any d >= 1; stability under the action is a separate check."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    rows = []
    for i in range(n - 1):
        row = [0] * n
        row[i] = d
        row[n - 1] = (-1) ** (n - i) * (i + 1)
        rows.append(row)
    rows.append([0] * (n - 1) + [1])
    return CraigLattice(n, d, LatticeBasis(IntMatrix(rows)))


def scaled_lattice_basis(n: int, scaled: ScaledCraigLattice) -> LatticeBasis:
    """Realize p^a L(p^b) as a concrete lattice."""
    base = craig_lattice(n, scaled.p**scaled.b).basis
    return base.scale(scaled.p**scaled.a)


def scaled_inclusion(x: ScaledCraigLattice, y: ScaledCraigLattice) -> bool:
    """Closed form for p^a L(p^b) being contained in p^a' L(p^b')."""
    if x.p != y.p:
        raise ValueError("scaled lattices must share the prime")
    return x.a >= y.a and x.a + x.b >= y.a + y.b


def scaled_intersect(x: ScaledCraigLattice, y: ScaledCraigLattice) -> ScaledCraigLattice:
    """Closed form for the intersection of two scaled lattices."""
    if x.p != y.p:
        raise ValueError("scaled lattices must share the prime")
    a = max(x.a, y.a)
    return ScaledCraigLattice(x.p, a, max(x.a + x.b, y.a + y.b) - a)


def scaled_index(n: int, sup: ScaledCraigLattice, sub: ScaledCraigLattice) -> int:
    """Exponent e with [sup : sub] = p^e, from the closed index formula."""
    if not scaled_inclusion(sub, sup):
        raise LatticeError("not-sublattice")
    return (sub.a - sup.a) * n + (sub.b - sup.b) * (n - 1)


def scaled_maximal_sublattices(n: int, p: int, i: int) -> list[ScaledCraigLattice]:
    """The maximal stable sublattices of L(p^i) above p L(p^i), in closed form.

    With v = v_p(n+1): L(1) has the single maximal sublattice L(p), L(p^v) has
    the single maximal sublattice p L(p^(v-1)), and every L(p^i) in between
    has exactly the two L(p^(i+1)) and p L(p^(i-1)).
    """
    _require_prime(p)
    v = valuation(n + 1, p)
    if v == 0 or not 0 <= i <= v:
        raise ValueError(f"need p | n + 1 and 0 <= i <= v_p(n + 1), got n={n}, p={p}, i={i}")
    if i == 0:
        return [ScaledCraigLattice(p, 0, 1)]
    if i == v:
        return [ScaledCraigLattice(p, 1, i - 1)]
    return [ScaledCraigLattice(p, 0, i + 1), ScaledCraigLattice(p, 1, i - 1)]


def scaled_radical(n: int, p: int, i: int) -> ScaledCraigLattice:
    """The radical of L(p^i): the intersection of its maximal stable sublattices."""
    return reduce(scaled_intersect, scaled_maximal_sublattices(n, p, i))


def scaled_radical_interval(n: int, p: int, i: int) -> list[ScaledCraigLattice]:
    """The stable lattices between the radical of L(p^i) and L(p^i) itself.

    Every such lattice is a family member p^a L(p^b) with a <= 1 and
    b <= v_p(n+1), so the interval is read off the inclusion closed form.
    """
    radical = scaled_radical(n, p, i)
    top = ScaledCraigLattice(p, 0, i)
    return [
        x
        for x in (
            ScaledCraigLattice(p, a, b) for a in range(2) for b in range(valuation(n + 1, p) + 1)
        )
        if scaled_inclusion(radical, x) and scaled_inclusion(x, top)
    ]


def identify_stable_lattice(lattice: LatticeBasis) -> int | None:
    """The divisor d of n+1 with the lattice a scalar multiple of L(d), or None.

    L(d) contains e_n, so its content is 1 and its determinant d^(n-1).  A
    lattice c L(d) therefore has content c and determinant c^n d^(n-1), which
    names the one candidate d; comparing normal forms confirms it.
    """
    n = lattice.dim
    c = content(x for row in lattice.hnf.entries for x in row)
    q = lattice.determinant() // c**n
    d = next((d for d in divisors(n + 1) if d ** (n - 1) == q), None)
    if d is None or is_scalar_multiple(craig_lattice(n, d).basis, lattice) is None:
        return None
    return d


def action_in_basis(lattice: LatticeBasis, mat: IntMatrix) -> IntMatrix | None:
    """The matrix of `mat` written in the lattice's basis, or None if the
    lattice is not invariant."""
    return solve_in_lattice(lattice.hnf, mat * lattice.hnf)


def is_g_stable(lattice: LatticeBasis, gens) -> bool:
    """True when every generator maps the lattice into itself."""
    if gens.n != lattice.dim:
        raise LatticeError("dimension mismatch")
    return all(action_in_basis(lattice, m) is not None for m in gens.mats)


# Entries each memo keeps; the benchmark's census grid walks 450 distinct census
# layers, and `verify --n-max 6` reads 56 distinct residue layers.
_LAYER_CACHE_SIZE = 1024


@lru_cache(maxsize=_LAYER_CACHE_SIZE)
def _conjugated_action_rows(lattice: LatticeBasis, gens) -> tuple:
    """The generators written in the lattice's basis, as row tuples.

    Memoized per (lattice, generators): every census and residue layer of a
    lattice reads the same rows.  An unstable lattice raises LatticeError,
    which is never cached.
    """
    rows = []
    for m in gens.mats:
        a = action_in_basis(lattice, m)
        if a is None:
            raise LatticeError("lattice is not stable under the given action")
        rows.append(a.entries)
    return tuple(rows)


def _shifted_terms(action) -> tuple:
    """Each generator A as the nonzero rows (row, ((col, coeff), ...)) of A - cI.

    c is A's commonest diagonal entry, -1 for most transpositions (-I plus rank
    one).  cI maps every lattice and F_p subspace into itself, so A and A - cI
    have the same invariant ones.  Kept terms of a reduced action are nonzero mod p.
    """
    shifted = []
    for rows in action:
        diag = [row[i] for i, row in enumerate(rows)]
        c = max(diag, key=diag.count)
        terms = []
        for i, row in enumerate(rows):
            kept = tuple((j, x - c * (i == j)) for j, x in enumerate(row) if x != c * (i == j))
            if kept:
                terms.append((i, kept))
        shifted.append(tuple(terms))
    return tuple(shifted)


# ---------------------------------------------------------------------------
# Submodules of the residue module L/pL by spinning.
#
# A subspace is canonicalized as the tuple of rows of its reduced row echelon
# basis over F_p (`_echelon`): the join of two subspaces is the echelon form of
# their rows together, and `small` lies in `big` exactly when adding its rows
# leaves `big` unchanged.  Spinning closes a single vector under the generator
# action; every submodule is a join of such cyclic submodules, so closing a
# family of cyclic submodules that contains a generating set of every
# submodule under sums enumerates the full submodule lattice.
#
# A group-algebra word B whose characteristic polynomial chi is squarefree
# needs only one spin per irreducible factor f of chi: F_p^n is the direct sum
# of the B-irreducible kernels ker f(B), so every submodule is the direct sum
# of the kernels it contains, and hence the join of the spins of one nonzero
# vector from each of them (the MeatAxe idea of Parker, "The computer
# calculation of modular characters", 1984).  The words tried are the prefix
# products A_1 ... A_k of the generators; for the transpositions s_1, ..., s_n
# of the hook module, s_1 ... s_(n-1) is an n-cycle with chi = x^n - 1 and
# s_1 ... s_n is an (n+1)-cycle with chi = 1 + x + ... + x^n, and no prime
# divides both n and n+1, so one of them is squarefree mod every p; a family
# with no squarefree prefix raises "no-semisimple-word".  The bound
# `spinning_max_order` prices this path as n^3 (n + p): up to n dense prefix
# products, characteristic polynomials and Horner kernels at O(n^3) each, and
# Berlekamp's loops over range(p) at O(n^3 p).  The join closure adds n^3 per
# submodule (up to 2^r of them for r constituents) and stops at the same bound.
# The stable lattices between pL and L are the lifts of submodules, and
# lifting preserves inclusion and intersection, so every entry point reads one
# memoized layer of F_p keys, `_residue_layer`, and lifts only what it needs.
# The words are dense, but spins apply each generator A as the sparse A - cI
# of `_shifted_terms`.
# ---------------------------------------------------------------------------


def _rref_insert(basis: list[tuple[int, list[int]]], vec: list[int], p: int) -> bool:
    """Reduce vec against an echelon basis, inserting the residue if nonzero.

    basis holds (pivot_position, row) pairs with unit pivots, kept reduced.
    Returns True when the basis grew.
    """
    v = vec[:]
    for pos, row in basis:
        c = v[pos]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, row)]
    lead = next((i for i, x in enumerate(v) if x), None)
    if lead is None:
        return False
    inv = pow(v[lead], p - 2, p) if p > 2 else v[lead]
    v = [(x * inv) % p for x in v]
    for pos, row in basis:
        c = row[lead]
        if c:
            row[:] = [(x - c * y) % p for x, y in zip(row, v)]
    basis.append((lead, v))
    basis.sort(key=lambda t: t[0])
    return True


def _echelon(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """The canonical key of the span of rows over F_p: its reduced echelon basis."""
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        _rref_insert(basis, list(row), p)
    return tuple(tuple(row) for _, row in basis)


def _spin(vec, shifted, p: int, n: int):
    """Smallest action-invariant subspace containing vec, as a canonical key.

    `shifted` is the action mod p in the form of `_shifted_terms`.
    Worklist closure: every vector ever inserted is pushed once and its
    generator images are reduced against the growing basis.  The inserted
    vectors span the subspace, so checking their images suffices.  Returns
    None as an early exit when the spin fills the whole space.
    """
    basis: list[tuple[int, list[int]]] = []
    _rref_insert(basis, list(vec), p)
    queue = [list(vec)]
    while queue:
        w = queue.pop()
        for terms in shifted:
            img = [0] * n
            for r, row in terms:
                s = 0
                for j, x in row:
                    s += x * w[j]
                img[r] = s % p
            if _rref_insert(basis, img, p):
                if len(basis) == n:
                    return None
                queue.append(img)
    return tuple(tuple(row) for _, row in basis)


def _submodules_from_spins(vectors, action, p: int, n: int, bounds: Bounds):
    """Spin each vector and close the cyclic submodules under joins.

    Returns every submodule when each submodule is a join of spins of the
    given vectors, as canonical echelon keys, together with the key of the
    whole space.  Raises ScaleError once n^3 times their number passes the bound.
    """
    full = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    shifted = _shifted_terms(action)
    cyclic = set()
    for vec in vectors:
        key = _spin(vec, shifted, p, n)
        cyclic.add(full if key is None else key)
    subs = set(cyclic)
    subs.add(())
    subs.add(full)
    frontier = list(subs)
    while frontier:
        new = []
        for a in frontier:
            for b in cyclic:
                j = _echelon(a + b, p)
                if j not in subs:
                    subs.add(j)
                    new.append(j)
                    if n**3 * len(subs) > bounds.spinning_max_order:
                        raise ScaleError("spinning-scale-exceeded: too many submodules")
        frontier = new
    return subs, full


def _mat_mul_mod(a, b, p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def _nullspace_mod(rows, p: int, n: int) -> list[list[int]]:
    """A basis of the vectors v in F_p^n with row . v = 0 for every row."""
    basis = {next(i for i, x in enumerate(row) if x): row for row in _echelon(rows, p)}
    out = []
    for free in range(n):
        if free not in basis:
            v = [0] * n
            v[free] = 1
            for pos, row in basis.items():
                v[pos] = -row[free] % p
            out.append(v)
    return out


def _meet(keys, p: int, n: int):
    """The intersection of subspaces: the annihilator of their summed annihilators.

    The empty intersection is the whole space.
    """
    return _echelon(_nullspace_mod([u for k in keys for u in _nullspace_mod(k, p, n)], p, n), p)


# Polynomials over F_p are coefficient lists, constant term first, with no
# trailing zeros; [] is the zero polynomial.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        _poly_trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of two polynomials, a nonzero."""
    while b:
        a, b = b, _poly_rem(a, b, p)
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _poly_mul_rem(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_rem([x % p for x in prod], f, p)


def _charpoly_mod(mat: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial over F_p, via reduction to Hessenberg form."""
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


def _is_squarefree(f: list[int], p: int) -> bool:
    deriv = _poly_trim([k * c % p for k, c in enumerate(f)][1:])
    return len(_poly_gcd(f, deriv, p)) == 1


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """The monic irreducible factors of a monic squarefree f over F_p.

    The polynomials g of degree below deg f with g^p = g mod f form the
    Berlekamp subalgebra, the null space of Q - I where row i of Q holds
    x^(ip) mod f.  Each such g is constant modulo every irreducible factor,
    so h = prod_s gcd(h, g - s) for every factor h of f, and a basis of the
    subalgebra separates all irreducible factors.  The subalgebra has one
    dimension per irreducible factor, which says when to stop.
    """
    n = len(f) - 1
    x_p = [1]
    for _ in range(p):
        x_p = _poly_mul_rem(x_p, [0, 1], f, p)
    q = [[1]]
    for _ in range(1, n):
        q.append(_poly_mul_rem(q[-1], x_p, f, p))
    q_minus_i = [[0] * n for _ in range(n)]
    for i, row in enumerate(q):
        for j, c in enumerate(row):
            q_minus_i[j][i] = c
        q_minus_i[i][i] = (q_minus_i[i][i] - 1) % p
    algebra = _nullspace_mod(q_minus_i, p, n)
    factors = [f]
    for g in algebra:
        if len(factors) == len(algebra):
            break
        splits = []
        for h in factors:
            for s in range(p):
                shifted = _poly_trim([(g[0] - s) % p] + g[1:])
                d = _poly_gcd(h, shifted, p) if shifted else h
                if len(d) > 1:
                    splits.append(d)
        factors = splits
    return factors


def _poly_at_matrix(f: list[int], mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    for c in reversed(f):
        out = _mat_mul_mod(out, mat, p)
        for i in range(n):
            out[i][i] = (out[i][i] + c) % p
    return out


def _word_submodules(action, p: int, n: int, bounds: Bounds):
    """Every submodule, from one spin per irreducible factor of chi.

    chi is the characteristic polynomial of the first prefix product
    A_1 ... A_k of the action matrices that is squarefree over F_p.  Raises
    ScaleError above the estimate n^3 (n + p), ValueError with no such product.
    """
    if n**3 * (n + p) > bounds.spinning_max_order:
        raise ScaleError("spinning-scale-exceeded: residue module is too large")
    word = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for rows in action:
        word = _mat_mul_mod(word, rows, p)
        chi = _charpoly_mod(word, p)
        if _is_squarefree(chi, p):
            kernels = [
                _nullspace_mod(_poly_at_matrix(f, word, p), p, n)[0] for f in _berlekamp(chi, p)
            ]
            return _submodules_from_spins(kernels, action, p, n, bounds)
    raise ValueError(f"no-semisimple-word: no prefix product is squarefree mod {p}")


def _residue_action(lattice: LatticeBasis, gens, p: int) -> tuple:
    """The action on L/pL: the conjugated action rows reduced mod p."""
    return tuple(
        tuple(tuple(x % p for x in row) for row in rows)
        for rows in _conjugated_action_rows(lattice, gens)
    )


def _lift_subspace(lattice: LatticeBasis, key, p: int) -> LatticeBasis:
    """The lattice between pL and L whose image mod p is the given subspace."""
    cols = [lattice.hnf.apply(row) for row in key]
    cols += [[p * x for x in lattice.hnf.column(j)] for j in range(lattice.dim)]
    return LatticeBasis(hnf(IntMatrix.from_columns(cols)))


def _sorted_lattices(lats) -> list[LatticeBasis]:
    return sorted(lats, key=lambda l: l.key())


@lru_cache(maxsize=_LAYER_CACHE_SIZE)
def _residue_layer(lattice: LatticeBasis, gens, p: int, bounds: Bounds):
    """The maximal submodules of L/pL, their meet, and the Moebius values above it.

    F_p keys (maximal, radical, moebius): moebius maps each submodule x that
    contains the radical to mu(x) = -sum of mu(y) over the y above x, which by
    Rota's crosscut theorem is the sum of (-1)^|J| over the sets J of maximal
    submodules meeting in x.  A tripped bound, a family without a semisimple
    word or a composite p raises, which is never cached.
    """
    _require_prime(p)
    n = lattice.dim
    subs, full = _word_submodules(_residue_action(lattice, gens, p), p, n, bounds)
    proper = [s for s in subs if s != full]
    maximal = tuple(
        s for s in proper if not any(len(o) > len(s) and _echelon(o + s, p) == o for o in proper)
    )
    radical = _meet(maximal, p, n)
    moebius: dict[tuple, int] = {}
    for s in sorted((s for s in subs if _echelon(s + radical, p) == s), key=len, reverse=True):
        above = (m for o, m in moebius.items() if len(o) > len(s) and _echelon(o + s, p) == o)
        moebius[s] = 1 if s == full else -sum(above)
    return maximal, radical, MappingProxyType(moebius)


def maximal_sublattices_p(
    lattice: LatticeBasis, gens, p: int, bounds: Bounds = DEFAULT_BOUNDS
) -> list[LatticeBasis]:
    """All maximal stable sublattices N with pL contained in N.

    These correspond to the maximal invariant subspaces of the residue module
    L/pL.  Its submodule lattice comes from one spin per irreducible factor
    of a semisimple generator word; ValueError is raised when no prefix
    product of the generators is semisimple mod p.  When the residue module
    is irreducible the only such sublattice is pL itself.
    """
    maximal = _residue_layer(lattice, gens, p, bounds)[0]
    return _sorted_lattices(_lift_subspace(lattice, s, p) for s in maximal)


def rad_p(lattice: LatticeBasis, gens, p: int, bounds: Bounds = DEFAULT_BOUNDS) -> LatticeBasis:
    """Intersection of all maximal stable sublattices above pL."""
    return _lift_subspace(lattice, _residue_layer(lattice, gens, p, bounds)[1], p)


def phi_p(
    lattice: LatticeBasis, gens, p: int, bounds: Bounds = DEFAULT_BOUNDS
) -> list[LatticeBasis]:
    """All stable lattices between the radical and the lattice itself.

    These are the invariant subspaces of L/pL containing the image of the
    radical, lifted back to lattices.
    """
    interval = _residue_layer(lattice, gens, p, bounds)[2]
    return _sorted_lattices(_lift_subspace(lattice, s, p) for s in interval)


def phi_p_class(
    lattice: LatticeBasis, gens, p: int, j: int, bounds: Bounds = DEFAULT_BOUNDS
) -> list[LatticeBasis]:
    """Members of phi_p isomorphic to L(p^j), named by `identify_stable_lattice`."""
    return [x for x in phi_p(lattice, gens, p, bounds) if identify_stable_lattice(x) == p**j]


def mu_p(
    lattice: LatticeBasis, gens, p: int, target: LatticeBasis, bounds: Bounds = DEFAULT_BOUNDS
) -> int:
    """Moebius value of `target` in the poset of intersections of maximal sublattices.

    Read from the residue layer: `target` lies in the lift of its image in
    L/pL, of index p^codim in L, so it is that lift when the indices agree.
    """
    moebius = _residue_layer(lattice, gens, p, bounds)[2]
    coords = solve_in_lattice(lattice.hnf, target.hnf) if target.dim == lattice.dim else None
    if coords is not None:
        key = _echelon(([x % p for x in col] for col in zip(*coords.entries)), p)
        index = p ** (lattice.dim - len(key))
        if key in moebius and target.determinant() == lattice.determinant() * index:
            return moebius[key]
    raise LatticeError("lattice lies outside the radical interval")


def enumerate_p_sublattices(
    lattice: LatticeBasis, gens, p: int, max_exp: int, bounds: Bounds = DEFAULT_BOUNDS
) -> dict[int, list[LatticeBasis]]:
    """All stable sublattices of index p^j for j <= max_exp, grouped by j.

    Breadth-first walk: every stable sublattice of p-power index sits at the
    bottom of a chain of maximal inclusions, so repeatedly expanding maximal
    stable sublattices and deduplicating by normal form reaches everything.
    A maximal key of codimension c lifts to a sublattice of index p^c, so
    only the lifts that stay within max_exp are built.
    """
    _require_prime(p)
    if max_exp < 0:
        raise ValueError("max_exp must be nonnegative")
    levels: dict[int, dict[tuple, LatticeBasis]] = {0: {lattice.key(): lattice}}
    for e in range(max_exp):
        for lat in levels.get(e, {}).values():
            for key in _residue_layer(lat, gens, p, bounds)[0]:
                e2 = e + lat.dim - len(key)
                if e2 <= max_exp:
                    sub = _lift_subspace(lat, key, p)
                    levels.setdefault(e2, {})[sub.key()] = sub
    return {e: _sorted_lattices(levels.get(e, {}).values()) for e in range(max_exp + 1)}


# ---------------------------------------------------------------------------
# Exhaustive census of sublattices of a fixed index.
#
# Sublattices of index m correspond one to one to canonical lower-triangular
# bases H: positive diagonal with product m, off-diagonal entries H[i][j]
# (j < i) reduced into [0, H[i][i]).  The census walks every such H and keeps
# the stable ones.  H is stable when each generator image of each column
# forward-substitutes to zero: row r of the residual must be divisible by
# H[r][r], and the quotient times column r is subtracted.  Images are taken
# under the sparse A - cI of `_shifted_terms`.  A residual is held as
# (generator, column, quotients, next row) and its rows are read off the
# columns on demand, so no residual is copied or undone.
#
# The walk fills column t one entry at a time, in row order, and checks each
# residual row as soon as every entry it reads is chosen; the first failing
# row prunes the whole subtree, since no later choice changes it.  A nonzero quotient at a row r > t needs
# column r, so that residual waits for column r.  The next row of a live
# residual comes after quotients that are all fixed, so it is affine in the
# entry x being chosen at row i: divisibility by its own diagonal entry
# H[r][r] is a congruence a x + b = 0 mod H[r][r].  It has two kinds:
#
# * a residual of an earlier column, waiting at row t with quotient c, has
#   a = -c when r = i (and a = 0 otherwise);
# * the column's own image has for a the coefficient of x in row r of A - cI,
#   less the quotient c of row t when r = i and substitution has passed row t.
#
# All moduli are powers of p, so the classes meet in one class modulo a power
# of p, or in none, which prunes the subtree, and only that class of
# range(H[i][i]) is tried.  Each value tried still goes through the full
# check, so a congruence only skips values whose row must fail.  The rows
# after the first depend on quotients that x fixes (the column's own quotient
# at row t can depend on x), so they are checked value by value.
#
# An entry with one value (H[i][i] = 1) is 0 and takes no step of its own.  A
# residual skips the rows where neither A - cI nor a free entry is nonzero,
# and an image that reads no nonzero entry of its column is not formed.
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=_LAYER_CACHE_SIZE)
def _census_layer(lattice: LatticeBasis, gens, p: int, k: int) -> tuple[LatticeBasis, ...]:
    """All stable sublattices of index p^k, from their stable triangular bases.

    The census of every index m walks the layer of each prime power dividing
    m, so the finished sublattices are memoized on the caller's own hashable
    arguments (a lattice hashes on its normal form, a generator family on its
    matrices).  The action rows come from the memo of
    `_conjugated_action_rows`; an unstable base raises LatticeError, which is
    never cached.  No caller can change a tuple.

    Per generator the walk keeps the rows of A - cI by index, the entry of a
    column after which each image row is known (the row itself at least, for
    the quotient of row t times the entry), and bit masks of the nonzero rows
    and of the columns read.
    """
    n = lattice.dim
    rows_of, ready_of, busy_of, reads_of = [], [], [], []
    for terms in _shifted_terms(_conjugated_action_rows(lattice, gens)):
        rows = [()] * n
        for r, row in terms:
            rows[r] = row
        rows_of.append(rows)
        ready_of.append([max([r] + [j for j, _ in row]) for r, row in enumerate(rows)])
        busy_of.append(sum(1 << r for r, _ in terms))
        reads_of.append(reduce(int.__or__, (1 << j for _, row in terms for j, _ in row), 0))
    gen_ids = range(len(rows_of))
    rowwise = range(n)  # a waiting residual's row r is known with entry r
    results: list[tuple] = []

    for shape in _compositions(k, n):
        diag = [p**e for e in shape]
        free = sum(1 << r for r, e in enumerate(shape) if e)
        # The entry after row i that has more than one value (n: none).
        after = [next((r for r in range(i + 1, n) if shape[r]), n) for i in range(n)]
        cols = [[0] * n for _ in range(n)]

        def row_value(g, src, quots, r):
            v = 0
            col = cols[src]
            for j, a in rows_of[g][r]:
                v += a * col[j]
            for s, c in quots:
                v -= c * cols[s][r]
            return v

        def choose(t, i, live, waiting):
            # Entry i of column t (i == t: the diagonal) fixes the column down
            # to row h.  `live` holds the residuals checked in column t and
            # `waiting` those that wait for a later one.
            col = cols[t]
            h = after[i] - 1
            if i == t:
                live = [res for res in waiting if res[2][-1][0] == t]
                # Column t is nonzero only at row t and at free rows below it.
                support = 1 << t | free >> t << t
                for g in gen_ids:
                    if reads_of[g] & support:
                        rows = busy_of[g] | free
                        live.append((g, t, (), (rows & -rows).bit_length() - 1))
                waiting = [res for res in waiting if res[2][-1][0] != t]
                values = (diag[t],)
            else:
                # Meet the congruences of the rows this entry completes in the
                # class cls mod `mod`; b is the row's value while x is still 0.
                cls, mod = 0, 1
                for g, src, quots, r in live:
                    if (ready_of[g] if src == t else rowwise)[r] > h:
                        continue
                    a = 0
                    if src == t:
                        for j, coeff in rows_of[g][r]:
                            if j == i:
                                a = coeff
                    if r == i and quots and quots[-1][0] == t:
                        a -= quots[-1][1]
                    b = row_value(g, src, quots, r)
                    m = diag[r]
                    d = gcd(a, m)
                    if b % d:
                        return
                    if d == m:
                        continue
                    m //= d
                    x0 = -(b // d) * pow(a // d, -1, m) % m
                    if m > mod:
                        cls, mod, x0, m = x0, m, cls, mod
                    if cls % m != x0:
                        return
                values = range(cls, diag[i], mod)
            for x in values:
                col[i] = x
                nlive, nwaiting = [], waiting
                for g, src, quots, r in live:
                    ready = ready_of[g] if src == t else rowwise
                    rows = busy_of[g] | free
                    while r < n and ready[r] <= h:
                        v = row_value(g, src, quots, r)
                        if v % diag[r]:
                            r = -1
                            break
                        if v:
                            quots += ((r, v // diag[r]),)
                        # On to the next row that can be nonzero: a row of
                        # A - cI, or a row with free entries.
                        rest = rows >> (r + 1)
                        r = r + (rest & -rest).bit_length() if rest else n
                        if v and quots[-1][0] > t:
                            break
                    if r < 0:
                        break
                    if r == n:
                        continue
                    if quots and quots[-1][0] > t:
                        nwaiting = nwaiting + [(g, src, quots, r)]
                    else:
                        nlive.append((g, src, quots, r))
                else:
                    if h + 1 < n:
                        choose(t, h + 1, nlive, nwaiting)
                    elif t + 1 < n:
                        choose(t + 1, t + 1, nlive, nwaiting)
                    else:
                        results.append(tuple(map(tuple, cols)))
            if i > t:
                col[i] = 0

        choose(0, 0, [], [])

    return tuple(
        LatticeBasis(IntMatrix.from_columns([lattice.hnf.apply(col) for col in cols]))
        for cols in results
    )


def enumerate_index_sublattices(
    lattice: LatticeBasis, gens, m: int, bounds: Bounds = DEFAULT_BOUNDS
) -> list[LatticeBasis]:
    """All stable sublattices of exactly the given index, canonically sorted.

    The census runs prime by prime (a sublattice of composite index is the
    intersection of its prime-power parts, uniquely): the first prime's layer
    is taken as it is, and each further layer is intersected with the
    products so far.  A layer holds the stable sublattices of one prime-power
    index, memoized per (lattice, generators, p, k) by `_census_layer`, so a
    layer shared by many indices is walked once.  Every call returns a fresh
    list.
    """
    if m < 1:
        raise ValueError("index must be positive")
    if m > bounds.index_enumeration_max:
        raise ScaleError("enumeration-scale-exceeded: index above configured bound")
    if m == 1:
        return [lattice]
    found = None
    for p, k in sorted(prime_factorization(m).items()):
        layer = _census_layer(lattice, gens, p, k)
        if not layer:
            return []
        found = layer if found is None else [lattice_intersect(x, y) for x in found for y in layer]
    return _sorted_lattices(found)


def _all_triangular_bases(n: int, m: int):
    """Every canonical lower-triangular basis of index m (no stability filter)."""
    diags = [()]
    for _ in range(n):
        diags = [d + (x,) for d in diags for x in divisors(m)]
    for diag in diags:
        prod_diag = 1
        for x in diag:
            prod_diag *= x
        if prod_diag != m:
            continue
        free = [(i, j) for i in range(n) for j in range(i) if diag[i] > 1]
        for values in product(*(range(diag[i]) for i, _ in free)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield IntMatrix(rows)


def enumerate_index_sublattices_naive(
    lattice: LatticeBasis, gens, m: int, bounds: Bounds = DEFAULT_BOUNDS
) -> list[LatticeBasis]:
    """Reference census: generate every triangular basis of index m, filter by
    stability.  Exponentially slower than the pruned walk; used to validate it."""
    if m > bounds.index_enumeration_max:
        raise ScaleError("enumeration-scale-exceeded: index above configured bound")
    n = lattice.dim
    out = []
    for h in _all_triangular_bases(n, m):
        ambient = LatticeBasis(IntMatrix.from_columns([lattice.hnf.apply(h.column(j)) for j in range(n)]))
        if is_g_stable(ambient, gens):
            out.append(ambient)
    return _sorted_lattices(out)


def classify_sublattice(sub: LatticeBasis, n: int, p: int) -> tuple[int, int]:
    """Write a stable p-power-index sublattice of L(1) as p^a L(p^b).

    `identify_stable_lattice` names the family member with sub = c L(d); the
    scale c must be p^a and d must be p^b.  Failure to classify signals a bug
    (or a non-stable input) and raises.
    """
    _require_prime(p)
    d = identify_stable_lattice(sub)
    if d is None:
        raise LatticeError("sublattice does not match any scaled representative")
    c = is_scalar_multiple(craig_lattice(n, d).basis, sub)
    a, b = valuation(c.numerator, p), valuation(d, p)
    if c != p**a or d != p**b:
        raise LatticeError("sublattice is not p^a L(p^b)")
    return (a, b)


def lattices_to_json(lats) -> list[dict]:
    return [matrix_to_json(l.hnf) for l in lats]
