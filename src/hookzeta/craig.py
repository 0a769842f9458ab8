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
  maximal submodules of the residue module L/pL: a group-algebra word with
  squarefree characteristic polynomial splits L/pL into blocks, and the
  submodules are the sets of blocks closed under a digraph that the
  generators draw on them (Lux, Mueller and Ringe 1994), and
* an exhaustive census of all sublattices of a given index via canonical
  triangular bases, filtered by stability.

The two routes check each other; the census is the trusted brute-force oracle
for every closed formula in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, product
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
    lattice_sum,
    solve_in_lattice,
    solve_triangular,
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
    "mu_p",
    "enumerate_p_sublattices",
    "enumerate_index_sublattices",
    "classify_sublattice",
    "check_spinning_scale",
]

# Entries each memo keeps; the benchmark's census grid memoizes 450 census
# layers, 166 of them walked, `verify --n-max 6` reads 30 distinct residue
# layers, and it builds 57 distinct L(d) in `craig_lattice`.
_LAYER_CACHE_SIZE = 1024


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


@lru_cache(maxsize=_LAYER_CACHE_SIZE, typed=True)
def craig_lattice(n: int, d: int) -> CraigLattice:
    """Construct L(d) for any d >= 1; stability under the action is a separate check.

    The value is frozen, so it is memoized: each (n, d) computes its normal
    form once.  The memo is typed, so a float that equals a cached int is
    still refused.
    """
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


@lru_cache(maxsize=_LAYER_CACHE_SIZE)
def _conjugated_action(lattice: LatticeBasis, gens) -> tuple:
    """The generators written in the lattice's basis H, as (c, terms).

    A generator A = cI + S in the form of `_shifted_terms` becomes
    H^-1 A H = cI + H^-1 (S H) with the same c: S H is nonzero only in the rows
    of S, each nonzero column of it takes one triangular solve, and terms are
    the nonzero rows of H^-1 (S H), gathered column by column.  Memoized per
    (lattice, generators): every census and residue layer of a lattice reads
    the same form.  An unstable lattice raises LatticeError, never cached.
    """
    n = lattice.dim
    if gens.n != n:
        raise LatticeError("dimension mismatch")
    h = lattice.hnf
    out = []
    for c, terms in _shifted_terms(m.entries for m in gens.mats):
        rows = [[] for _ in range(n)]
        for j in range(n):
            col = [0] * n
            for r, row in terms:
                col[r] = sum(x * h.entries[k][j] for k, x in row)
            x = solve_triangular(h, col) if any(col) else ()
            if x is None:
                raise LatticeError("lattice is not stable under the given action")
            for i, v in enumerate(x):
                if v:
                    rows[i].append((j, v))
        out.append((c, tuple((i, tuple(row)) for i, row in enumerate(rows) if row)))
    return tuple(out)


def _shifted_terms(action) -> tuple:
    """Each integer generator A as (c, terms): terms are the nonzero rows
    (row, ((col, coeff), ...)) of S = A - cI.

    c is A's commonest diagonal entry, -1 for most transpositions (-I plus rank
    one).  cI maps every lattice and F_p subspace into itself, so A and S have
    the same invariant ones, whatever the scalar c.
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
        shifted.append((c, tuple(terms)))
    return tuple(shifted)


# ---------------------------------------------------------------------------
# Submodules of the residue module L/pL as reachability on a block digraph.
#
# All linear algebra over F_p is one reduction, `_rref_insert`, into a reduced
# echelon basis kept as a dict from pivot to row.  Entries past the pivot
# width are tags carried through every row operation, so keys, kernels,
# inverses and Krylov relations all come from it: a subspace is canonicalized
# as its reduced echelon rows (`_echelon`), P^-1 is the tag half of the
# echelon form of [P | I], Berlekamp's subalgebra is the tags of the rows of
# Q - I that reduce to zero, and a Krylov vector B^m e tagged x^m reduces to
# zero with the relative minimal polynomial of e as its tag.
#
# A group-algebra word B whose characteristic polynomial chi is squarefree
# splits F_p^n into the B-irreducible blocks ker f(B), one per irreducible
# factor f of chi.  Every submodule is B-invariant, hence the direct sum of
# the blocks it contains (the local-submodule view of the MeatAxe: Lux,
# Mueller and Ringe, "Peakword condensation and submodule lattices", J.
# Symbolic Comput. 17, 1994).  In a basis P adapted to the blocks, a generator
# cI + S maps block j into the blocks l where block (l, j) of P^-1 S P is
# nonzero; these are the edges of a digraph on the t blocks.  The submodules
# are the edge-closed sets of blocks, and the spin of a block, the least
# submodule holding it, is the set of blocks it reaches.  A top class is a
# spin that no other spin strictly contains; with t of them, the maximal
# submodules are the t sums of the blocks outside one top class, the radical
# is the sum of the spins that are not top, and the radical interval is
# Boolean: 2^t sums that leave out a set U of top classes, with Moebius value
# (-1)^|U|.  The words tried are the prefix products A_1 ... A_k of the
# generators, longest first: for the transpositions s_1, ..., s_n of the hook
# module, s_1 ... s_n is an (n+1)-cycle with chi = 1 + x + ... + x^n and
# s_1 ... s_(n-1) an n-cycle with chi = x^n - 1, and no prime divides both n
# and n+1, so one of the two is squarefree mod every p; a family with no
# squarefree prefix raises "no-semisimple-word".  No word is formed as a
# matrix: B acts on vectors as its sparse factors cI + S, the memoized
# `_conjugated_action` reduced mod p (c the generator's commonest diagonal
# entry; the word and the edges read this one form), chi is the product of the
# relative minimal polynomials of e_1, e_2, ..., and (chi / f)(B) e_j is a
# kernel vector of f(B) whose Krylov vectors are a basis of its block (the
# spin-and-split step of the MeatAxe, Holt and Rees 1994).  The bound
# `spinning_max_order` prices this path as n^3 (n + p): up to n words whose
# chi reduces at most 2n Krylov vectors at O(n^2) each, Berlekamp's loops over
# range(p) at O(n^3 p), one inverse of P and n^2 per nonzero row of each S.
# Once the top classes are known it adds n^3 per member of the radical
# interval and stops at the same bound.
# The stable lattices between pL and L are the lifts of submodules, and
# lifting preserves inclusion and intersection, so every entry point lifts what
# it needs from one layer of F_p keys per reduced action, `_action_layer`.
# ---------------------------------------------------------------------------


def _rref_insert(basis: dict[int, list[int]], vec: list[int], p: int, width: int) -> list[int]:
    """Reduce vec against a reduced echelon basis over F_p and return the residue.

    basis maps each pivot to its row, which has a unit pivot and is zero at
    every other pivot.  Pivots come only from the first width entries; when
    the residue is nonzero there it is scaled to a unit pivot and inserted.
    The entries past width are tags, carried through every row operation: a
    vector inserted with tag e_i records which combination of inserted vectors
    each row and each residue is.  The residue is a new list, reduced mod p
    once at the end.
    """
    v = vec
    for pos, row in basis.items():
        c = v[pos] % p
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    v = [x % p for x in v]
    lead = next((i for i in range(width) if v[i]), None)
    if lead is None:
        return v
    inv = pow(v[lead], -1, p)
    v = [x * inv % p for x in v]
    for row in basis.values():
        c = row[lead]
        if c:
            row[:] = [(x - c * y) % p for x, y in zip(row, v)]
    basis[lead] = v
    return v


def _echelon(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """The canonical key of the span of rows over F_p: its reduced echelon basis."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        _rref_insert(basis, row, p, len(row))
    return tuple(tuple(basis[pos]) for pos in sorted(basis))


# Polynomials over F_p are coefficient lists, constant term first, with no
# trailing zeros; [] is the zero polynomial.


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        quo[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        _poly_trim(a)
    return quo, a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of two polynomials, a nonzero."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_trim([x % p for x in prod])


def _is_squarefree(f: list[int], p: int) -> bool:
    deriv = _poly_trim([k * c % p for k, c in enumerate(f)][1:])
    return len(_poly_gcd(f, deriv, p)) == 1


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """The monic irreducible factors of a monic squarefree f over F_p.

    The polynomials g of degree below deg f with g^p = g mod f form the
    Berlekamp subalgebra, the g with g (Q - I) = 0 where row i of Q holds
    x^(ip) mod f: the tags of the rows of Q - I, row i tagged with e_i, that
    reduce to zero.  Each such g is constant modulo every irreducible factor,
    so h = prod_s gcd(h, g - s) for every factor h of f, and a basis of the
    subalgebra separates all irreducible factors.  The subalgebra has one
    dimension per irreducible factor, which says when to stop.
    """
    n = len(f) - 1
    x_p = _poly_divmod([0] * p + [1], f, p)[1]
    basis: dict[int, list[int]] = {}
    algebra, power = [], [1]
    for i in range(n):
        row = power + [0] * (n - len(power))
        row[i] -= 1
        residue = _rref_insert(basis, row + [int(i == j) for j in range(n)], p, n)
        if not any(residue[:n]):
            algebra.append(residue[n:])
        power = _poly_divmod(_poly_mul(power, x_p, p), f, p)[1]
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


def _word_action(factors, p: int):
    """vec -> B vec for the word B = A_1 ... A_k, from the (c, terms) of its
    factors mod p: A = c (I + S/c) updates the rows of S alone, and the scalars
    c are applied once at the end (a factor with c = 0 is S itself)."""
    scale = reduce(lambda acc, c: acc * (c or 1) % p, (c for c, _ in factors), 1)
    steps = [
        (c, [(r, [(j, x * pow(c or 1, -1, p) % p) for j, x in row]) for r, row in terms])
        for c, terms in reversed(factors)
    ]

    def apply(vec):
        u = list(vec)
        for c, terms in steps:
            sums = [(r, sum(x * u[j] for j, x in row)) for r, row in terms]
            u = u if c else [0] * len(u)
            for r, s in sums:
                u[r] = (u[r] + s) % p
        return [x * scale % p for x in u]

    return apply


def _relative_minpolys(apply, p: int, n: int) -> list[tuple[int, list[int], list]]:
    """Triples (j, g_j, [e_j, B e_j, ..., B^deg(g_j) e_j]), g_j the least monic g
    with g(B) e_j in the B-invariant span W of e_0, ..., e_(j-1), so that chi(B)
    is their product (Keller-Gehrig, "Fast algorithms for the characteristic
    polynomial", 1985).  Each Krylov vector B^m e_j enters one basis with tag
    x^m, so the tag of the first zero residue is g_j; the tags are cleared
    before the next start, and starts already in W are skipped."""
    basis: dict[int, list[int]] = {}
    out = []
    for j in range(n):
        if len(basis) == n:
            break
        for row in basis.values():
            row[n:] = [0] * (n + 1)
        vec, krylov = [int(i == j) for i in range(n)], []
        while True:
            krylov.append(vec)
            tag = [0] * (n + 1)
            tag[len(krylov) - 1] = 1
            residue = _rref_insert(basis, vec + tag, p, n)
            if not any(residue[:n]):
                break
            vec = apply(vec)
        if len(krylov) > 1:
            out.append((j, _poly_trim(residue[n:]), krylov))
    return out


def _word_kernels(shifted, p: int, n: int):
    """(k, chi, blocks) for the longest prefix word B = A_1 ... A_k whose
    characteristic polynomial chi is squarefree over F_p, or ValueError.

    blocks holds one (f, basis) per irreducible factor f of chi: basis is the
    Krylov basis vec, B vec, ..., B^(deg f - 1) vec of the block ker f(B), and
    vec is (chi / f)(B) e_j for a start e_j whose relative minimal polynomial f
    divides, a sum of its Krylov vectors when they reach deg(chi / f) (as for
    a cyclic e_0), else by Horner's rule.  f(B) vec = chi(B) e_j = 0, and vec
    is nonzero since f divides the minimal polynomial of e_j but not chi / f;
    f is irreducible, so it is the minimal polynomial of vec.
    """
    for k in range(len(shifted), 0, -1):
        apply = _word_action(shifted[:k], p)
        starts = _relative_minpolys(apply, p, n)
        chi = reduce(lambda a, b: _poly_mul(a, b, p), (g for _, g, _ in starts))
        if not _is_squarefree(chi, p):
            continue
        blocks = []
        for f in _berlekamp(chi, p):
            j, krylov = next((j, kr) for j, g, kr in starts if not _poly_divmod(g, f, p)[1])
            quo = _poly_divmod(chi, f, p)[0]
            if len(quo) <= len(krylov):
                vec = [sum(c * v[i] for c, v in zip(quo, krylov)) % p for i in range(n)]
            else:
                vec = krylov[0]
                for c in reversed(quo[:-1]):
                    vec = apply(vec)
                    vec[j] = (vec[j] + c) % p
            basis = [vec]
            while len(basis) < len(f) - 1:
                basis.append(apply(basis[-1]))
            blocks.append((f, basis))
        return k, chi, blocks
    raise ValueError(f"no-semisimple-word: no prefix product is squarefree mod {p}")


def check_spinning_scale(n: int, p: int, bounds: Bounds) -> None:
    """Raise ScaleError when a residue module F_p^n prices above the bound:
    the estimate n^3 (n + p) of its word and block digraph."""
    if n**3 * (n + p) > bounds.spinning_max_order:
        raise ScaleError("spinning-scale-exceeded: residue module is too large")


def _block_reach(shifted, p: int, n: int, bounds: Bounds):
    """(bases, reach): the Krylov basis of each block of `_word_kernels`, and
    per block the set of blocks its spin holds.  Raises ScaleError above the
    estimate n^3 (n + p).

    The bases are the columns of P; P^-1 is the right half of the echelon
    form of [P | I].  A generator cI + S has an edge from block j to block l
    when block (l, j) of P^-1 S P is nonzero, and only the rows R of S enter
    P^-1 S P = P^-1[:, R] (S P)[R, :].  The spin of a block is the sum of the
    blocks it reaches.
    """
    check_spinning_scale(n, p, bounds)
    bases = [basis for _, basis in _word_kernels(shifted, p, n)[2]]
    cols = [v for basis in bases for v in basis]
    owner = [b for b, basis in enumerate(bases) for _ in basis]
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[n:] for row in _echelon((list(r) + u for r, u in zip(zip(*cols), unit)), p)]
    edges = [{b} for b in range(len(bases))]
    for _, terms in shifted:
        images = [[sum(x * col[j] for j, x in row) for col in cols] for _, row in terms]
        for a, inv_row in enumerate(inverse):
            coeffs = [(inv_row[r], img) for (r, _), img in zip(terms, images) if inv_row[r]]
            for b in range(n):
                if owner[a] not in edges[owner[b]] and sum(c * img[b] for c, img in coeffs) % p:
                    edges[owner[b]].add(owner[a])
    reach = []
    for b in range(len(bases)):
        seen, stack = {b}, [b]
        while stack:
            new = edges[stack.pop()] - seen
            seen |= new
            stack += new
        reach.append(frozenset(seen))
    return bases, reach


def _residue_action(lattice: LatticeBasis, gens, p: int) -> tuple:
    """The action on L/pL: `_conjugated_action` reduced mod p, as (c % p,
    terms) with every kept term nonzero mod p."""
    out = []
    for c, terms in _conjugated_action(lattice, gens):
        kept = ((r, tuple((j, x % p) for j, x in row if x % p)) for r, row in terms)
        out.append((c % p, tuple((r, row) for r, row in kept if row)))
    return tuple(out)


def _lift_subspace(lattice: LatticeBasis, key, p: int) -> LatticeBasis:
    """The lattice between pL and L whose image mod p is the given subspace."""
    cols = [lattice.hnf.apply(row) for row in key]
    cols += [[p * x for x in lattice.hnf.column(j)] for j in range(lattice.dim)]
    return LatticeBasis._from_hnf(hnf(IntMatrix.from_columns(cols)))


def _sorted_lattices(lats) -> list[LatticeBasis]:
    return sorted(lats, key=lambda l: l.key())


def _residue_layer(lattice: LatticeBasis, gens, p: int, bounds: Bounds):
    """`_action_layer` of the lattice's residue action; p must be prime."""
    _require_prime(p)
    return _action_layer(_residue_action(lattice, gens, p), p, lattice.dim, bounds)


@lru_cache(maxsize=_LAYER_CACHE_SIZE)
def _action_layer(action, p: int, n: int, bounds: Bounds):
    """F_p keys (maximal, radical, moebius: interval member -> value) of F_p^n
    under the action, read off `_block_reach` as the section comment describes.
    L and p^a L share one, as H^-1 S H is unchanged when H is scaled.  A tripped
    bound or a family without a semisimple word raises, which is never cached."""
    bases, reach = _block_reach(action, p, n, bounds)
    spins = list(dict.fromkeys(reach))
    classes = [s for s in spins if not any(s < o for o in spins)]
    if n**3 * 2 ** len(classes) > bounds.spinning_max_order:
        raise ScaleError("spinning-scale-exceeded: too many submodules")
    below = frozenset().union(*(s for s in spins if s not in classes))

    def join(sets):
        return _echelon([v for b in sorted(below.union(*sets)) for v in bases[b]], p)

    # Each interval member is keyed once, by the top classes it keeps: the
    # radical keeps none and each maximal key keeps all but one.
    t = len(classes)
    members = {keep: join(compress(classes, keep)) for keep in product((False, True), repeat=t)}
    radical = members[(False,) * t]
    maximal = tuple(members[tuple(j != out for j in range(t))] for out in range(t))
    moebius = {key: (-1) ** keep.count(False) for keep, key in members.items()}
    return maximal, radical, MappingProxyType(moebius)


def maximal_sublattices_p(
    lattice: LatticeBasis, gens, p: int, bounds: Bounds = DEFAULT_BOUNDS
) -> list[LatticeBasis]:
    """All maximal stable sublattices N with pL contained in N.

    These correspond to the maximal invariant subspaces of the residue module
    L/pL, read off the blocks of a semisimple generator word; ValueError is
    raised when no prefix product of the generators is semisimple mod p.
    When the residue module is irreducible the only such sublattice is pL
    itself.
    """
    maximal = _residue_layer(lattice, gens, p, bounds)[0]
    return _sorted_lattices(_lift_subspace(lattice, s, p) for s in maximal)


def rad_p(lattice: LatticeBasis, gens, p: int, bounds: Bounds = DEFAULT_BOUNDS) -> LatticeBasis:
    """Intersection of all maximal stable sublattices above pL.

    Its domain is a family with a squarefree prefix word mod p, as the hook
    module and its Specht form have; others raise ValueError("no-semisimple-word").
    """
    return _lift_subspace(lattice, _residue_layer(lattice, gens, p, bounds)[1], p)


def phi_p(
    lattice: LatticeBasis, gens, p: int, bounds: Bounds = DEFAULT_BOUNDS
) -> list[LatticeBasis]:
    """All stable lattices between the radical and the lattice itself.

    These are the invariant subspaces of L/pL containing the image of the
    radical, lifted back to lattices.
    Its domain is a family with a squarefree prefix word mod p, as the hook
    module and its Specht form have; others raise ValueError("no-semisimple-word").
    """
    interval = _residue_layer(lattice, gens, p, bounds)[2]
    return _sorted_lattices(_lift_subspace(lattice, s, p) for s in interval)


def mu_p(
    lattice: LatticeBasis, gens, p: int, target: LatticeBasis, bounds: Bounds = DEFAULT_BOUNDS
) -> int:
    """Moebius value of `target` in the poset of intersections of maximal sublattices.

    Read from the residue layer: `target` lies in the lift of its image in
    L/pL, of index p^codim in L, so it is that lift when the indices agree.
    Its domain is a family with a squarefree prefix word mod p, as the hook
    module and its Specht form have; others raise ValueError("no-semisimple-word").
    """
    moebius = _residue_layer(lattice, gens, p, bounds)[2]
    coords = solve_in_lattice(lattice.hnf, target.hnf) if target.dim == lattice.dim else None
    if coords is not None:
        key = _echelon(zip(*coords.entries), p)
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
    Its domain is a family with a squarefree prefix word mod p, as the hook
    module and its Specht form have; others raise ValueError("no-semisimple-word").
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
# (j < i) reduced into [0, H[i][i]).  The census walks every such H whose
# diagonal meets the difference constraints below, and keeps the stable ones.
# H is stable when each generator image of each column forward-substitutes to
# zero: row r of the residual must be divisible by H[r][r], and the quotient
# times column r is subtracted.  Images are taken under the sparse A - cI of
# `_conjugated_action`.  A residual is held as (generator, column, quotients,
# next row) and its rows are read off the columns on demand, so no residual is
# copied or undone.
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
#
# Only lattices whose determinant is a power of p are walked.  A sublattice of
# index p^k is fixed by its completion at p, as the zeta function is an Euler
# product of local factors (Solomon 1977).  For X with a = v_p(det X), the
# p-local lattice Y = X + p^a Z^n equals X at p and Z^n at every other prime:
# it is stable whenever X is, [Y : X] is prime to p, and M -> M meet X maps
# the stable sublattices of index p^k in Y one to one onto those in X (the
# inverse is N -> N + p^k Y).  So X's layer is the intersections of Y's, and
# L(d) and L(d') that agree at p share one walked layer: the benchmark's
# census grid (n = 3 and 5, every d | n+1) walks 166 of its 450 layers.
#
# Difference constraints reject a diagonal shape (e_0, ..., e_{n-1}), H[i][i]
# = p^e_i, before any of its columns is filled.  Write each generator, in the
# lattice's coordinates, as cI + S with S integral; a stable N of index p^k is
# closed under every S.  Fix a generator and a column t, and let r != t be the
# first row of S that reads any column >= t.  If the only such column that
# row r reads is t, with coefficient a, then every stable N of shape e has
# e_r <= e_t + v_p(a).  Proof: column t of H is zero above row t, so the rows
# above r of S times column t are 0 and have zero quotients, and row r is
# a p^e_t, which H[r][r] = p^e_r must divide.  The constraints are closed once
# per walk by shortest paths, and only the shapes that meet them are listed:
# on the benchmark's census grid the walk tries 397 of its 2024 shapes.
# ---------------------------------------------------------------------------


def _compositions(total: int, n: int, bound):
    """The shapes (e_0, ..., e_{n-1}) of sum total with e_r - e_t <=
    bound[r][t], in lexicographic order; bound holds the closed constraints
    of the section comment.

    A prefix is cut as soon as a part breaks a bound, or the parts left cannot
    meet the lower and upper bounds the chosen ones force.
    """

    def fill(shape, left, lo, hi):
        # lo[j] and hi[j] bound part i + j, from the parts chosen before i.
        i = len(shape)
        if i == n - 1:
            yield shape + (left,)
            return
        later = range(i + 1, n)
        for e in range(lo[0], min(hi[0], left) + 1):
            low = [max(x, e - bound[i][j]) for x, j in zip(lo[1:], later)]
            if sum(low) > left - e:
                break
            high = [min(x, e + bound[j][i]) for x, j in zip(hi[1:], later)]
            if left - e <= sum(high):
                yield from fill(shape + (e,), left - e, low, high)

    yield from fill((), total, [0] * n, [total] * n)


@lru_cache(maxsize=_LAYER_CACHE_SIZE)
def _census_layer(lattice: LatticeBasis, gens, p: int, k: int) -> tuple[LatticeBasis, ...]:
    """All stable sublattices of index p^k.

    The census of every index m reads the layer of each prime power dividing
    m, so the finished sublattices are memoized on the caller's own hashable
    arguments (a lattice hashes on its normal form, a generator family on its
    matrices).  An unstable lattice raises LatticeError from
    `_conjugated_action` before anything else, and is never cached.  Only a
    lattice whose determinant is a power of p is walked; any other one
    intersects the layer of its p-local lattice, as the section comment
    describes.  No caller can change a tuple.
    """
    _conjugated_action(lattice, gens)
    det = lattice.determinant()
    top = p ** valuation(det, p)
    if det == top:
        return _census_walk(lattice, gens, p, k)
    local = lattice_sum(lattice, LatticeBasis(IntMatrix.identity(lattice.dim)).scale(top))
    return tuple(lattice_intersect(sub, lattice) for sub in _census_layer(local, gens, p, k))


def _census_walk(lattice: LatticeBasis, gens, p: int, k: int) -> tuple[LatticeBasis, ...]:
    """The stable sublattices of index p^k, from their stable triangular bases.

    The sparse rows of A - cI come from the memo of `_conjugated_action`.  Per
    generator the walk keeps the rows of A - cI by index, the entry of a
    column after which each image row is known (the row itself at least, for
    the quotient of row t times the entry), and bit masks of the nonzero rows
    and of the columns read.  Only the diagonal shapes that meet the section
    comment's constraints are walked.
    """
    n = lattice.dim
    rows_of, ready_of, busy_of, reads_of = [], [], [], []
    for _, terms in _conjugated_action(lattice, gens):
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
    # The section comment's constraints e_r - e_t <= bound[r][t], closed by
    # shortest paths; k bounds nothing.  A row's last column t is the only
    # one >= t that it reads, as its entries are in column order.
    bound = [[k * (r != t) for t in range(n)] for r in range(n)]
    for rows in rows_of:
        top = -1
        for r, row in enumerate(rows):
            if row:
                t, a = row[-1]
                if top < t != r:
                    bound[r][t] = min(bound[r][t], valuation(a, p))
                top = max(top, t)
    for m, via in enumerate(bound):
        for r, row in enumerate(bound):
            if row[m] < k:
                bound[r] = [min(x, row[m] + y) for x, y in zip(row, via)]

    for shape in _compositions(k, n, bound):
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
    index, memoized per (lattice, generators, p, k) by `_census_layer` and
    walked once per p-local lattice, so a layer shared by many indices or
    lattices is walked once.  Every call returns a fresh list.
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


def classify_sublattice(sub: LatticeBasis, p: int) -> tuple[int, int]:
    """Write a stable p-power-index sublattice of L(1) as p^a L(p^b).

    `identify_stable_lattice` names d with sub = c L(d), and c is the content of
    the normal form, as L(d) has content 1; c must be p^a and d must be p^b.
    Failure to classify signals a bug (or a non-stable input) and raises.
    """
    _require_prime(p)
    d = identify_stable_lattice(sub)
    if d is None:
        raise LatticeError("sublattice does not match any scaled representative")
    c = content(x for row in sub.hnf.entries for x in row)
    a, b = valuation(c, p), valuation(d, p)
    if c != p**a or d != p**b:
        raise LatticeError("sublattice is not p^a L(p^b)")
    return (a, b)
