"""Exact integer linear algebra and full-rank lattice arithmetic.

All matrix entries are Python integers, so every operation here is exact.
Floating point is never used.

A lattice is the column span of a nonsingular integer matrix.  The canonical
representative of a lattice is its column-style Hermite normal form: lower
triangular, positive pivots, and every entry left of a pivot reduced into
[0, pivot).  Two lattices are equal exactly when their normal forms are
identical matrices.
"""

from __future__ import annotations

import operator
import re
from itertools import chain
from math import gcd


class MatrixError(ValueError):
    """Malformed matrix input: shape, exactness, or rank problems."""


class LatticeError(ValueError):
    """Invalid lattice operation: singular basis, failed inclusion, bad scale."""


def _nonzeros(vec) -> list[tuple[int, int]]:
    return [(l, x) for l, x in enumerate(vec) if x]


def _combine(terms, vectors, n: int) -> list[int]:
    """The sum of x * vectors[l] over the (l, x) pairs in terms."""
    out = [0] * n
    for l, x in terms:
        out = [o + x * y for o, y in zip(out, vectors[l])]
    return out


class IntMatrix:
    """Immutable row-major matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        data = tuple(tuple(operator.index(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise MatrixError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise MatrixError("rows have unequal lengths")
        self.rows = len(data)
        self.cols = width
        self.entries = data

    @classmethod
    def _trusted(cls, data: tuple) -> "IntMatrix":
        """Unchecked constructor for rows the library has just built: a nonempty
        tuple of equal-length nonempty tuples of ints."""
        m = object.__new__(cls)
        m.rows, m.cols, m.entries = len(data), len(data[0]), data
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, columns) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        if not cols or any(len(c) != len(cols[0]) for c in cols):
            raise MatrixError("columns must be nonempty and of equal length")
        return cls(tuple(zip(*cols)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def trace(self) -> int:
        if self.rows != self.cols:
            raise MatrixError("trace needs a square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise MatrixError("dimension mismatch in product")
            # Row i of the product combines the rows of other where row i of
            # self is nonzero: a generator, -I plus one short row, costs n^2.
            rows, width = other.entries, other.cols
            return IntMatrix._trusted(
                tuple(tuple(_combine(_nonzeros(row), rows, width)) for row in self.entries)
            )
        c = operator.index(other)
        return IntMatrix._trusted(tuple(tuple(c * x for x in row) for row in self.entries))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix times column vector."""
        v = tuple(vec)
        if len(v) != self.cols:
            raise MatrixError("dimension mismatch in matrix-vector product")
        return tuple(sum(map(operator.mul, row, v)) for row in self.entries)


def _column_hnf(cols: list[list[int]], first: int = 0) -> IntMatrix:
    """Column-style HNF of the span of columns of a common length n.

    Reduces cols in place by unimodular column operations, so the column span
    is preserved, and returns rows and columns first..n-1 of the normal form
    (the columns before first are not reduced against later pivots).  Raises
    MatrixError("singular") when the columns do not span a full-rank lattice
    in Z^n.

    Row i is cleared by a Euclid across the columns from i on: while two of
    them have a nonzero row-i entry, the one whose entry is smallest in
    absolute value is subtracted, floor-quotient times, from every other one.
    Each pass shrinks that smallest entry, and the rows below i ride along.
    No bound on the intermediate entries is proven; on dense input they stay
    near the size of the determinant in practice.
    """
    m, nrows = len(cols), len(cols[0])
    for i in range(nrows):
        live = [j for j in range(i, m) if cols[j][i]]
        while len(live) > 1:
            ck = cols[min(live, key=lambda j: abs(cols[j][i]))]
            b = ck[i]
            for j in live:
                cj = cols[j]
                if cj is not ck:
                    q = cj[i] // b
                    for r in range(i, nrows):
                        cj[r] -= q * ck[r]
            live = [j for j in live if cols[j][i]]
        if not live:
            raise MatrixError("singular")
        k = live[0]
        cols[i], cols[k] = cols[k], cols[i]
        ci = cols[i]
        piv = ci[i]
        if piv < 0:
            ci[i:] = [-x for x in ci[i:]]
            piv = -piv
        for j in range(first, i):
            q = cols[j][i] // piv
            if q:
                cj = cols[j]
                for r in range(i, nrows):
                    cj[r] -= q * ci[r]
    return IntMatrix._trusted(tuple(zip(*(c[first:] for c in cols[first:nrows]))))


def hnf(m: IntMatrix) -> IntMatrix:
    """Canonical column-style Hermite normal form of the column span of m.

    The input must have full row rank (in particular at least as many columns
    as rows); rank-deficient input raises MatrixError("singular").  Surplus
    columns reduce to zero and are dropped, so the result is square.  The map
    is idempotent and invariant under right multiplication by any unimodular
    matrix.  Library results and outside input share this one routine: each
    row is cleared by a Euclid across the columns (see `_column_hnf`), which
    keeps dense input fast in practice, though no coefficient bound is proven.
    """
    if m.rows > m.cols:
        raise MatrixError("singular")
    return _column_hnf([list(c) for c in zip(*m.entries)])


def solve_triangular(h: IntMatrix, vec) -> list[int] | None:
    """Integer coordinates of vec in the columns of a lower-triangular basis.

    Returns None when vec is not in the column span over the integers.
    """
    n = h.rows
    r = list(vec)
    out = [0] * n
    ent = h.entries
    for i in range(n):
        d = ent[i][i]
        ri = r[i]
        if ri % d:
            return None
        c = ri // d
        out[i] = c
        if c:
            for ii in range(i, n):
                r[ii] -= c * ent[ii][i]
    return out


def solve_in_lattice(h: IntMatrix, m: IntMatrix) -> IntMatrix | None:
    """Integer X with h * X = m for lower-triangular h, or None."""
    cols = []
    for j in range(m.cols):
        x = solve_triangular(h, m.column(j))
        if x is None:
            return None
        cols.append(x)
    return IntMatrix._trusted(tuple(zip(*cols)))


class LatticeBasis:
    """A full-rank integer lattice, canonicalized by its Hermite normal form.

    The generating matrix is kept in `basis`: the caller's matrix for a
    lattice built by the constructor, and the normal form itself for lattices
    built by sum, intersection and scale.  All comparisons go through the
    cached `hnf`.
    """

    __slots__ = ("dim", "basis", "hnf")

    def __init__(self, basis: IntMatrix):
        if basis.rows != basis.cols:
            raise LatticeError("lattice basis must be square")
        try:
            h = hnf(basis)
        except MatrixError:
            raise LatticeError("singular") from None
        self.dim = basis.rows
        self.basis = basis
        self.hnf = h

    @classmethod
    def _from_hnf(cls, h: IntMatrix) -> "LatticeBasis":
        """Unchecked constructor for a matrix already in Hermite normal form."""
        lat = object.__new__(cls)
        lat.dim, lat.basis, lat.hnf = h.rows, h, h
        return lat

    def determinant(self) -> int:
        """Positive determinant (product of the normal-form pivots)."""
        d = 1
        for i in range(self.dim):
            d *= self.hnf.entries[i][i]
        return d

    def contains(self, vec) -> bool:
        v = tuple(vec)
        if len(v) != self.dim:
            raise MatrixError("dimension mismatch")
        return solve_triangular(self.hnf, v) is not None

    def scale(self, c: int) -> "LatticeBasis":
        """The lattice c * L for a positive int c: a positive multiple of a
        normal form is again one."""
        if type(c) is not int or c <= 0:
            raise LatticeError("scale factor must be a positive int")
        return LatticeBasis._from_hnf(self.hnf * c)

    def primitive(self) -> tuple[int, "LatticeBasis"]:
        """(c, M) with c the content of the normal form and M = L / c, the
        inverse of `scale`: M.scale(c) == L.  Dividing a normal form by its
        content leaves one; a content-1 lattice is returned as itself."""
        c = gcd(*chain.from_iterable(self.hnf.entries))
        if c == 1:
            return 1, self
        rows = tuple(tuple(x // c for x in row) for row in self.hnf.entries)
        return c, LatticeBasis._from_hnf(IntMatrix._trusted(rows))

    def key(self) -> tuple:
        """Canonical sort/deduplication key: the flattened normal form."""
        return self.hnf.entries

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeBasis) and self.hnf.entries == other.hnf.entries

    def __hash__(self) -> int:
        return hash(self.hnf.entries)

    def __repr__(self) -> str:
        return f"LatticeBasis(hnf={[list(r) for r in self.hnf.entries]})"


def is_sublattice(sub: LatticeBasis, sup: LatticeBasis) -> bool:
    """True when every generator of sub has integer coordinates in sup.

    Each column of sub's normal form is solved through sup's, stopping at the
    first that has no integer solution; no matrix of coordinates is built.
    """
    if sub.dim != sup.dim:
        raise MatrixError("dimension mismatch")
    return all(solve_triangular(sup.hnf, c) is not None for c in zip(*sub.hnf.entries))


def lattice_index(sup: LatticeBasis, sub: LatticeBasis) -> int:
    """The group index [sup : sub], a positive integer."""
    if not is_sublattice(sub, sup):
        raise LatticeError("not-sublattice")
    return sub.determinant() // sup.determinant()


def lattice_sum(a: LatticeBasis, b: LatticeBasis) -> LatticeBasis:
    """Smallest lattice containing both summands."""
    if a.dim != b.dim:
        raise MatrixError("dimension mismatch")
    cols = [list(c) for m in (a.hnf, b.hnf) for c in zip(*m.entries)]
    return LatticeBasis._from_hnf(_column_hnf(cols))


def lattice_intersect(a: LatticeBasis, b: LatticeBasis) -> LatticeBasis:
    """Largest lattice contained in both operands.

    The columns (A e_j; A e_j) and (B e_j; 0) span a full-rank lattice M in
    Z^2n.  In its column HNF the last n columns have a zero upper half, so they
    span M meet (0 + Z^n) = {(0; A x) : A x in B}, and their lower halves are
    already the HNF of the intersection.  When one operand contains the
    other, one inclusion test answers instead: the meet is the contained one.
    """
    if is_sublattice(a, b):
        return LatticeBasis._from_hnf(a.hnf)
    if is_sublattice(b, a):
        return LatticeBasis._from_hnf(b.hnf)
    n = a.dim
    cols = [list(c) * 2 for c in zip(*a.hnf.entries)]
    cols += [list(c) + [0] * n for c in zip(*b.hnf.entries)]
    return LatticeBasis._from_hnf(_column_hnf(cols, n))


def matrix_to_json(m: IntMatrix) -> dict:
    """Wire format with entries as decimal strings (consumers may lack bigints)."""
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.entries],
    }


def _int_from_json(x) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+", x):
        return int(x)
    raise MatrixError(f"matrix entries must be integers or decimal strings, got {x!r}")


def matrix_from_json(obj) -> IntMatrix:
    """Read the wire format: integer rows and cols, and a list of entry rows,
    each a list of integers or decimal-integer strings."""
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        # Exact types: a bool is no size, and a string or object row would
        # otherwise be read one character or key at a time.
        if not (type(rows) is type(cols) is int and type(entries) is list
                and all(type(row) is list for row in entries)):
            raise TypeError
        m = IntMatrix([[_int_from_json(x) for x in row] for row in entries])
    except (TypeError, KeyError):
        raise MatrixError("a matrix is an object with integer rows, cols and entry rows") from None
    if (m.rows, m.cols) != (rows, cols):
        raise MatrixError("declared shape does not match entries")
    return m
