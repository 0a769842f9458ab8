"""Exact integer linear algebra and full-rank lattice arithmetic.

All matrix entries are Python integers, so every operation here is exact;
fractions.Fraction appears only in return values that are genuinely rational
(scalar ratios between lattices).  Floating point is never used.

A lattice is the column span of a nonsingular integer matrix.  The canonical
representative of a lattice is its column-style Hermite normal form: lower
triangular, positive pivots, and every entry left of a pivot reduced into
[0, pivot).  Two lattices are equal exactly when their normal forms are
identical matrices.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd

from .arith import content, xgcd


class MatrixError(ValueError):
    """Malformed matrix input: shape, exactness, or rank problems."""


class LatticeError(ValueError):
    """Invalid lattice operation: singular basis, failed inclusion, bad scale."""


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
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, columns) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        return cls(tuple(tuple(c[i] for c in cols) for i in range(len(cols[0]))))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def trace(self) -> int:
        if self.rows != self.cols:
            raise MatrixError("trace needs a square matrix")
        return sum(self.entries[i][i] for i in range(self.rows))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise MatrixError("dimension mismatch in product")
            bt = tuple(zip(*other.entries))
            return IntMatrix(
                tuple(
                    tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                    for row in self.entries
                )
            )
        c = operator.index(other)
        return IntMatrix(tuple(tuple(c * x for x in row) for row in self.entries))

    __rmul__ = __mul__

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError("dimension mismatch in sum")
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in row) for row in self.entries))

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
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise MatrixError("determinant needs a square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (pkk * rowi[j] - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pkk
    return sign * a[n - 1][n - 1]


def _column_hnf(cols: list[list[int]], nrows: int, transform: bool = False):
    """Reduce a list of column vectors to column-style HNF in place.

    Uses only unimodular column operations, so the column span is preserved.
    Returns (cols, U) where U is the applied transformation (as columns) when
    requested.  Raises MatrixError("singular") when the columns do not span a
    full-rank lattice in Z^nrows.
    """
    m = len(cols)
    U = [[1 if i == j else 0 for i in range(m)] for j in range(m)] if transform else None
    for i in range(nrows):
        if i >= m:
            raise MatrixError("singular")
        for j in range(i + 1, m):
            b = cols[j][i]
            if b == 0:
                continue
            a = cols[i][i]
            if a == 0:
                cols[i], cols[j] = cols[j], cols[i]
                if U is not None:
                    U[i], U[j] = U[j], U[i]
                continue
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            ci, cj = cols[i], cols[j]
            for r in range(i, nrows):
                s, t = ci[r], cj[r]
                ci[r] = x * s + y * t
                cj[r] = u * t - v * s
            if U is not None:
                ui, uj = U[i], U[j]
                for r in range(m):
                    s, t = ui[r], uj[r]
                    ui[r] = x * s + y * t
                    uj[r] = u * t - v * s
        piv = cols[i][i]
        if piv == 0:
            raise MatrixError("singular")
        if piv < 0:
            for r in range(i, nrows):
                cols[i][r] = -cols[i][r]
            if U is not None:
                U[i] = [-x for x in U[i]]
            piv = -piv
        for j in range(i):
            q = cols[j][i] // piv
            if q:
                cj = cols[j]
                ci = cols[i]
                for r in range(i, nrows):
                    cj[r] -= q * ci[r]
                if U is not None:
                    uj, ui = U[j], U[i]
                    for r in range(m):
                        uj[r] -= q * ui[r]
    return cols, U


def hnf(m: IntMatrix) -> IntMatrix:
    """Canonical column-style Hermite normal form of the column span of m.

    The input must have full row rank (in particular at least as many columns
    as rows); rank-deficient input raises MatrixError("singular").  Surplus
    columns reduce to zero and are dropped, so the result is square.  The map
    is idempotent and invariant under right multiplication by any unimodular
    matrix.
    """
    if m.rows > m.cols:
        raise MatrixError("singular")
    cols = [list(m.column(j)) for j in range(m.cols)]
    reduced, _ = _column_hnf(cols, m.rows)
    return IntMatrix(tuple(tuple(reduced[j][i] for j in range(m.rows)) for i in range(m.rows)))


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
    return IntMatrix.from_columns(cols)


class LatticeBasis:
    """A full-rank integer lattice, canonicalized by its Hermite normal form.

    The original generating matrix is kept in `basis`; all comparisons go
    through the cached `hnf`.
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
    def standard(cls, n: int) -> "LatticeBasis":
        return cls(IntMatrix.identity(n))

    def determinant(self) -> int:
        """Positive determinant (product of the normal-form pivots)."""
        d = 1
        for i in range(self.dim):
            d *= self.hnf.entries[i][i]
        return d

    def content(self) -> int:
        """GCD of all normal-form entries; p-power content of scaled lattices."""
        return content(x for row in self.hnf.entries for x in row)

    def contains(self, vec) -> bool:
        return solve_triangular(self.hnf, vec) is not None

    def scale(self, c) -> "LatticeBasis":
        """The lattice c * L for a positive rational c with c * L integral."""
        c = Fraction(c)
        if c <= 0:
            raise LatticeError("scale factor must be positive")
        num, den = c.numerator, c.denominator
        scaled = []
        for row in self.hnf.entries:
            new_row = []
            for x in row:
                y = x * num
                if y % den:
                    raise LatticeError("scale does not produce an integral lattice")
                new_row.append(y // den)
            scaled.append(tuple(new_row))
        return LatticeBasis(IntMatrix(tuple(scaled)))

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
    """True when every generator of sub has integer coordinates in sup."""
    if sub.dim != sup.dim:
        raise MatrixError("dimension mismatch")
    return solve_in_lattice(sup.hnf, sub.hnf) is not None


def lattice_index(sup: LatticeBasis, sub: LatticeBasis) -> int:
    """The group index [sup : sub], a positive integer."""
    if not is_sublattice(sub, sup):
        raise LatticeError("not-sublattice")
    return sub.determinant() // sup.determinant()


def lattice_sum(a: LatticeBasis, b: LatticeBasis) -> LatticeBasis:
    """Smallest lattice containing both summands."""
    if a.dim != b.dim:
        raise MatrixError("dimension mismatch")
    glued = IntMatrix(tuple(ra + rb for ra, rb in zip(a.hnf.entries, b.hnf.entries)))
    return LatticeBasis(hnf(glued))


def lattice_intersect(a: LatticeBasis, b: LatticeBasis) -> LatticeBasis:
    """Largest lattice contained in both operands.

    Computed from the integer kernel of the stacked map [A | B]: kernel
    columns (x, y) satisfy A x = -B y, and A applied to the x parts spans the
    intersection.
    """
    if a.dim != b.dim:
        raise MatrixError("dimension mismatch")
    n = a.dim
    cols = [list(a.hnf.column(j)) for j in range(n)] + [list(b.hnf.column(j)) for j in range(n)]
    _, U = _column_hnf(cols, n, transform=True)
    gens = []
    for j in range(n, 2 * n):
        x = U[j][:n]
        gens.append(a.hnf.apply(x))
    return LatticeBasis(IntMatrix.from_columns(gens))


def is_scalar_multiple(a: LatticeBasis, b: LatticeBasis) -> Fraction | None:
    """The positive rational c with b = c * a, or None when there is none.

    Scaling a lattice by a positive rational scales its normal form entrywise,
    so a single cross-multiplied comparison of the two normal forms decides.
    """
    if a.dim != b.dim:
        raise MatrixError("dimension mismatch")
    num = b.hnf.entries[0][0]
    den = a.hnf.entries[0][0]
    for ra, rb in zip(a.hnf.entries, b.hnf.entries):
        for xa, xb in zip(ra, rb):
            if xa * num != xb * den:
                return None
    return Fraction(num, den)


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
    """Read the wire format; entries are integers or decimal-integer strings."""
    try:
        rows, cols = obj["rows"], obj["cols"]
        m = IntMatrix([[_int_from_json(x) for x in row] for row in obj["entries"]])
    except (TypeError, KeyError):
        raise MatrixError("a matrix is an object with rows, cols and entry rows") from None
    if (m.rows, m.cols) != (rows, cols):
        raise MatrixError("declared shape does not match entries")
    return m
