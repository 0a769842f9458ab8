"""Sublattice-counting zeta functions of the stable hook lattices.

The generating function of stable sublattices of p-power index is a rational
function in X = p^(-s) with denominator 1 - X^n.  A small matrix inversion
identity produces all of these local factors at once: the matrix of pairwise
partial counting series is the exact inverse of an explicitly known
tridiagonal matrix.  Globally, the zeta function of a stable lattice is the
Riemann zeta at n*s times one polynomial correction per prime dividing n+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_nth_power, prime_factorization, valuation
from .specht import craig_generators, identify_specht_lattice, specht_generators_closed


class ZetaError(ValueError):
    """Invalid zeta-function request (bad prime, divisor, or range)."""


class IntPoly:
    """Dense polynomial in one variable over the integers, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def x_power(cls, k: int, c: int = 1) -> "IntPoly":
        return cls((0,) * k + (c,))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(other * x for x in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                lead = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{lead}X^{k}" if k > 1 else f"{lead}X")
        return "IntPoly(" + " + ".join(terms).replace("+ -", "- ") + ")"


POLY_ONE = IntPoly((1,))
POLY_ZERO = IntPoly()


class PolyMatrix:
    """Square matrix of integer polynomials."""

    __slots__ = ("size", "entries")

    def __init__(self, entries):
        data = tuple(tuple(e for e in row) for row in entries)
        if any(len(row) != len(data) for row in data):
            raise ZetaError("polynomial matrix must be square")
        self.size = len(data)
        self.entries = data

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.size != other.size:
            raise ZetaError("dimension mismatch")
        n = self.size
        return PolyMatrix(
            tuple(
                tuple(
                    sum((self.entries[i][l] * other.entries[l][j] for l in range(n)), POLY_ZERO)
                    for j in range(n)
                )
                for i in range(n)
            )
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"PolyMatrix({self.entries!r})"


def _local_valuation(n: int, p: int) -> int:
    """v_p(n+1), the size of the local family minus one; p must divide n+1."""
    v = valuation(n + 1, p)
    if v == 0:
        raise ZetaError("prime must divide n+1")
    return v


def build_A(n: int, p: int) -> PolyMatrix:
    """Tridiagonal matrix inverting the partial counting series, size v+1.

    Diagonal: 1 at both ends, 1 + X^n in between; -X on the subdiagonal and
    -X^(n-1) on the superdiagonal.
    """
    v = _local_valuation(n, p)
    rows = []
    for i in range(v + 1):
        row = []
        for j in range(v + 1):
            if i == j:
                row.append(POLY_ONE if i in (0, v) else IntPoly((1,) + (0,) * (n - 1) + (1,)))
            elif j == i - 1:
                row.append(IntPoly((0, -1)))
            elif j == i + 1:
                row.append(IntPoly.x_power(n - 1, -1))
            else:
                row.append(POLY_ZERO)
        rows.append(row)
    return PolyMatrix(rows)


def build_B(n: int, p: int) -> PolyMatrix:
    """Numerators of the partial counting series; common denominator 1 - X^n.

    Entry (i, j) counts sublattices of the i-th representative isomorphic to
    the j-th one: X^((j-i)(n-1)) at and above the diagonal, X^(i-j) below.
    """
    v = _local_valuation(n, p)
    rows = []
    for i in range(v + 1):
        row = []
        for j in range(v + 1):
            if j >= i:
                row.append(IntPoly.x_power((j - i) * (n - 1)))
            else:
                row.append(IntPoly.x_power(i - j))
        rows.append(row)
    return PolyMatrix(rows)


def verify_inverse(a: PolyMatrix, b_num: PolyMatrix, n: int) -> bool:
    """Exact check that a * b_num equals (1 - X^n) times the identity."""
    if a.size != b_num.size:
        return False
    scaled_ident = IntPoly((1,) + (0,) * (n - 1) + (-1,))
    prod = a * b_num
    for i in range(a.size):
        for j in range(a.size):
            expect = scaled_ident if i == j else POLY_ZERO
            if prod[i, j] != expect:
                return False
    return True


@dataclass(frozen=True)
class LocalFactor:
    """Counting series numerator over the fixed denominator 1 - X^n."""

    n: int
    numerator: IntPoly

    def series(self, max_exp: int) -> list[int]:
        """First max_exp + 1 power-series coefficients of numerator / (1 - X^n)."""
        if max_exp < 0:
            raise ZetaError("series length must be nonnegative")
        out = []
        for m in range(max_exp + 1):
            total = 0
            k = m
            while k >= 0:
                total += self.numerator[k]
                k -= self.n
            out.append(total)
        return out


def _factor_numerator(n: int, v: int, i: int) -> IntPoly:
    coeffs: dict[int, int] = {}
    for j in range(i + 1):
        coeffs[j] = coeffs.get(j, 0) + 1
    for j in range(i + 1, v + 1):
        e = (j - i) * (n - 1)
        coeffs[e] = coeffs.get(e, 0) + 1
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return IntPoly(out)


def local_factor(n: int, p: int, i: int) -> LocalFactor:
    """Counting series of the lattice L(p^i) at its own prime."""
    v = _local_valuation(n, p)
    if not 0 <= i <= v:
        raise ZetaError("representative index out of range")
    return LocalFactor(n, _factor_numerator(n, v, i))


def _terms(poly: IntPoly, p: int, times: str, power: str) -> list[str]:
    """The nonzero terms c (p^j)^(-s) of one local polynomial, as text.

    `times` separates a coefficient other than 1 from its power, and `power`
    is a format string that receives p^j.
    """
    return [
        str(c) if j == 0 else ("" if c == 1 else f"{c}{times}") + power.format(p**j)
        for j, c in enumerate(poly.coeffs)
        if c
    ]


@dataclass(frozen=True)
class GlobalZeta:
    """Euler-product form: Riemann zeta at n*s times one polynomial per prime."""

    n: int
    d: int
    riemann_exponent: int
    local_factors: tuple[tuple[int, IntPoly], ...]  # (prime, polynomial), ascending

    def dirichlet_terms(self) -> dict[int, int]:
        """Expand the finite product of local polynomials as {u: coefficient}."""
        terms = {1: 1}
        for p, poly in self.local_factors:
            new: dict[int, int] = {}
            for u, c in terms.items():
                for j, cj in enumerate(poly.coeffs):
                    if cj:
                        key = u * p**j
                        new[key] = new.get(key, 0) + c * cj
            terms = new
        return terms

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "riemann_exponent": self.riemann_exponent,
            "local_factors": [
                {"p": p, "coeffs": list(poly.coeffs)} for p, poly in self.local_factors
            ],
        }

    def to_latex(self) -> str:
        factors = (
            "\\,(" + "+".join(_terms(poly, p, "\\cdot ", "{}^{{-s}}")) + ")"
            for p, poly in self.local_factors
        )
        return f"\\zeta_{{\\mathbf{{Q}}}}({self.n}s)" + "".join(factors)

    def to_text(self) -> str:
        factors = (
            "(" + " + ".join(_terms(poly, p, "*", "{}^(-s)")) + ")"
            for p, poly in self.local_factors
        )
        return " * ".join([f"zeta_Q({self.n}s)", *factors])


def global_zeta(n: int, d: int) -> GlobalZeta:
    """Zeta function of the stable lattice L(d); d must divide n+1."""
    if n < 2 or d < 1:
        raise ZetaError("need n >= 2 and d >= 1")
    if (n + 1) % d:
        raise ZetaError("not-a-lattice: d must divide n+1")
    factors = tuple(
        (p, local_factor(n, p, valuation(d, p)).numerator)
        for p in sorted(prime_factorization(n + 1))
    )
    return GlobalZeta(n=n, d=d, riemann_exponent=n, local_factors=factors)


def specht_zeta(n: int) -> GlobalZeta:
    """Zeta function of the Specht basis lattice.

    The lattice is located in the stable family first (it lands at d = n+1),
    so each local polynomial is the full geometric sum 1 + X + ... + X^v with
    v the multiplicity of p in n+1.  The shorter sum stopping at X^(v-1) is
    ruled out by the enumeration oracle: see the verification report.
    """
    _, d = identify_specht_lattice(specht_generators_closed(n), craig_generators(n))
    return global_zeta(n, d)


def dirichlet_coeff(z: GlobalZeta, m: int) -> int:
    """Number of stable sublattices of index m, read off the Euler product.

    The Riemann part contributes perfect n-th powers with coefficient one, so
    a(m) sums the correction coefficients c_u over divisors u of m for which
    m/u is a perfect n-th power.
    """
    if m < 1:
        raise ZetaError("index must be positive")
    total = 0
    for u, c in z.dirichlet_terms().items():
        if m % u == 0 and is_nth_power(m // u, z.riemann_exponent):
            total += c
    return total


def dirichlet_coeffs(z: GlobalZeta, limit: int) -> list[int]:
    """The table [a(1), ..., a(limit)], from one expansion of the Euler product.

    Each correction term c_u adds c_u to a(u x^n) for every x with
    u x^n <= limit; dirichlet_coeff is the same sum taken one index at a time.
    """
    if limit < 1:
        raise ZetaError("limit must be positive")
    n = z.riemann_exponent
    table = [0] * (limit + 1)
    for u, c in z.dirichlet_terms().items():
        x = 1
        while (m := u * x**n) <= limit:
            table[m] += c
            x += 1
    return table[1:]
