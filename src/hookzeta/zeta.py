"""Sublattice-counting zeta functions of the stable hook lattices.

The generating function of stable sublattices of p-power index is a rational
function in X = p^(-s) with denominator 1 - X^n.  A small matrix inversion
identity produces all of these local factors at once: the matrix of pairwise
partial counting series is the exact inverse of an explicitly known
tridiagonal matrix.  Globally, the zeta function of a stable lattice is the
Riemann zeta at n*s times one polynomial correction per prime dividing n+1.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .arith import integer_nth_root, is_nth_power, prime_factorization, valuation
from .specht import craig_generators, identify_specht_lattice, specht_generators_closed

__all__ = [
    "GlobalZeta",
    "IntPoly",
    "LocalFactor",
    "PolyMatrix",
    "ZetaError",
    "build_A",
    "build_B",
    "dirichlet_coeff",
    "dirichlet_coeffs",
    "global_zeta",
    "local_factor",
    "specht_zeta",
    "verify_inverse",
]


class ZetaError(ValueError):
    """Invalid zeta-function request (bad prime, divisor, or range)."""


class IntPoly:
    """Polynomial in one variable over the integers, held as its nonzero terms.

    `terms` is the tuple of (exponent, coefficient) pairs in ascending exponent
    order: the local numerators have at most v + 1 terms whatever their degree.
    """

    __slots__ = ("terms",)

    def __init__(self, pairs=()):
        acc: dict[int, int] = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(self.terms + other.terms)

    def __neg__(self) -> "IntPoly":
        return self * -1

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly([(0, other)])
        return IntPoly((e + f, c * d) for e, c in self.terms for f, d in other.terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.terms)!r})"


POLY_ONE = IntPoly([(0, 1)])
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
    middle = IntPoly([(0, 1), (n, 1)])
    band = {-1: IntPoly([(1, -1)]), 0: POLY_ONE, 1: IntPoly([(n - 1, -1)])}
    return PolyMatrix(
        [middle if i == j and 0 < i < v else band.get(j - i, POLY_ZERO) for j in range(v + 1)]
        for i in range(v + 1)
    )


def build_B(n: int, p: int) -> PolyMatrix:
    """Numerators of the partial counting series; common denominator 1 - X^n.

    Entry (i, j) counts sublattices of the i-th representative isomorphic to
    the j-th one: X^((j-i)(n-1)) at and above the diagonal, X^(i-j) below.
    """
    v = _local_valuation(n, p)
    return PolyMatrix(
        [IntPoly([((j - i) * (n - 1) if j >= i else i - j, 1)]) for j in range(v + 1)]
        for i in range(v + 1)
    )


def verify_inverse(a: PolyMatrix, b_num: PolyMatrix, n: int) -> bool:
    """Exact check that a * b_num equals (1 - X^n) times the identity."""
    if a.size != b_num.size:
        return False
    scaled_ident = IntPoly([(0, 1), (n, -1)])
    r = range(a.size)
    return a * b_num == PolyMatrix([scaled_ident if i == j else POLY_ZERO for j in r] for i in r)


@dataclass(frozen=True)
class LocalFactor:
    """Counting series numerator over the fixed denominator 1 - X^n."""

    n: int
    numerator: IntPoly

    def series(self, max_exp: int) -> list[int]:
        """First max_exp + 1 power-series coefficients of numerator / (1 - X^n)."""
        if max_exp < 0:
            raise ZetaError("series length must be nonnegative")
        out = [0] * (max_exp + 1)
        for e, c in self.numerator.terms:
            for m in range(e, max_exp + 1, self.n):
                out[m] += c
        return out


def _factor_numerator(n: int, v: int, i: int) -> IntPoly:
    """X^j for j <= i plus X^((j-i)(n-1)) for i < j <= v: one term per representative."""
    return IntPoly((j if j <= i else (j - i) * (n - 1), 1) for j in range(v + 1))


def local_factor(n: int, p: int, i: int) -> LocalFactor:
    """Counting series of the lattice L(p^i) at its own prime."""
    v = _local_valuation(n, p)
    if not 0 <= i <= v:
        raise ZetaError("representative index out of range")
    return LocalFactor(n, _factor_numerator(n, v, i))


def _terms(poly: IntPoly, p: int, times: str, power: str, big: str) -> list[str]:
    """The nonzero terms c (p^j)^(-s) of one local polynomial, as text.

    `times` separates a coefficient other than 1 from its power, and `power`
    is a format string that receives p^j.  A p^j with more digits than
    `sys.get_int_max_str_digits()` allows (0 means no limit) goes in as
    `big.format(p, j)` instead, and is never formed: p^j >= 2^(j (b - 1)) for
    p of b bits, so it is past the limit D when j (b - 1) reaches the bit
    length of 10^D, and otherwise small enough to compare with 10^D.
    """
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = 10**digits if digits else None

    def base(j: int) -> str:
        if top is None or (j * (p.bit_length() - 1) < top.bit_length() and p**j < top):
            return str(p**j)
        return big.format(p, j)

    return [
        str(c) if j == 0 else ("" if c == 1 else f"{c}{times}") + power.format(base(j))
        for j, c in poly.terms
    ]


@dataclass(frozen=True)
class GlobalZeta:
    """Euler-product form: Riemann zeta at n*s times one polynomial per prime."""

    n: int
    d: int
    riemann_exponent: int
    local_factors: tuple[tuple[int, IntPoly], ...]  # (prime, sparse polynomial), ascending

    def dirichlet_terms(self, limit: int) -> dict[int, int]:
        """Expand the product of local polynomials as {u: coefficient}, for u <= limit.

        Each p^j is reached by repeated multiplication that stops once it
        passes limit // u, so no power past the limit is formed.
        """
        terms = {1: 1}
        for p, poly in self.local_factors:
            new: dict[int, int] = {}
            for u, c in terms.items():
                top, j, pj = limit // u, 0, 1
                for e, ce in poly.terms:
                    while j < e and pj <= top:
                        j, pj = j + 1, pj * p
                    if pj > top:
                        break
                    new[u * pj] = new.get(u * pj, 0) + c * ce
            terms = new
        return terms

    def to_json_dict(self) -> dict:
        """Each local polynomial as its [j, c] pairs: sized by its terms, not its degree."""
        return {
            "n": self.n,
            "d": self.d,
            "riemann_exponent": self.riemann_exponent,
            "local_factors": [
                {"p": p, "terms": [list(t) for t in poly.terms]} for p, poly in self.local_factors
            ],
        }

    def to_latex(self) -> str:
        factors = (
            "\\,(" + "+".join(_terms(poly, p, "\\cdot ", "{}^{{-s}}", "{{{}^{{{}}}}}")) + ")"
            for p, poly in self.local_factors
        )
        return f"\\zeta_{{\\mathbf{{Q}}}}({self.n}s)" + "".join(factors)

    def to_text(self) -> str:
        factors = (
            "(" + " + ".join(_terms(poly, p, "*", "{}^(-s)", "({}^{})")) + ")"
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
    for u, c in z.dirichlet_terms(m).items():
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
    for u, c in z.dirichlet_terms(limit).items():
        for x in range(1, integer_nth_root(limit // u, n) + 1):
            table[u * x**n] += c
    return table[1:]
