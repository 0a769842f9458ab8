import random
import re
import sys

import pytest

from hookzeta import verify
from hookzeta.arith import integer_nth_root, prime_factorization, valuation
from hookzeta.zeta import (
    POLY_ZERO,
    GlobalZeta,
    IntPoly,
    LocalFactor,
    PolyMatrix,
    ZetaError,
    build_A,
    build_B,
    dirichlet_coeff,
    dirichlet_coeffs,
    global_zeta,
    local_factor,
    specht_zeta,
    verify_inverse,
)

X = IntPoly(enumerate((0, 1)))


def dense_numerator(n: int, v: int, i: int) -> list[int]:
    """The paper's numerator of L(p^i) as a dense coefficient list, without IntPoly:
    X^j for j <= i and X^((j-i)(n-1)) for i < j <= v."""
    exps = list(range(i + 1)) + [(j - i) * (n - 1) for j in range(i + 1, v + 1)]
    out = [0] * (max(exps) + 1)
    for e in exps:
        out[e] += 1
    return out


def dense_series(n: int, coeffs: list[int], max_exp: int) -> list[int]:
    """Coefficients of coeffs / (1 - X^n): term m sums coeffs[m], coeffs[m - n], ..."""
    padded = coeffs + [0] * max_exp
    return [sum(padded[m::-n]) for m in range(max_exp + 1)]


def dense_terms(coeffs: list[int], p: int, times: str, power: str) -> list[str]:
    """The nonzero terms c (p^j)^(-s) of a dense coefficient list, as text."""
    return [
        str(c) if j == 0 else ("" if c == 1 else f"{c}{times}") + power.format(p**j)
        for j, c in enumerate(coeffs)
        if c
    ]


class TestIntPoly:
    def test_trimming(self):
        assert IntPoly(enumerate((1, 0, 0))).terms == ((0, 1),)

    def test_arithmetic(self):
        p = IntPoly(enumerate((1, 2)))
        q = IntPoly(enumerate((0, 1, 1)))
        assert p + q == IntPoly(enumerate((1, 3, 1)))
        assert p * q == IntPoly(enumerate((0, 1, 3, 2)))
        assert p - p == POLY_ZERO
        assert 3 * p == IntPoly(enumerate((3, 6)))

    def test_x_power(self):
        assert IntPoly([(3, -1)]) == IntPoly(enumerate((0, 0, 0, -1)))


class TestBuildA:
    def test_n2_p3(self):
        a = build_A(2, 3)
        assert a.size == 2
        assert a[0, 0] == IntPoly(enumerate((1,)))
        assert a[0, 1] == IntPoly(enumerate((0, -1)))
        assert a[1, 0] == IntPoly(enumerate((0, -1)))
        assert a[1, 1] == IntPoly(enumerate((1,)))

    def test_n3_p2(self):
        a = build_A(3, 2)
        assert a.size == 3
        assert a[0, 1] == IntPoly(enumerate((0, 0, -1)))
        assert a[1, 0] == IntPoly(enumerate((0, -1)))
        assert a[1, 1] == IntPoly(enumerate((1, 0, 0, 1)))
        assert a[0, 2] == POLY_ZERO
        assert a[2, 2] == IntPoly(enumerate((1,)))

    def test_two_by_two_determinant(self):
        for n, p in ((2, 3), (4, 5), (6, 7)):
            a = build_A(n, p)
            d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            assert d == IntPoly(enumerate((1,) + (0,) * (n - 1) + (-1,)))

    def test_bad_prime_rejected(self):
        with pytest.raises(ZetaError):
            build_A(3, 3)


class TestBuildB:
    def test_n2_p3(self):
        b = build_B(2, 3)
        assert b[0, 0] == IntPoly(enumerate((1,)))
        assert b[0, 1] == X
        assert b[1, 0] == X
        assert b[1, 1] == IntPoly(enumerate((1,)))

    def test_diagonal_is_one(self):
        for n, p in ((3, 2), (5, 2), (7, 2), (8, 3)):
            b = build_B(n, p)
            for i in range(b.size):
                assert b[i, i] == IntPoly(enumerate((1,)))

    def test_n3_p2_corner(self):
        assert build_B(3, 2)[0, 2] == IntPoly([(4, 1)])


class TestInversion:
    def test_holds_up_to_ten(self):
        check = verify.check_inversion(range(2, 11))
        assert check.passed, check.detail

    def test_perturbation_detected(self):
        a = build_A(3, 2)
        rows = [list(r) for r in a.entries]
        rows[1][1] = rows[1][1] + IntPoly(enumerate((1,)))
        assert not verify_inverse(PolyMatrix(rows), build_B(3, 2), 3)

    def test_row_sums_equal_local_factors(self):
        check = verify.check_row_sums(range(2, 11))
        assert check.passed, check.detail

    def test_tridiagonal_matches_moebius_reconstruction(self):
        check = verify.check_tridiagonal_from_moebius((2, 3, 7))
        assert check.passed, check.detail


class TestLocalFactor:
    def test_n3_p2_values(self):
        assert local_factor(3, 2, 1).numerator == IntPoly(enumerate((1, 1, 1)))
        assert local_factor(3, 2, 0).numerator == IntPoly(enumerate((1, 0, 1, 0, 1)))

    def test_n2_p3_top(self):
        f = local_factor(2, 3, 1)
        assert f.numerator == IntPoly(enumerate((1, 1)))
        assert f.series(6) == [1] * 7

    def test_out_of_range(self):
        with pytest.raises(ZetaError):
            local_factor(3, 2, 3)

    def test_series_examples(self):
        assert LocalFactor(3, IntPoly(enumerate((1, 1, 1)))).series(6) == [1] * 7
        f = LocalFactor(3, IntPoly(enumerate((1, 0, 1, 0, 1))))
        assert f.series(6) == [1, 0, 1, 1, 1, 1, 1]

    def test_trivial_factor_series(self):
        for n in (2, 3, 5):
            f = LocalFactor(n, IntPoly(enumerate((1,))))
            series = f.series(2 * n)
            assert series == [1 if m % n == 0 else 0 for m in range(2 * n + 1)]

    def test_series_nonnegative(self):
        for n in range(2, 9):
            for p in sorted(prime_factorization(n + 1)):
                for i in range(valuation(n + 1, p) + 1):
                    assert all(c >= 0 for c in local_factor(n, p, i).series(12))

    def test_series_matches_walk(self):
        check = verify.check_local_series_vs_enumeration(range(2, 7), 6)
        assert check.passed, check.detail


class TestTheoremFactor:
    def test_n3_values(self):
        assert global_zeta(3, 1).local_factors == ((2, IntPoly(enumerate((1, 0, 1, 0, 1)))),)
        assert global_zeta(3, 2).local_factors == ((2, IntPoly(enumerate((1, 1, 1)))),)
        assert global_zeta(3, 4).local_factors == ((2, IntPoly(enumerate((1, 1, 1)))),)


class TestGlobalZeta:
    def test_n2_d1(self):
        z = global_zeta(2, 1)
        assert z.riemann_exponent == 2
        assert z.local_factors == ((3, IntPoly(enumerate((1, 1)))),)

    def test_n3_d4_latex(self):
        assert global_zeta(3, 4).to_latex() == "\\zeta_{\\mathbf{Q}}(3s)\\,(1+2^{-s}+4^{-s})"

    def test_n5_d1(self):
        z = global_zeta(5, 1)
        assert z.local_factors == (
            (2, IntPoly(enumerate((1, 0, 0, 0, 1)))),
            (3, IntPoly(enumerate((1, 0, 0, 0, 1)))),
        )

    def test_renderings_of_a_coefficient_two_term(self):
        z = GlobalZeta(
            3, 1, 3, ((2, IntPoly(enumerate((1, 2)))), (3, IntPoly(enumerate((1, 0, 1)))))
        )
        assert z.to_text() == "zeta_Q(3s) * (1 + 2*2^(-s)) * (1 + 9^(-s))"
        assert z.to_latex() == "\\zeta_{\\mathbf{Q}}(3s)\\,(1+2\\cdot 2^{-s})\\,(1+9^{-s})"

    def test_invalid_divisor(self):
        with pytest.raises(ZetaError, match="not-a-lattice"):
            global_zeta(3, 3)

    def test_json_shape(self):
        blob = global_zeta(2, 1).to_json_dict()
        assert blob == {
            "n": 2,
            "d": 1,
            "riemann_exponent": 2,
            "local_factors": [{"p": 3, "terms": [[0, 1], [1, 1]]}],
        }

    def test_constant_terms_are_one(self):
        for n in range(2, 9):
            for d in (1, n + 1):
                for _p, poly in global_zeta(n, d).local_factors:
                    assert poly.terms[0] == (0, 1)
                    assert all(c >= 0 for _, c in poly.terms)


@pytest.fixture
def digit_limit():
    """Sets the interpreter's int-to-str digit limit for one test, then restores it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


class TestPowersPastTheDigitLimit:
    """A p^j with more decimal digits than the interpreter prints is written
    as (p^j)^(-s) in text and {p^{j}}^{-s} in latex; every other term keeps
    its decimal form."""

    def test_n5000(self, digit_limit):
        # 5001 = 3 * 1667: 3^4999 has 2386 digits, 1667^4999 has 16104.
        digit_limit(4300)
        z = global_zeta(5000, 1)
        assert z.to_text() == f"zeta_Q(5000s) * (1 + {3**4999}^(-s)) * (1 + (1667^4999)^(-s))"
        assert z.to_latex() == (
            f"\\zeta_{{\\mathbf{{Q}}}}(5000s)\\,(1+{3**4999}^{{-s}})\\,(1+{{1667^{{4999}}}}^{{-s}})"
        )

    def test_n1000000(self, digit_limit):
        # 1000001 = 101 * 9901: both powers are past the limit.
        digit_limit(4300)
        z = global_zeta(10**6, 1)
        assert z.to_text() == "zeta_Q(1000000s) * (1 + (101^999999)^(-s)) * (1 + (9901^999999)^(-s))"
        assert z.to_latex() == (
            "\\zeta_{\\mathbf{Q}}(1000000s)\\,(1+{101^{999999}}^{-s})\\,(1+{9901^{999999}}^{-s})"
        )

    def test_boundary(self, digit_limit):
        # A power prints in full exactly when it has at most 640 digits, on
        # both sides of the bit-length shortcut (2^2127 is the first power of
        # 2 past 10^640) and of the exact comparison (10^640 has 641 digits).
        digit_limit(640)
        for p, j in ((2, 2126), (2, 2127), (10, 639), (10, 640), (3, 1341), (3, 1342)):
            z = GlobalZeta(2, 1, 2, ((p, IntPoly([(0, 1), (j, 1)])),))
            fits = p**j < 10**640
            assert z.to_text().endswith(f"{p**j}^(-s))" if fits else f"({p}^{j})^(-s))"), (p, j)
            assert z.to_latex().endswith(f"{p**j}^{{-s}})" if fits else f"{{{p}^{{{j}}}}}^{{-s}})")
            assert fits == (j in (2126, 639, 1341)), (p, j)

    def test_no_limit_prints_every_power(self, digit_limit, monkeypatch):
        # A limit of 0 means none, as does a Python without the limit.
        digit_limit(0)
        want = f"zeta_Q(5000s) * (1 + {3**4999}^(-s)) * (1 + {1667**4999}^(-s))"
        assert global_zeta(5000, 1).to_text() == want
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert global_zeta(5000, 1).to_text() == want

    def test_no_term_past_the_limit_up_to_n200(self, digit_limit):
        digit_limit(4300)
        for n in range(2, 201):
            for d in (x for x in range(1, n + 2) if (n + 1) % x == 0):
                z = global_zeta(n, d)
                assert not re.search(r"\(\d+\^\d+\)", z.to_text()), (n, d)
                assert not re.search(r"\{\d+\^\{", z.to_latex()), (n, d)


class TestDenseOracle:
    """Every output of the sparse polynomials against the dense closed form."""

    def test_outputs_match_the_dense_numerators(self):
        for n in range(2, 201):
            for d in (x for x in range(1, n + 2) if (n + 1) % x == 0):
                z = global_zeta(n, d)
                dense = {
                    p: dense_numerator(n, valuation(n + 1, p), valuation(d, p))
                    for p in sorted(prime_factorization(n + 1))
                }
                factors = z.to_json_dict()["local_factors"]
                assert factors == [
                    {"p": p, "terms": [[j, x] for j, x in enumerate(c) if x]}
                    for p, c in dense.items()
                ], (n, d)
                for factor, (p, poly) in zip(factors, z.local_factors):
                    assert IntPoly(map(tuple, factor["terms"])) == poly, (n, d, p)
                text = [
                    "(" + " + ".join(dense_terms(c, p, "*", "{}^(-s)")) + ")"
                    for p, c in dense.items()
                ]
                assert z.to_text() == " * ".join([f"zeta_Q({n}s)", *text]), (n, d)
                latex = "".join(
                    "\\,(" + "+".join(dense_terms(c, p, "\\cdot ", "{}^{{-s}}")) + ")"
                    for p, c in dense.items()
                )
                assert z.to_latex() == f"\\zeta_{{\\mathbf{{Q}}}}({n}s)" + latex, (n, d)
                for p, c in dense.items():
                    series = local_factor(n, p, valuation(d, p)).series(3 * n)
                    assert series == dense_series(n, c, 3 * n), (n, d, p)


class TestSpechtZeta:
    def test_small_cases(self):
        assert specht_zeta(2).to_latex() == "\\zeta_{\\mathbf{Q}}(2s)\\,(1+3^{-s})"
        assert specht_zeta(3).to_latex() == "\\zeta_{\\mathbf{Q}}(3s)\\,(1+2^{-s}+4^{-s})"
        assert specht_zeta(4).to_latex() == "\\zeta_{\\mathbf{Q}}(4s)\\,(1+5^{-s})"

    def test_full_geometric_sum(self):
        for n in range(2, 8):
            z = specht_zeta(n)
            assert z.d == n + 1
            for p, poly in z.local_factors:
                assert poly == IntPoly(enumerate((1,) * (valuation(n + 1, p) + 1)))


class TestIntegerNthRoot:
    def test_matches_brute_force(self):
        for n in range(1, 13):
            for m in range(301):
                want = max(x for x in range(m + 1) if x**n <= m)
                assert integer_nth_root(m, n) == want, (m, n)

    def test_root_one_at_large_exponents(self):
        # n >= m.bit_length() means 1 <= m < 2^n; n = 10^100 would hang if a
        # power were formed.
        assert integer_nth_root(2**40 - 1, 40) == 1
        assert integer_nth_root(2**40, 40) == 2
        assert integer_nth_root(10**6, 10**100) == 1
        assert integer_nth_root(0, 10**100) == 0


class TestDirichletCoeff:
    def test_one(self):
        for n, d in ((2, 1), (3, 4), (5, 6)):
            assert dirichlet_coeff(global_zeta(n, d), 1) == 1

    def test_n2_d1_examples(self):
        z = global_zeta(2, 1)
        assert dirichlet_coeff(z, 9) == 1
        assert dirichlet_coeff(z, 12) == 1
        assert dirichlet_coeff(z, 2) == 0
        nonzero = [m for m in range(1, 13) if dirichlet_coeff(z, m)]
        assert nonzero == [1, 3, 4, 9, 12]

    def test_table_equals_per_index_coefficients(self):
        for n in range(2, 9):
            for d in (x for x in range(1, n + 2) if (n + 1) % x == 0):
                z = global_zeta(n, d)
                want = [dirichlet_coeff(z, m) for m in range(1, 3001)]
                assert dirichlet_coeffs(z, 3000) == want, (n, d)

    def test_table_needs_a_positive_limit(self):
        with pytest.raises(ZetaError):
            dirichlet_coeffs(global_zeta(2, 1), 0)

    def test_large_n_stays_term_sized(self):
        z = global_zeta(10**6, 1)
        assert [len(poly.terms) for _, poly in z.local_factors] == [2, 2]
        assert dirichlet_coeffs(z, 10) == [1] + [0] * 9

    def test_multiplicative_on_coprime_pairs(self):
        check = verify.check_coefficient_multiplicativity(random.Random(2024), 100, 80)
        assert check.passed, check.detail
