import random

import pytest

from hookzeta import verify
from hookzeta.arith import prime_factorization, valuation
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

X = IntPoly((0, 1))


class TestIntPoly:
    def test_trimming(self):
        assert IntPoly((1, 0, 0)).coeffs == (1,)

    def test_arithmetic(self):
        p = IntPoly((1, 2))
        q = IntPoly((0, 1, 1))
        assert p + q == IntPoly((1, 3, 1))
        assert p * q == IntPoly((0, 1, 3, 2))
        assert p - p == POLY_ZERO
        assert 3 * p == IntPoly((3, 6))

    def test_x_power(self):
        assert IntPoly.x_power(3, -1) == IntPoly((0, 0, 0, -1))


class TestBuildA:
    def test_n2_p3(self):
        a = build_A(2, 3)
        assert a.size == 2
        assert a[0, 0] == IntPoly((1,))
        assert a[0, 1] == IntPoly((0, -1))
        assert a[1, 0] == IntPoly((0, -1))
        assert a[1, 1] == IntPoly((1,))

    def test_n3_p2(self):
        a = build_A(3, 2)
        assert a.size == 3
        assert a[0, 1] == IntPoly((0, 0, -1))
        assert a[1, 0] == IntPoly((0, -1))
        assert a[1, 1] == IntPoly((1, 0, 0, 1))
        assert a[0, 2] == POLY_ZERO
        assert a[2, 2] == IntPoly((1,))

    def test_two_by_two_determinant(self):
        for n, p in ((2, 3), (4, 5), (6, 7)):
            a = build_A(n, p)
            d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            assert d == IntPoly((1,) + (0,) * (n - 1) + (-1,))

    def test_bad_prime_rejected(self):
        with pytest.raises(ZetaError):
            build_A(3, 3)


class TestBuildB:
    def test_n2_p3(self):
        b = build_B(2, 3)
        assert b[0, 0] == IntPoly((1,))
        assert b[0, 1] == X
        assert b[1, 0] == X
        assert b[1, 1] == IntPoly((1,))

    def test_diagonal_is_one(self):
        for n, p in ((3, 2), (5, 2), (7, 2), (8, 3)):
            b = build_B(n, p)
            for i in range(b.size):
                assert b[i, i] == IntPoly((1,))

    def test_n3_p2_corner(self):
        assert build_B(3, 2)[0, 2] == IntPoly.x_power(4)


class TestInversion:
    def test_holds_up_to_ten(self):
        check = verify.check_inversion(range(2, 11))
        assert check.passed, check.detail

    def test_perturbation_detected(self):
        a = build_A(3, 2)
        rows = [list(r) for r in a.entries]
        rows[1][1] = rows[1][1] + IntPoly((1,))
        assert not verify_inverse(PolyMatrix(rows), build_B(3, 2), 3)

    def test_row_sums_equal_local_factors(self):
        check = verify.check_row_sums(range(2, 11))
        assert check.passed, check.detail

    def test_tridiagonal_matches_moebius_reconstruction(self):
        check = verify.check_tridiagonal_from_moebius((2, 3, 7))
        assert check.passed, check.detail


class TestLocalFactor:
    def test_n3_p2_values(self):
        assert local_factor(3, 2, 1).numerator == IntPoly((1, 1, 1))
        assert local_factor(3, 2, 0).numerator == IntPoly((1, 0, 1, 0, 1))

    def test_n2_p3_top(self):
        f = local_factor(2, 3, 1)
        assert f.numerator == IntPoly((1, 1))
        assert f.series(6) == [1] * 7

    def test_out_of_range(self):
        with pytest.raises(ZetaError):
            local_factor(3, 2, 3)

    def test_series_examples(self):
        assert LocalFactor(3, IntPoly((1, 1, 1))).series(6) == [1] * 7
        assert LocalFactor(3, IntPoly((1, 0, 1, 0, 1))).series(6) == [1, 0, 1, 1, 1, 1, 1]

    def test_trivial_factor_series(self):
        for n in (2, 3, 5):
            f = LocalFactor(n, IntPoly((1,)))
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
        assert global_zeta(3, 1).local_factors == ((2, IntPoly((1, 0, 1, 0, 1))),)
        assert global_zeta(3, 2).local_factors == ((2, IntPoly((1, 1, 1))),)
        assert global_zeta(3, 4).local_factors == ((2, IntPoly((1, 1, 1))),)


class TestGlobalZeta:
    def test_n2_d1(self):
        z = global_zeta(2, 1)
        assert z.riemann_exponent == 2
        assert z.local_factors == ((3, IntPoly((1, 1))),)

    def test_n3_d4_latex(self):
        assert global_zeta(3, 4).to_latex() == "\\zeta_{\\mathbf{Q}}(3s)\\,(1+2^{-s}+4^{-s})"

    def test_n5_d1(self):
        z = global_zeta(5, 1)
        assert z.local_factors == (
            (2, IntPoly((1, 0, 0, 0, 1))),
            (3, IntPoly((1, 0, 0, 0, 1))),
        )

    def test_renderings_of_a_coefficient_two_term(self):
        z = GlobalZeta(3, 1, 3, ((2, IntPoly((1, 2))), (3, IntPoly((1, 0, 1)))))
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
            "local_factors": [{"p": 3, "coeffs": [1, 1]}],
        }

    def test_constant_terms_are_one(self):
        for n in range(2, 9):
            for d in (1, n + 1):
                for _p, poly in global_zeta(n, d).local_factors:
                    assert poly.coeffs[0] == 1
                    assert all(c >= 0 for c in poly.coeffs)


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
                assert poly == IntPoly((1,) * (valuation(n + 1, p) + 1))


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

    def test_multiplicative_on_coprime_pairs(self):
        check = verify.check_coefficient_multiplicativity(random.Random(2024), 100, 80)
        assert check.passed, check.detail
