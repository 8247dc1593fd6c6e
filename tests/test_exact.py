"""Exact rational suite for the pure operator: combinatorial identities,
closed-form inverses, boundary bases, and the Toeplitz factorization."""

from fractions import Fraction
from math import factorial, gcd

import numpy as np
import pytest

import kreinext as kx
from kreinext import exact

from conftest import assert_allclose


class TestBinomials:
    def test_negative_lower_index_is_zero(self):
        assert exact.binom(5, -2) == 0
        assert exact.binom(Fraction(1, 2), -1) == 0

    def test_generalized_upper_index(self):
        assert exact.binom(-1, 3) == -1
        assert exact.binom(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_matches_factorial_formula(self):
        for r in range(8):
            for k in range(r + 1):
                assert exact.binom(r, k) == factorial(r) // (
                    factorial(k) * factorial(r - k)
                )

    def test_inv_factorial_convention(self):
        assert exact.inv_factorial(-1) == 0
        assert exact.inv_factorial(0) == 1
        assert exact.inv_factorial(4) == Fraction(1, 24)


class TestCombinatorialIdentities:
    @pytest.mark.parametrize("which", ["i", "ii", "iii"])
    def test_identity_holds(self, which):
        ok, counterexample = exact.binom_identity_check(which)
        assert ok, counterexample


class TestClosedFormInverses:
    @pytest.mark.parametrize("N", range(1, 11))
    def test_d_inverse_matches_elimination_oracle(self, N):
        assert exact.matrix_D_inverse(N) == exact.gauss_inverse(exact.matrix_D(N))

    @pytest.mark.parametrize("N", range(1, 11))
    def test_lambda_inverse_matches_elimination_oracle(self, N):
        assert exact.lambda_inverse(N) == exact.gauss_inverse(
            exact.lambda_matrix_exact(N)
        )

    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (2, 1)])
    @pytest.mark.parametrize("builder", ["_coupling_block", "_d_inverse_rows"])
    def test_wrong_entry_fails_the_defining_identity(self, monkeypatch, builder, entry):
        # one integer entry of (N-1)! Lambda^-1 off by one before the check
        closed_form = getattr(exact, builder)

        def perturbed(N, S):
            rows = closed_form(N, S)
            rows[entry[0]][entry[1]] += 1
            return rows

        monkeypatch.setattr(exact, builder, perturbed)
        with pytest.raises(AssertionError, match="defining identity"):
            exact.lambda_inverse(3)

    def test_gauss_inverse_rejects_singular(self):
        with pytest.raises(ZeroDivisionError):
            exact.gauss_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


class TestBoundaryBasis:
    @pytest.mark.parametrize("N", range(1, 7))
    def test_unit_traces_on_reference_interval(self, N):
        basis = exact.phi_on_interval(N, (0, 1))
        for k in range(1, 2 * N + 1):
            for j in range(1, N + 1):
                want_a = Fraction(1) if k == j else Fraction(0)
                want_b = Fraction(1) if k == N + j else Fraction(0)
                assert basis.derivative_at(k, j - 1, Fraction(0)) == want_a
                assert basis.derivative_at(k, j - 1, Fraction(1)) == want_b

    @pytest.mark.parametrize("interval", [(0, 1), (Fraction(1, 3), Fraction(7, 2))])
    def test_unit_traces_on_scaled_interval(self, interval):
        N = 3
        basis = exact.phi_on_interval(N, interval)
        a = Fraction(interval[0])
        b = Fraction(interval[1])
        for k in range(1, 2 * N + 1):
            for j in range(1, N + 1):
                want_a = Fraction(1) if k == j else Fraction(0)
                want_b = Fraction(1) if k == N + j else Fraction(0)
                assert basis.derivative_at(k, j - 1, a) == want_a
                assert basis.derivative_at(k, j - 1, b) == want_b


class TestPhiBlocks:
    def test_second_order_values(self):
        phi0_a, phi0_b, phiN_a, phiN_b = exact.phi_blocks(1, (0, 1))
        assert phi0_a == [[Fraction(-1)]]
        assert phi0_b == [[Fraction(-1)]]
        assert phiN_a == [[Fraction(1)]]
        assert phiN_b == [[Fraction(1)]]

    def test_fourth_order_values(self):
        phi0_a, phi0_b, phiN_a, phiN_b = exact.phi_blocks(2, (0, 1))
        assert phi0_a == [[Fraction(-6), Fraction(-4)], [Fraction(12), Fraction(6)]]
        assert phi0_b == [[Fraction(6), Fraction(2)], [Fraction(12), Fraction(6)]]
        assert phiN_a == [[Fraction(6), Fraction(-2)], [Fraction(-12), Fraction(6)]]
        assert phiN_b == [[Fraction(-6), Fraction(4)], [Fraction(-12), Fraction(6)]]

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_matches_numeric_pipeline(self, N):
        from kreinext.extension import phi_blocks as numeric_blocks

        sys = kx.preset_pure(N, (0.0, 1.0))
        fm = kx.fundamental_matrix(sys)
        basis = kx.kernel_basis(sys, fm)
        numeric = numeric_blocks(basis)
        closed = exact.phi_blocks(N, (0, 1))
        for num, exa in zip(numeric, closed):
            assert_allclose(num, np.array(exa, dtype=float), 1e-7)

    def test_wrong_basis_fails_the_cross_check(self, monkeypatch):
        # a basis coefficient that a derivative of order N..2N-1 reads
        scaled_rows = exact._scaled_rows

        def perturbed(N, L, hp):
            rows = scaled_rows(N, L, hp)
            rows[-1][0] += 1
            return rows

        monkeypatch.setattr(exact, "_scaled_rows", perturbed)
        with pytest.raises(AssertionError, match="differ from the basis"):
            exact.phi_blocks(2, (Fraction(1, 3), Fraction(7, 2)))

    def test_float_interval_is_exact(self):
        # a float endpoint is taken at its exact binary value
        h = Fraction(np.sqrt(2.0))
        phi0_a, _, _, _ = exact.phi_blocks(1, (0.0, np.sqrt(2.0)))
        assert phi0_a == [[-1 / h]]
        assert exact.phi_on_interval(1, (0.0, np.sqrt(2.0))).length == h
        assert exact.toeplitz_TK(1, (0.0, np.sqrt(2.0))) == [[1, h], [0, 1]]


class TestFactorization:
    def test_toeplitz_structure(self):
        T = exact.toeplitz_TK(2, (0, 1))
        assert T == [
            [1, 1, Fraction(1, 2), Fraction(1, 6)],
            [0, 1, 1, Fraction(1, 2)],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
        ]

    def test_toeplitz_length_scaling(self):
        h = Fraction(3)
        T = exact.toeplitz_TK(1, (0, h))
        assert T == [[1, 3], [0, 1]]

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("block", range(4), ids=["phi0_a", "phi0_b", "phiN_a", "phiN_b"])
    def test_wrong_block_is_caught(self, monkeypatch, block, entry):
        # each block enters at least one of the four block identities
        closed_form = exact.phi_blocks

        def perturbed(N, interval):
            blocks = [[list(row) for row in X] for X in closed_form(N, interval)]
            j, k = entry
            blocks[block][j][k] += Fraction(1, 7)
            return tuple(blocks)

        interval = (Fraction(1, 3), Fraction(7, 2))
        assert exact.verify_factorization(2, interval)
        monkeypatch.setattr(exact, "phi_blocks", perturbed)
        assert not exact.verify_factorization(2, interval)

    @pytest.mark.parametrize("N", range(1, 11))
    def test_reference_interval(self, N):
        assert exact.verify_factorization(N, (0, 1))

    @pytest.mark.parametrize("N", range(1, 6))
    def test_rational_interval(self, N):
        assert exact.verify_factorization(N, (Fraction(1, 3), Fraction(7, 2)))

    @pytest.mark.parametrize("N", [2, 8, 9, 10])
    def test_irrational_interval(self, N):
        # float endpoints are taken at their exact binary values
        assert exact.verify_factorization(N, (0.0, np.sqrt(2.0)))


@pytest.mark.parametrize(
    "interval", [(0, 1), (Fraction(-1, 2), Fraction(5, 3)), (0.0, np.sqrt(2.0))]
)
@pytest.mark.parametrize("N", [1, 4, 7])
def test_results_are_fractions_in_lowest_terms(N, interval):
    matrices = [
        exact.lambda_inverse(N),
        exact.matrix_D_inverse(N),
        exact.toeplitz_TK(N, interval),
        exact.phi_on_interval(N, interval).coeffs,
        *exact.phi_blocks(N, interval),
    ]
    for matrix in matrices:
        for v in (v for row in matrix for v in row):
            assert type(v) is Fraction, v
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1, v
