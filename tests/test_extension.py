"""Kernel basis, boundary pairs, self-adjointness, and primeness checks."""

import numpy as np
import pytest

import kreinext as kx
from kreinext.errors import GammaBijectivityError, NumericalError, StructureError
from kreinext.exact import toeplitz_TK
from kreinext.extension import lambda_matrix, phi_blocks

from conftest import Pipeline, assert_allclose


@pytest.fixture(scope="module")
def pure10():
    return Pipeline(kx.preset_pure(5, (0.0, 1.0)))


class TestTraceMap:
    def test_lambda_matrix_four_coeff(self, pipelines):
        pipe = pipelines["four-coeff"]
        c, s = np.cosh(1.0), np.sinh(1.0)
        assert_allclose(lambda_matrix(pipe.fm.end()), [[1, 0], [c, s]], 1e-9)


class TestKernelBasis:
    def test_four_coeff_known_basis(self, pipelines):
        # kernel of -y'' + y on [0,1] with unit traces:
        # sinh(1-x)/sinh(1) and sinh(x)/sinh(1)
        pipe = pipelines["four-coeff"]
        c, s = np.cosh(1.0), np.sinh(1.0)
        assert_allclose(pipe.basis.C, [[1, 0], [-c / s, 1 / s]], 1e-9)
        assert_allclose(pipe.basis.Eb, [[0, 1], [-1 / s, c / s]], 1e-9)

    def test_reconstruction(self, pipeline):
        n = pipeline.sys.size
        resid = np.abs(lambda_matrix(pipeline.fm.end()) @ pipeline.basis.C - np.eye(n)).max()
        assert resid <= 1e-9

    def test_singular_trace_map_raises(self):
        # -y'' - pi^2 y has kernel sin(pi x), whose traces vanish at both
        # endpoints of [0,1]; the restricted trace map is singular
        sys = kx.preset_four_coeff(1, "-(pi^2)", 1, 0, (0.0, 1.0))
        fm = kx.fundamental_matrix(sys)
        with pytest.raises(GammaBijectivityError):
            kx.kernel_basis(sys, fm)


class TestKreinPair:
    def test_second_order_pure_values(self, pipelines):
        pipe = pipelines["pure-1"]
        assert_allclose(pipe.krein.A, [[1, 1], [-1, 0]], 1e-9)
        assert_allclose(pipe.krein.B, [[1, 0], [-1, 1]], 1e-9)
        assert_allclose(pipe.B_inv, [[1, 0], [1, 1]], 1e-9)
        assert_allclose(pipe.T, [[1, 1], [0, 1]], 1e-9)

    def test_block_structure(self, pipeline):
        half = pipeline.sys.M * pipeline.sys.N
        phi0_a, phi0_b, phiN_a, phiN_b = phi_blocks(pipeline.basis)
        eye, zero = np.eye(half), np.zeros((half, half))
        assert_allclose(
            pipeline.krein.A, np.block([[-phi0_a, eye], [phi0_b, zero]]), 0
        )
        assert_allclose(
            pipeline.krein.B, np.block([[phiN_a, zero], [-phiN_b, eye]]), 0
        )

    def test_transfer_consistency(self, pipeline):
        # A = B T ties all three products together
        assert_allclose(
            pipeline.krein.A, pipeline.krein.B @ pipeline.T, 1e-7, "A = B T"
        )

    def test_b_inverse_product(self, pipeline):
        n = pipeline.sys.size
        assert_allclose(pipeline.B_inv @ pipeline.krein.B, np.eye(n), 1e-9)

    def test_b_inverse_product_pure_order_10(self, pure10):
        # criterion 8's bound at an order where cond(Lambda) is ~1e8
        n = pure10.sys.size
        assert np.linalg.norm(pure10.B_inv @ pure10.krein.B - np.eye(n)) <= 1e-9

    def test_invert_b_requires_krein_role(self, pipeline):
        with pytest.raises(StructureError):
            kx.invert_B(pipeline.friedrichs)

    def test_invert_b_requires_psi(self, pipeline):
        # a Krein-role pair without Psi(b; 0) has nothing to read B^-1 from
        krein = pipeline.krein
        bare = kx.BoundaryPair(A=krein.A, B=krein.B, role="krein", M=krein.M, N=krein.N)
        with pytest.raises(StructureError):
            kx.invert_B(bare)

    def test_transfer_matrix_requires_psi(self, pipeline):
        krein = pipeline.krein
        bare = kx.BoundaryPair(A=krein.A, B=krein.B, role="krein", M=krein.M, N=krein.N)
        with pytest.raises(StructureError):
            kx.transfer_matrix(bare, pipeline.B_inv)

    def test_invert_b_gate_names_value_and_bound(self, pipeline):
        # a Psi(b; 0) that does not belong to B: the message gives both numbers
        krein = pipeline.krein
        off = kx.BoundaryPair(A=krein.A, B=krein.B, role="krein", M=krein.M, N=krein.N,
                              T=krein.T + 1e-3)
        with pytest.raises(NumericalError, match=r"dense: \d\.\d{3}e-\d\d exceeds 1e-08$"):
            kx.invert_B(off)

    def test_b_inverse_is_read_off_psi(self, pipeline):
        # B^-1 = [[P12, 0], [P22, I]] with P the half blocks of Psi(b; 0)
        half = pipeline.sys.M * pipeline.sys.N
        psi = pipeline.fm.end()
        assert (pipeline.B_inv[:half, :half] == psi[:half, half:]).all()
        assert (pipeline.B_inv[half:, :half] == psi[half:, half:]).all()
        assert (pipeline.B_inv[:half, half:] == 0).all()
        assert (pipeline.B_inv[half:, half:] == np.eye(half)).all()

    def test_transfer_matrix_is_psi(self, pipeline):
        psi = pipeline.fm.end()
        rel = np.linalg.norm(pipeline.T - psi) / np.linalg.norm(psi)
        assert rel <= 1e-10, rel

    @pytest.mark.parametrize("N", range(1, 7))
    def test_transfer_matrix_against_toeplitz_closed_form(self, N):
        # B_K^-1 A_K would re-form P21 by cancellation: 2.5e-10 off at order 12
        T = Pipeline(kx.preset_pure(N, (0.0, 1.0))).T
        exact = np.array(toeplitz_TK(N, (0, 1)), dtype=float)
        rel = np.linalg.norm(T - exact) / np.linalg.norm(exact)
        assert rel <= 1e-15, (2 * N, rel)

    def test_kernel_columns_satisfy_conditions(self, pipeline):
        for col in range(pipeline.sys.size):
            ok, resid = kx.membership(
                pipeline.krein,
                pipeline.basis.C[:, col],
                pipeline.basis.Eb[:, col],
            )
            assert ok, f"column {col} residual {resid:.3e}"

    def test_minimal_traces_satisfy_both(self, pipeline):
        zero = np.zeros(pipeline.sys.size)
        assert kx.membership(pipeline.krein, zero, zero)[0]
        assert kx.membership(pipeline.friedrichs, zero, zero)[0]

    def test_kernel_columns_violate_friedrichs(self, pipeline):
        violations = [
            kx.membership(
                pipeline.friedrichs,
                pipeline.basis.C[:, col],
                pipeline.basis.Eb[:, col],
            )[0]
            for col in range(pipeline.sys.size)
        ]
        assert not any(violations)

    @pytest.mark.parametrize("role", ["krein", "friedrichs"])
    def test_membership_of_a_trace_matrix_is_per_column(self, pipeline, role):
        # one call on the trace matrices gives each column's own call
        pair, basis = getattr(pipeline, role), pipeline.basis
        ok, residual = kx.membership(pair, basis.C, basis.Eb)
        columns = [kx.membership(pair, basis.C[:, col], basis.Eb[:, col])
                   for col in range(pipeline.sys.size)]
        assert ok.tolist() == [bool(col_ok) for col_ok, _ in columns]
        assert_allclose(residual, [col_residual for _, col_residual in columns], 1e-12)


class TestSelfAdjointness:
    def test_krein_pair_certified(self, pipeline):
        report = kx.verify_self_adjoint(pipeline.krein)
        assert report.verdict
        assert report.rank_AB == pipeline.sys.size
        assert report.symplectic_defect <= 1e-8

    def test_friedrichs_pair_certified(self, pipeline):
        report = kx.verify_self_adjoint(pipeline.friedrichs)
        assert report.verdict

    def test_rank_deficient_pair_rejected(self):
        bad = kx.BoundaryPair(
            A=np.zeros((2, 2), dtype=complex),
            B=np.zeros((2, 2), dtype=complex),
            role="custom",
            M=1,
            N=1,
        )
        report = kx.verify_self_adjoint(bad)
        assert not report.verdict and report.rank_AB == 0

    def test_symplectic_violation_rejected(self):
        # periodic-like but with a scaling that breaks A J A* = B J B*
        A = np.eye(2, dtype=complex)
        B = np.diag([2.0, 1.0]).astype(complex)
        report = kx.verify_self_adjoint(kx.BoundaryPair(A=A, B=B, role="custom", M=1, N=1))
        assert not report.verdict and report.symplectic_defect > 1e-2

    def test_entrywise_symplectic_relations(self, pipeline):
        # boundary-block symmetry of the kernel basis: the higher trace of
        # basis function k reflects the conjugated trace of its mirror
        C, Eb = pipeline.basis.C, pipeline.basis.Eb
        N = pipeline.sys.N
        worst = 0.0
        for j in range(1, N + 1):
            for k in range(1, N + 1):
                lhs_a = C[N + j - 1, k - 1]
                rhs_a = (-1) ** (N + j + k + 1) * np.conj(C[2 * N - k, N - j])
                lhs_b = C[N + j - 1, N + k - 1]
                rhs_b = (-1) ** (N + j + k) * np.conj(Eb[2 * N - k, N - j])
                worst = max(worst, abs(lhs_a - rhs_a), abs(lhs_b - rhs_b))
        assert worst <= 1e-8, worst


class TestRelativePrimeness:
    def test_krein_vs_friedrichs_prime(self, pipeline):
        prime, null_dim = kx.relative_primeness(pipeline.krein, pipeline.friedrichs)
        assert prime and null_dim == 0

    def test_krein_vs_itself_full_nullspace(self, pipeline):
        prime, null_dim = kx.relative_primeness(pipeline.krein, pipeline.krein)
        assert not prime and null_dim == pipeline.sys.size

    def test_pure_order_10(self, pure10):
        # unless their rows are scaled to unit norm, the stacked conditions
        # have cond ~4e15 at this order, past the relative rank threshold
        assert kx.relative_primeness(pure10.krein, pure10.friedrichs) == (True, 0)
        assert kx.relative_primeness(pure10.krein, pure10.krein) == (False, pure10.sys.size)

    def test_size_mismatch_rejected(self, pipelines):
        with pytest.raises(StructureError):
            kx.relative_primeness(
                pipelines["pure-1"].krein, pipelines["pure-2"].krein
            )
