"""System construction, structural validation, and companion matrices."""

import numpy as np
import pytest

import kreinext as kx
from kreinext.errors import EvaluationError, StructureError
from kreinext.system import VALIDATION_SAMPLES, MatrixFn, as_matrix_fn, chebyshev_points

from conftest import PRESETS, assert_allclose


def z_block(sys, j, k):
    """1-based access to the coefficient grid."""
    return sys.Z[j - 1][k - 1]


class TestInterval:
    def test_length(self):
        assert kx.Interval(1.0, 3.5).length == 2.5

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (0.0, np.inf)])
    def test_rejects_bad_endpoints(self, a, b):
        with pytest.raises(StructureError):
            kx.Interval(a, b)


class TestMatrixFn:
    def test_constant_evaluation(self):
        fn = MatrixFn.constant([[1, 2], [3, 4]])
        assert fn.is_constant
        assert_allclose(fn(0.7), [[1, 2], [3, 4]], 0)

    def test_expression_evaluation(self):
        fn = MatrixFn([["x^2", "0"], ["0", "sin(x)"]])
        assert not fn.is_constant
        out = fn(2.0)
        assert abs(out[0, 0] - 4.0) < 1e-15
        assert abs(out[1, 1] - np.sin(2.0)) < 1e-15

    def test_x_free_expressions_fold_to_constants(self):
        fn = MatrixFn([["2*pi", "-(1/4)"], ["exp(i*pi)", "3"]])
        assert fn.is_constant
        assert_allclose(fn(0.3), [[2 * np.pi, -0.25], [-1, 3]], 1e-15)
        assert kx.preset_four_coeff("1", "1", "1", "0", (0, 1)).is_constant

    def test_real_valued_function_folds_to_a_constant(self):
        # abs is real-valued; its entry is still a complex constant
        fn = MatrixFn([["abs(-3)", "x"]])
        assert len(fn._varying) == 1
        assert fn._const[0, 0] == 3 and fn._const.dtype == complex

    def test_x_free_evaluation_error_raised_on_build(self):
        with pytest.raises(EvaluationError):
            MatrixFn([["x", "1/0"]])

    def test_conj_transpose(self):
        fn = MatrixFn([["i", "2"], ["x", "0"]])
        out = fn.conj_transpose()(3.0)
        assert_allclose(out, [[-1j, 3], [2, 0]], 1e-15)

    def test_negate(self):
        fn = MatrixFn([["x"]])
        assert fn.negate()(2.0)[0, 0] == -2.0

    def test_array_call_stacks_scalar_calls(self):
        fn = MatrixFn([["2", "x^2"], ["sin(x)", "i"]])
        xs = np.array([[0.0, 0.5], [1.0, 2.5]])
        out = fn(xs)
        assert out.shape == (2, 2, 2, 2)
        assert np.array_equal(out, np.array([[fn(x) for x in row] for row in xs.tolist()]))

    def test_array_call_error_names_entry_and_point(self):
        fn = MatrixFn([["1", "1/x"]])
        with pytest.raises(EvaluationError, match=r"entry \(1,2\).*at x=0\.0"):
            fn(np.array([1.0, 0.0]))

    def test_array_call_error_names_the_first_bad_point(self):
        fn = MatrixFn([["x", "1"], ["1/(x-1) + 1/(x+1)", "1"]])
        with pytest.raises(EvaluationError, match=r"entry \(2,1\).*'\(1\.0/\(x\+1\.0\)\)' at x=-1\.0"):
            fn(np.array([[0.0, -1.0], [1.0, 0.5]]))

    @pytest.mark.parametrize("value, m", [(2, 3), ("x", 2), ("abs(-2)", 2)])
    def test_scalar_and_expression_coerce_to_a_diagonal(self, value, m):
        fn = as_matrix_fn(value, m)
        assert fn.rows == fn.cols == m
        assert np.array_equal(fn(2.0), 2.0 * np.eye(m))

    def test_rejects_ragged_grid(self):
        with pytest.raises(StructureError):
            MatrixFn([[1, 2], [3]])


class TestJMatrix:
    def test_order_two(self):
        assert_allclose(kx.block_j_matrix(1, 2), [[0, -1], [1, 0]], 0)

    def test_block_antidiagonal_signs(self):
        J = kx.block_j_matrix(2, 4)
        expected = np.zeros((8, 8))
        for j in range(1, 5):
            expected[(j - 1) * 2 : j * 2, (4 - j) * 2 : (5 - j) * 2] = (
                (-1) ** j * np.eye(2)
            )
        assert_allclose(J, expected, 0)

    def test_involution_up_to_sign(self):
        J = kx.block_j_matrix(1, 4)
        assert_allclose(J @ J, -np.eye(4), 0)

    def test_real(self):
        assert kx.block_j_matrix(2, 4).dtype == np.float64


class TestPresets:
    def test_pure_grid(self):
        sys = kx.preset_pure(2, (0.0, 1.0))
        Z = np.array(
            [[z_block(sys, j, k)(0.5).item() for k in range(1, 5)] for j in range(1, 5)]
        )
        assert_allclose(Z, np.eye(4, k=1), 0)
        assert sys.order == 4 and sys.size == 4

    def test_fourth_order_grid(self):
        sys = kx.preset_fourth_order()
        Z = np.array(
            [[z_block(sys, j, k)(0.5).item() for k in range(1, 5)] for j in range(1, 5)]
        )
        expected = np.eye(4, k=1)
        expected[3, 0] = -1.0
        assert_allclose(Z, expected, 0)
        assert abs(sys.interval.b - np.sqrt(2) * np.pi) < 1e-12

    def test_four_coeff_grid(self):
        sys = kx.preset_four_coeff("2", "x", "1", "i", (0.0, 1.0))
        Z11 = z_block(sys, 1, 1)(0.3).item()
        Z12 = z_block(sys, 1, 2)(0.3).item()
        Z21 = z_block(sys, 2, 1)(0.3).item()
        Z22 = z_block(sys, 2, 2)(0.3).item()
        assert Z11 == -1j  # -s
        assert abs(Z12 - 0.5) < 1e-15  # 1/p
        assert abs(Z21 - 0.3) < 1e-15  # q
        assert Z22 == -1j  # s*

    def test_four_coeff_matrix_block(self):
        P = np.array([[2.0, 0.0], [0.0, 4.0]])
        sys = kx.preset_four_coeff(P, np.eye(2), np.eye(2), np.zeros((2, 2)), (0, 1), M=2)
        assert_allclose(z_block(sys, 1, 2)(0.0), np.linalg.inv(P), 1e-15)

    @pytest.mark.parametrize(
        "build",
        [kx.preset_fourth_order,
         lambda: kx.preset_four_coeff(
             [[2, 1], [1, 3]], MatrixFn([["x", "1"], ["1", "x^2"]]), np.eye(2),
             MatrixFn([["i*x", "0"], ["x", "1"]]), (0.0, 1.0), M=2)],
    )
    def test_coefficients_hold_the_blocks(self, build):
        sys = build()
        M = sys.M
        for x in (0.0, 0.7):
            grid = sys.coefficients(x)
            for j in range(1, sys.order + 1):
                for k in range(1, sys.order + 1):
                    block = grid[(j - 1) * M : j * M, (k - 1) * M : k * M]
                    assert np.array_equal(block, z_block(sys, j, k)(x))

    def test_wrong_shape_rejected(self):
        with pytest.raises(StructureError):
            kx.ShinZettlSystem(
                M=1,
                N=2,
                interval=kx.Interval(0, 1),
                W=MatrixFn.scalar(1.0),
                Z=[[MatrixFn.scalar(0.0)] * 2] * 2,
            )


class TestValidation:
    def test_presets_pass(self, pipeline):
        report = kx.validate_hypothesis(pipeline.sys)
        assert report.passed, [c for c in report.checks if not c.ok]

    def test_upper_triangle_violation_detected(self):
        sys = kx.preset_pure(2, (0, 1))
        Z = [list(row) for row in sys.Z]
        Z[0][3] = MatrixFn.scalar(1.0)  # nonzero above the superdiagonal
        broken = kx.ShinZettlSystem(M=1, N=2, interval=sys.interval, W=sys.W, Z=Z)
        report = kx.validate_hypothesis(broken)
        assert not report.check("A2").ok

    @pytest.mark.parametrize("build", [
        *PRESETS.values(),
        lambda: kx.preset_four_coeff(1, -20, 1, 0, (0.0, 1.0), M=3),
        lambda: kx.preset_four_coeff(np.eye(2), [[1, 0.5j], [-0.5j, 1]], [[2, 1], [1, -1]],
                                     [[0, 1j], [0, 0]], (0.0, 2.0), M=2),
    ])
    def test_constant_system_checks_one_sample(self, build, monkeypatch):
        # the report of one matrix is that of all VALIDATION_SAMPLES of it
        sys = build()
        assert sys.is_constant
        report = kx.validate_hypothesis(sys)
        monkeypatch.setattr(kx.ShinZettlSystem, "is_constant", property(lambda self: False))
        assert report == kx.validate_hypothesis(sys)
        assert report.samples == VALIDATION_SAMPLES

    def test_negative_weight_detected(self):
        sys = kx.preset_four_coeff(1, 1, "-1", 0, (0, 1))
        report = kx.validate_hypothesis(sys)
        assert not report.check("W_positive").ok

    def test_matches_pointwise_reference(self):
        # an M = 2, N = 2 grid that fails every check, so each worst value is
        # nontrivial; the loop below is the per-point reference
        def block(j, k):
            return MatrixFn([[f"{j}+{k}*x", "x"], [f"{k}-{j}", f"{j}*x^2-1"]])

        sys = kx.ShinZettlSystem(
            M=2, N=2, interval=kx.Interval(0.0, 1.0),
            W=MatrixFn([["x", "1"], ["0", "1"]]),
            Z=[[block(j, k) for k in range(4)] for j in range(4)],
        )
        report = kx.validate_hypothesis(sys)
        J = kx.block_j_matrix(2, 4)

        def min_eig(mat):
            return np.linalg.eigvalsh((mat + mat.conj().T) / 2).min()

        ref = {"A1": np.inf, "A2": 0.0, "A3": 0.0, "W_positive": np.inf,
               "leading_positive": np.inf}
        for x in chebyshev_points(0.0, 1.0, VALIDATION_SAMPLES):
            big = np.block([[blk(x) for blk in row] for row in sys.Z])
            for j in range(1, 4):
                sigma = np.linalg.svd(z_block(sys, j, j + 1)(x), compute_uv=False)
                ref["A1"] = min(ref["A1"], sigma.min())
                for k in range(j + 2, 5):
                    ref["A2"] = max(ref["A2"], np.linalg.norm(z_block(sys, j, k)(x)))
            ref["A3"] = max(ref["A3"], np.linalg.norm(big - J @ big.conj().T @ J))
            ref["W_positive"] = min(ref["W_positive"], min_eig(sys.W(x)))
            ref["leading_positive"] = min(ref["leading_positive"],
                                          min_eig(z_block(sys, 2, 3)(x)))
        for check in report.checks:
            assert not check.ok, check.name
            assert abs(check.worst - ref[check.name]) <= 1e-14 * max(1.0, abs(ref[check.name]))

    def test_weight_eigenvalue_reported(self):
        # eigenvalues of W are 1+x and 3+x: the worst is 1 at x = 0
        W = MatrixFn([["2+x", "1"], ["1", "2+x"]])
        sys = kx.preset_four_coeff(np.eye(2), np.eye(2), W, np.zeros((2, 2)), (0, 1), M=2)
        report = kx.validate_hypothesis(sys)
        assert report.check("W_positive").worst == 1.0
        assert report.passed

    def test_vanishing_superdiagonal_detected(self):
        # superdiagonal coefficient vanishes at the left endpoint
        sys = kx.ShinZettlSystem(
            M=1,
            N=1,
            interval=kx.Interval(0, 1),
            W=MatrixFn.scalar(1.0),
            Z=[[MatrixFn.scalar(0.0), MatrixFn.scalar("x")],
               [MatrixFn.scalar(1.0), MatrixFn.scalar(0.0)]],
        )
        report = kx.validate_hypothesis(sys)
        assert not report.check("A1").ok

    def test_symmetry_violation_detected(self):
        # s and s* blocks deliberately inconsistent
        sys = kx.preset_four_coeff(1, 1, 1, 0, (0, 1))
        Z = [list(row) for row in sys.Z]
        Z[0][0] = MatrixFn.scalar(1.0)  # -s block no longer matches s*
        broken = kx.ShinZettlSystem(M=1, N=1, interval=sys.interval, W=sys.W, Z=Z)
        report = kx.validate_hypothesis(broken)
        assert not report.check("A3").ok


class TestCompanionMatrix:
    def test_pure_second_order_with_spectral_parameter(self):
        sys = kx.preset_pure(1, (0, 1))
        S = kx.companion_matrix(sys, 0.5, lam=3.0)
        assert_allclose(S, [[0, 1], [-3.0, 0]], 1e-15)

    def test_fourth_order_structure(self):
        sys = kx.preset_fourth_order()
        S = kx.companion_matrix(sys, 1.0, lam=2.0)
        expected = np.eye(4, k=1)
        expected[3, 0] = -1.0 + 2.0  # Z entry plus (-1)^N lambda W
        assert_allclose(S, expected, 1e-15)

    def test_arrays_of_points_and_lambdas_stack_scalar_calls(self):
        # an x-dependent M = 2 grid with a non-trivial weight
        sys = kx.preset_four_coeff(1, "1+x", "2+x^2", "x", (0, 1), M=2)
        xs = np.array([[0.0, 0.3], [0.6, 1.0]])
        lams = np.array([-1.0, 0.0, 2.5])
        S = kx.companion_matrix(sys, xs, lams)
        assert S.shape == (3, 2, 2, 4, 4)
        for i, lam in enumerate(lams.tolist()):
            for j, k in np.ndindex(xs.shape):
                assert np.array_equal(S[i, j, k], kx.companion_matrix(sys, xs[j, k], lam))


class TestChebyshevPoints:
    def test_endpoints_included(self):
        xs = chebyshev_points(2.0, 5.0, 9)
        assert abs(xs[0] - 2.0) < 1e-14 and abs(xs[-1] - 5.0) < 1e-14
        assert np.all(np.diff(xs) > 0)

    def test_single_point(self):
        assert chebyshev_points(0.0, 2.0, 1)[0] == 1.0
