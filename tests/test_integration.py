"""Fundamental-matrix integration against matrix-exponential oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

import kreinext as kx
from kreinext.errors import StructureError
from kreinext.integration import end_matrix, trace_at
from kreinext.system import companion_matrix

from conftest import assert_allclose


class TestConstantCoefficientOracle:
    def test_pure_second_order_is_shear(self):
        fm = kx.fundamental_matrix(kx.preset_pure(1, (0, 1)))
        for x in (0.0, 0.25, 1.0):
            assert_allclose(fm.at(x), [[1, x], [0, 1]], 1e-10)

    def test_four_coeff_endpoint_is_hyperbolic_rotation(self):
        sys = kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0))
        fm = kx.fundamental_matrix(sys)
        c, s = np.cosh(1.0), np.sinh(1.0)
        assert_allclose(fm.end(), [[c, s], [s, c]], 1e-9)

    @pytest.mark.parametrize("name", ["pure-2", "fourth-order"])
    def test_matches_matrix_exponential(self, pipelines, name):
        pipe = pipelines[name]
        S = companion_matrix(pipe.sys, pipe.sys.interval.a, 0.0)
        a = pipe.sys.interval.a
        for x in np.linspace(a, pipe.sys.interval.b, 7):
            assert_allclose(pipe.fm.at(x), expm(S * (x - a)), 1e-8)

    def test_spectral_parameter_enters_rhs(self):
        sys = kx.preset_pure(1, (0, np.pi))
        fm = kx.fundamental_matrix(sys, lam=1.0)
        # -y'' = y has fundamental system cos x, sin x
        assert_allclose(fm.end(), [[-1, 0], [0, -1]], 1e-8)


class TestCocycleProperty:
    def test_restarting_midway_composes(self):
        sys = kx.preset_fourth_order()
        fm = kx.fundamental_matrix(sys)
        a, b = sys.interval.a, sys.interval.b
        mid = (a + b) / 2
        right = kx.preset_fourth_order((mid, b))
        fm_right = kx.fundamental_matrix(right)
        assert_allclose(fm.end(), fm_right.end() @ fm.at(mid), 1e-7)


class TestVariableCoefficients:
    def test_nonconstant_against_tight_tolerance_run(self):
        sys = kx.preset_four_coeff("1+x", "1+x^2", 1, 0, (0.0, 1.0))
        coarse = kx.fundamental_matrix(sys, rel_tol=1e-7, abs_tol=1e-9)
        fine = kx.fundamental_matrix(sys, rel_tol=1e-12, abs_tol=1e-13)
        assert_allclose(coarse.end(), fine.end(), 1e-6)

    def test_endpoint_solve_against_tight_reference(self):
        sys = kx.preset_four_coeff("1+x", "1+x^2", 1, 0, (0.0, 1.0))
        ref = kx.fundamental_matrix(sys, lam=50.0, rel_tol=1e-13, abs_tol=1e-15).end()
        rel = np.linalg.norm(end_matrix(sys, 50.0) - ref) / np.linalg.norm(ref)
        assert rel <= 1e-9, rel

    def test_convergence_under_refinement(self):
        sys = kx.preset_four_coeff("1+x", 1, 1, 0, (0.0, 1.0))
        ref = kx.fundamental_matrix(sys, rel_tol=1e-12, abs_tol=1e-13).end()
        errs = [
            np.abs(kx.fundamental_matrix(sys, rel_tol=rt, abs_tol=rt * 1e-2).end() - ref).max()
            for rt in (1e-4, 1e-8)
        ]
        assert errs[1] < errs[0]


class TestInterface:
    def test_initial_value_exact_identity(self, pipeline):
        assert np.array_equal(pipeline.fm.values[0], np.eye(pipeline.fm.n))

    def test_grid_values_match_dense_output(self, pipeline):
        for k in (1, len(pipeline.fm.grid) // 2, -1):
            assert_allclose(
                pipeline.fm.values[k], pipeline.fm.at(pipeline.fm.grid[k]), 1e-9
            )

    def test_out_of_interval_rejected(self, pipeline):
        with pytest.raises(StructureError):
            pipeline.fm.at(pipeline.sys.interval.b + 1.0)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(StructureError):
            kx.fundamental_matrix(kx.preset_pure(1, (0, 1)), rel_tol=0.0)

    def test_trace_propagation(self):
        sys = kx.preset_pure(1, (0, 1))
        fm = kx.fundamental_matrix(sys)
        y = trace_at(fm, 0.5, np.array([2.0, 3.0]))
        assert_allclose(y, [2.0 + 0.5 * 3.0, 3.0], 1e-10)

    def test_trace_shape_checked(self):
        fm = kx.fundamental_matrix(kx.preset_pure(1, (0, 1)))
        with pytest.raises(StructureError):
            trace_at(fm, 0.5, np.zeros(3))
