"""Fundamental-matrix integration against matrix-exponential oracles."""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import kreinext as kx
from kreinext import cli, expressions, integration
from kreinext.errors import IntegrationError, StructureError
from kreinext.integration import DEFAULT_REL_TOL, end_matrix
from kreinext.system import companion_matrix

from conftest import PRESETS, VARIABLE_OPERATORS, assert_allclose


def relative(actual, expected) -> float:
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


class TestConstantCoefficientOracle:
    def test_pure_second_order_is_shear(self):
        fm = kx.fundamental_matrix(kx.preset_pure(1, (0, 1)))
        for k, x in ((0, 0.0), (16, 0.25), (64, 1.0)):
            assert fm.grid[k] == x
            assert_allclose(fm.values[k], [[1, x], [0, 1]], 1e-10)

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
        for x, value in zip(pipe.fm.grid, pipe.fm.values):
            assert_allclose(value, expm(S * (x - a)), 1e-8)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_grid_is_the_exponential_bit_for_bit(self, pipelines, name):
        # each grid point is expm(S (x_k - a)) itself, with no step products
        pipe = pipelines[name]
        a = pipe.sys.interval.a
        S = companion_matrix(pipe.sys, a, 0.0)
        for x, value in zip(pipe.fm.grid, pipe.fm.values):
            assert np.array_equal(value, integration.expm(S * (x - a)))
        assert np.array_equal(pipe.fm.values[0], np.eye(pipe.sys.size))

    def test_spectral_parameter_enters_rhs(self):
        sys = kx.preset_pure(1, (0, np.pi))
        fm = kx.fundamental_matrix(sys, lam=1.0)
        # -y'' = y has fundamental system cos x, sin x
        assert_allclose(fm.end(), [[-1, 0], [0, -1]], 1e-8)


class TestCocycleProperty:
    def test_restarting_midway_composes(self):
        sys = kx.preset_fourth_order()
        fm = kx.fundamental_matrix(sys)
        mid = fm.grid[32]
        right = kx.preset_fourth_order((mid, sys.interval.b))
        fm_right = kx.fundamental_matrix(right)
        assert_allclose(fm.end(), fm_right.end() @ fm.values[32], 1e-7)


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


class TestDeferredScipy:
    """scipy is imported only by the DOP853 grid of a variable system."""

    def test_constant_runs_never_load_scipy(self, tmp_path):
        # a fresh interpreter: this test module has scipy loaded already
        commands = [
            ["verify", "--preset", "pure", "--order", "4"],
            ["verify", "--preset", "fourth-order"],
            ["closed-form", "--order", "6"],
        ]
        commands = [argv + ["--out", str(tmp_path / f"r{k}.json")]
                    for k, argv in enumerate(commands)]
        config = tmp_path / "variable.ini"
        config.write_text(VARIABLE_OPERATORS["readme"])
        script = textwrap.dedent("""
            import json, sys
            from kreinext import cli, integration
            codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
            before = "scipy" in sys.modules
            system = cli.build_system(cli.load_config_file(sys.argv[2]))
            integration.fundamental_matrix(system)
            print(json.dumps([codes, before, "scipy.integrate" in sys.modules]))
        """)
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands), str(config)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        codes, scipy_before, integrate_after = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0, 0]
        assert all((tmp_path / f"r{k}.json").is_file() for k in range(len(commands)))
        assert not scipy_before
        assert integrate_after

    def test_grid_calls_solve_ivp_through_the_module(self, monkeypatch, variable_systems):
        # the benchmark reads integration.rhs_evals through this name
        system = variable_systems["readme"]
        expected = kx.fundamental_matrix(system, rel_tol=1e-9, abs_tol=1e-11)
        real, calls = integration.solve_ivp, []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(integration, "solve_ivp", spy)
        fm = kx.fundamental_matrix(system, rel_tol=1e-9, abs_tol=1e-11)
        assert len(calls) == 1
        assert (calls[0]["method"], calls[0]["rtol"], calls[0]["atol"]) == ("DOP853", 1e-9, 1e-11)
        assert np.array_equal(fm.grid, expected.grid)
        assert np.array_equal(fm.values, expected.values)


class TestInterface:
    def test_initial_value_exact_identity(self, pipeline):
        assert np.array_equal(pipeline.fm.values[0], np.eye(pipeline.fm.n))

    def test_grid_values_match_dense_output(self, pipeline):
        # oracle: the dense output of a separate tight DOP853 solve
        sys, fm, n = pipeline.sys, pipeline.fm, pipeline.fm.n
        sol = solve_ivp(
            lambda x, u: (companion_matrix(sys, x, 0.0) @ u.reshape(n, n)).ravel(),
            (sys.interval.a, sys.interval.b), np.eye(n, dtype=complex).ravel(),
            method="DOP853", dense_output=True, rtol=1e-12, atol=1e-14,
        )
        for k in (1, 32, 64):
            assert_allclose(fm.values[k], sol.sol(fm.grid[k]).reshape(n, n), 1e-9)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(StructureError):
            kx.fundamental_matrix(kx.preset_pure(1, (0, 1)), rel_tol=0.0)

    def test_trace_propagation(self):
        sys = kx.preset_pure(1, (0, 1))
        fm = kx.fundamental_matrix(sys)
        y = kx.SolutionTraces(fm, np.array([2.0, 3.0])).values[32]  # x = 0.5
        assert_allclose(y[:, 0], [2.0 + 0.5 * 3.0, 3.0], 1e-10)

    def test_trace_shape_checked(self):
        fm = kx.fundamental_matrix(kx.preset_pure(1, (0, 1)))
        with pytest.raises(StructureError):
            kx.SolutionTraces(fm, np.zeros(3))


class TestMagnus:
    @pytest.mark.parametrize("lam", [0.0, 50.0, 100.0])
    @pytest.mark.parametrize("name", sorted(VARIABLE_OPERATORS))
    def test_against_tight_dop853(self, variable_systems, name, lam):
        sys = variable_systems[name]
        ref = kx.fundamental_matrix(sys, lam=lam, rel_tol=1e-13, abs_tol=1e-15).end()
        assert relative(end_matrix(sys, lam), ref) <= 1e-9

    @pytest.mark.parametrize("name", sorted(VARIABLE_OPERATORS))
    def test_lambda_zero_is_the_grid_endpoint(self, variable_systems, name):
        sys = variable_systems[name]
        assert_allclose(end_matrix(sys, 0.0), kx.fundamental_matrix(sys).end(), 1e-9)

    def test_batched_stack_matches_scalar_calls(self, variable_systems):
        sys = variable_systems["fourth-order-seeded"]
        lams = np.linspace(0.0, 100.0, 11)  # 11 lambdas: two full chunks and a part
        stack = end_matrix(sys, lams)
        assert stack.shape == (11, sys.size, sys.size)
        for lam, psi in zip(lams.tolist(), stack):
            assert relative(psi, end_matrix(sys, lam)) <= DEFAULT_REL_TOL
        assert end_matrix(sys, lams[:6].reshape(2, 3)).shape == (2, 3, sys.size, sys.size)
        assert end_matrix(sys, lams[:0]).shape == (0, sys.size, sys.size)

    def test_coefficients_sampled_once_per_mesh(self, monkeypatch):
        sys = kx.preset_four_coeff("1+x", "1+x^2", 1, 0, (0.0, 1.0))
        points = []
        evaluate = expressions.evaluate
        # one call evaluates an entry at a whole array of points
        monkeypatch.setattr(expressions, "evaluate",
                            lambda ast, x: points.append(np.size(x)) or evaluate(ast, x))
        end_matrix(sys, np.linspace(0.0, 100.0, 9))
        # two x-dependent entries (1/p and q) at three Gauss nodes per step
        assert sum(points) == 2 * 3 * sum(sys._samples) > 0
        end_matrix(sys, np.linspace(0.5, 100.5, 9))
        assert sum(points) == 2 * 3 * sum(sys._samples)

    def test_observed_order_is_six(self, variable_systems):
        sys = variable_systems["readme"]
        lam = np.array([50.0])
        ref = integration._magnus_end(sys, lam, 1024)
        errors = [np.linalg.norm(integration._magnus_end(sys, lam, steps) - ref)
                  for steps in (8, 16, 32)]
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(50.0 <= ratio <= 80.0 for ratio in ratios), ratios

    @pytest.mark.parametrize(
        "name, expected",
        # lambda_min from a DOP853 scan at rel_tol 1e-13
        [("readme", 11.15116403045371), ("four-coeff-seeded", 10.941822082459185)],
    )
    def test_lowest_eigenvalue_against_tight_scan(self, variable_systems, name, expected):
        result = kx.lowest_friedrichs_eigenvalue(variable_systems[name], lambda_max=50.0)
        assert abs(result.lambda_min - expected) <= 1e-9 * expected

    def test_mesh_cap_raises_naming_lambda(self):
        sys = kx.preset_four_coeff(1, "1e6*sin(3000*x)", 1, 0, (0.0, 1.0))
        with pytest.raises(IntegrationError, match=r"not converged at lambda=2\.0 "
                           rf"with {integration.MAGNUS_MAX_STEPS} steps: error estimate"):
            end_matrix(sys, 2.0)

    @pytest.mark.parametrize("variable", [True, False], ids=["magnus", "expm"])
    def test_non_finite_raises_naming_lambda(self, variable):
        p = "1+x" if variable else 1
        sys = kx.preset_four_coeff(p, 1, 1, 0, (0.0, 1.0))
        with pytest.raises(IntegrationError, match=r"non-finite .* lambda=-10000000000\.0 "):
            end_matrix(sys, np.array([1.0, -1e10]))


class TestExpm:
    def assert_matches_scipy(self, stack):
        got = integration.expm(stack)
        assert got.shape == stack.shape
        for matrix, value in zip(stack, got):
            assert relative(value, expm(matrix)) <= 1e-13

    def test_random_stack(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((30, 6, 6)) + 1j * rng.standard_normal((30, 6, 6))
        norms = np.logspace(-3, 1, 30)
        stack *= (norms / np.abs(stack).sum(axis=-2).max(axis=-1))[:, None, None]
        self.assert_matches_scipy(stack)

    def test_only_some_matrices_need_squaring(self):
        base = np.random.default_rng(6).standard_normal((4, 4))
        base /= np.abs(base).sum(axis=0).max()
        # 1-norms on both sides of the Pade-13 bound: 0, 0, 1 and 2 squarings
        stack = np.stack([base * c for c in (0.1, 3.0, 8.0, 12.0)])
        self.assert_matches_scipy(stack)
        for matrix, value in zip(stack, integration.expm(stack)):
            assert np.array_equal(value, integration.expm(matrix))

    @pytest.mark.parametrize("build", [lambda: kx.preset_pure(5, (0.0, 1.0)),
                                       kx.preset_fourth_order],
                             ids=["pure-10", "fourth-order"])
    def test_companion_exponential(self, build):
        sys = build()
        S = companion_matrix(sys, sys.interval.a) * sys.interval.length
        self.assert_matches_scipy(S[np.newaxis])
        assert relative(integration.expm(S), expm(S)) <= 1e-13

    def test_nilpotent_exponential_has_unit_diagonal(self):
        # pure order 10: S h is nilpotent, so every grid step is exact on the diagonal
        sys = kx.preset_pure(5, (0.0, 1.0))
        step = integration.expm(companion_matrix(sys, 0.0) / 64)
        assert np.array_equal(np.diag(step), np.ones(sys.size))

    def test_real_input_stays_real_and_non_finite_gives_nan(self):
        assert integration.expm(np.zeros((2, 2))).dtype == np.float64
        out = integration.expm(np.array([[[np.inf, 0.0], [0.0, 1.0]], np.zeros((2, 2))]))
        assert np.isnan(out[0]).all()
        assert_allclose(out[1], np.eye(2), 1e-15)
