"""Fundamental-matrix integration against matrix-exponential oracles."""

import json
import os
import re
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
from kreinext.integration import end_matrix
from kreinext.system import block_j_matrix, companion_matrix, companion_parts

from conftest import PRESETS, VARIABLE_OPERATORS, Pipeline, assert_allclose


def relative(actual, expected) -> float:
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


def dop853(sys, lam, grid) -> np.ndarray:
    """Psi at the points of grid from scipy's DOP853 at rtol 1e-13, atol
    1e-15: a reference independent of the Magnus propagator."""
    n = sys.size
    return solve_ivp(
        lambda x, u: (companion_matrix(sys, x, lam) @ u.reshape(n, n)).ravel(),
        (sys.interval.a, grid[-1]), np.eye(n, dtype=complex).ravel(),
        method="DOP853", t_eval=grid, rtol=1e-13, atol=1e-15,
    ).y.T.reshape(len(grid), n, n)


def own_mesh(sys, lam) -> int:
    """The steps of the Magnus mesh whose Psi(b) ``end_matrix`` returns at
    lambda alone."""
    return next(int(m) for m in 2 ** np.arange(6, 13) if np.array_equal(
        integration._magnus(sys, np.array([lam]), int(m), 1)[0, -1], end_matrix(sys, lam)))


def direct_omega(sys, steps, lam) -> np.ndarray:
    """The Magnus-6 exponents of steps equal steps at one lambda, from the
    three-node formula on S(x; lambda) itself (Blanes, Casas, Oteo & Ros
    2009): an oracle of the polynomial in lambda that the propagator keeps."""
    h = sys.interval.length / steps
    xs = sys.interval.a + h * (np.arange(steps)[:, np.newaxis] + integration._GAUSS)
    S = companion_matrix(sys, xs, lam)
    a1 = h * S[:, 1]
    a2 = (np.sqrt(15.0) * h / 3.0) * (S[:, 2] - S[:, 0])
    a3 = (10.0 * h / 3.0) * (S[:, 2] - 2.0 * S[:, 1] + S[:, 0])

    def commutator(X, Y):
        return X @ Y - Y @ X

    c1 = commutator(a1, a2)
    c2 = commutator(a1, 2.0 * a3 + c1) / -60.0
    return a1 + a3 / 12.0 + commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0


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
        ref = dop853(sys, 50.0, [sys.interval.b])[-1]
        rel = relative(end_matrix(sys, 50.0), ref)
        assert rel <= 1e-9, rel

    def test_convergence_under_refinement(self):
        # each tolerance against an independent DOP853 solve at rtol 1e-13
        sys = kx.preset_four_coeff("1+x", 1, 1, 0, (0.0, 1.0))
        ref = dop853(sys, 0.0, np.linspace(0.0, 1.0, integration.GRID_POINTS))
        for rt in (1e-4, 1e-8, 1e-12):
            fm = kx.fundamental_matrix(sys, rel_tol=rt, abs_tol=rt * 1e-2)
            err = max(relative(value, expected) for value, expected in zip(fm.values, ref))
            assert err <= rt, (rt, err)


class TestDeferredScipy:
    """No command and no propagator loads scipy: ``integration.solve_ivp``,
    which would import it, has no caller."""

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
            print(json.dumps([codes, before, "scipy" in sys.modules]))
        """)
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands), str(config)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        codes, scipy_before, scipy_after = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0, 0]
        assert all((tmp_path / f"r{k}.json").is_file() for k in range(len(commands)))
        assert not scipy_before
        assert not scipy_after


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
        ref = dop853(sys, lam, [sys.interval.b])[-1]
        assert relative(end_matrix(sys, lam), ref) <= 1e-9

    @pytest.mark.parametrize("name", sorted(VARIABLE_OPERATORS))
    def test_lambda_zero_is_the_grid_endpoint(self, variable_systems, name):
        sys = variable_systems[name]
        assert relative(kx.fundamental_matrix(sys).end(), end_matrix(sys, 0.0)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(VARIABLE_OPERATORS))
    def test_grid_is_symplectic(self, variable_systems, name):
        # Magnus steps are exponentials of K-Hamiltonian matrices, so
        # Psi* K Psi = K holds at rounding level at every grid point
        sys = variable_systems[name]
        fm = kx.fundamental_matrix(sys)
        K = (-1) ** (sys.N + 1) * block_j_matrix(sys.M, sys.order)
        defect = fm.values.conj().transpose(0, 2, 1) @ K @ fm.values - K
        assert np.linalg.norm(defect, axis=(1, 2)).max() <= 1e-12

    def test_batched_stack_matches_scalar_calls(self, variable_systems, monkeypatch):
        # bit for bit, negative lambdas included, on every variable operator
        # and every constant preset; 41 lambdas fill several chunks and a
        # part under the byte budget, and 41 under a budget of one lambda.
        # A variable system's stack is on the finest mesh that one lambda
        # needs alone (64 or 128 steps here), so that it is one analytic
        # function of lambda
        systems = [*variable_systems.values(), *(build() for build in PRESETS.values())]
        lams = np.linspace(-50.0, 100.0, 41)
        budgets = (integration.MAGNUS_CHUNK_BYTES, 1)
        finer = False
        for sys in systems:
            scalar = np.array([end_matrix(sys, lam) for lam in lams.tolist()])
            if not sys.is_constant:
                meshes = [own_mesh(sys, lam) for lam in lams]
                finer |= min(meshes) < max(meshes)
                scalar = integration._magnus(sys, lams, max(meshes), 1)[:, -1]
            for budget in budgets:
                monkeypatch.setattr(integration, "MAGNUS_CHUNK_BYTES", budget)
                assert np.array_equal(end_matrix(sys, lams), scalar), (sys, budget)
            n = sys.size
            assert end_matrix(sys, lams[:6].reshape(2, 3)).shape == (2, 3, n, n)
            assert end_matrix(sys, lams[:0]).shape == (0, n, n)
        assert finer

    @pytest.mark.parametrize("lam", [0.0, 10.0, 1e3, 1e5, -50.0, 3 + 4j])
    @pytest.mark.parametrize("name", sorted(VARIABLE_OPERATORS))
    def test_omega_polynomial_against_direct_formula(self, variable_systems, name, lam):
        sys = variable_systems[name]
        coefficients = integration._omega_coefficients(sys, 32)
        assert len(coefficients) <= 4  # E_i E_j = 0 caps the degree at 3
        omega = sum(lam**k * c for k, c in enumerate(coefficients))
        expected = direct_omega(sys, 32, lam)
        assert relative(omega, expected) <= 1e-14

    def test_coefficients_sampled_once_per_mesh(self, monkeypatch):
        sys = kx.preset_four_coeff("1+x", "1+x^2", 1, 0, (0.0, 1.0))
        points = []
        evaluate = expressions.evaluate
        # one call evaluates an entry at a whole array of points
        monkeypatch.setattr(expressions, "evaluate",
                            lambda ast, x: points.append(np.size(x)) or evaluate(ast, x))
        end_matrix(sys, np.linspace(0.0, 100.0, 9))
        # two x-dependent entries (1/p and q) at three Gauss nodes per step
        assert sum(points) == 2 * 3 * sum(sys._omega) > 0
        end_matrix(sys, np.linspace(0.5, 100.5, 9))
        assert sum(points) == 2 * 3 * sum(sys._omega)

    def test_observed_order_is_six(self, variable_systems):
        sys = variable_systems["readme"]
        lam = np.array([50.0])
        ref = integration._magnus(sys, lam, 1024, 1)[:, -1]
        errors = [np.linalg.norm(integration._magnus(sys, lam, steps, 1)[:, -1] - ref)
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
        pattern = (r"not converged at lambda=2\.0 "
                   rf"with {integration.MAGNUS_MAX_STEPS} steps: error estimate (\S+) exceeds (\S+)$")
        with pytest.raises(IntegrationError, match=pattern) as caught:
            end_matrix(sys, 2.0)
        value, bound = map(float, re.search(pattern, str(caught.value)).groups())
        assert value > bound > 0.0

    @pytest.mark.parametrize("variable", [True, False], ids=["magnus", "expm"])
    def test_non_finite_raises_naming_lambda(self, variable):
        p = "1+x" if variable else 1
        sys = kx.preset_four_coeff(p, 1, 1, 0, (0.0, 1.0))
        with pytest.raises(IntegrationError, match=r"non-finite .* lambda=-10000000000\.0 "):
            end_matrix(sys, np.array([1.0, -1e10]))


class TestRealArithmetic:
    """``companion_parts`` alone chooses real or complex arithmetic: a real
    operator is real in every array of the pipeline, and a complex
    coefficient makes each of them complex."""

    @pytest.mark.parametrize("name", [*sorted(PRESETS), *sorted(VARIABLE_OPERATORS)])
    def test_pipeline_dtypes(self, variable_systems, name):
        sys = variable_systems[name] if name in VARIABLE_OPERATORS else PRESETS[name]()
        expected = np.complex128 if name == "four-coeff-complex" else np.float64
        pipe = Pipeline(sys)
        xs = np.linspace(sys.interval.a, sys.interval.b, 5)
        arrays = [*companion_parts(sys, xs), end_matrix(sys, np.linspace(0.0, 50.0, 3)),
                  pipe.fm.values, pipe.basis.C, pipe.basis.Eb, pipe.krein.A, pipe.krein.B,
                  pipe.B_inv, pipe.T]
        assert [a.dtype for a in arrays] == [expected] * len(arrays)
        assert pipe.friedrichs.A.dtype == pipe.friedrichs.B.dtype == np.float64

    def test_complex_lambda_gives_complex_psi(self):
        sys = kx.preset_four_coeff("1+x", 1, 1, 0, (0.0, 1.0))
        assert end_matrix(sys, np.array([1.0, 2.0 + 1.0j])).dtype == np.complex128
        assert kx.fundamental_matrix(sys, lam=1.0j).values.dtype == np.complex128

    @pytest.mark.parametrize("lam", [0.0, 50.0, 100.0])
    def test_complex_hermitian_weight(self, lam):
        # S0 is real and only the weight r = U diag(0.5, 1.5) U* is complex.
        # p and q are scalar, so the operator is the real one of weight
        # diag(0.5, 1.5) in the eigenbasis of r, and Psi is that one's
        # conjugated by V = diag(U, U)
        r = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        sys = kx.preset_four_coeff(1, "1+x", r, 0, (0.0, 1.0), M=2)
        w, U = np.linalg.eigh(r)
        diagonal = kx.preset_four_coeff(1, "1+x", np.diag(w), 0, (0.0, 1.0), M=2)
        V = np.kron(np.eye(2), U)
        psi = end_matrix(sys, lam)
        assert psi.dtype == np.complex128
        ref = V @ dop853(diagonal, lam, [sys.interval.b])[-1] @ V.conj().T
        assert relative(psi, ref) <= 1e-9
        assert relative(psi, dop853(sys, lam, [sys.interval.b])[-1]) <= 1e-9

    @pytest.mark.parametrize("s, checked", [
        # s vanishes at every Gauss node of the 32-step mesh (the last is
        # 0.99648) but not at the last one of the 64-step mesh (0.99824)
        ("1e5*i*(x-0.997+abs(x-0.997))^3", (0, 1)),
        # s vanishes at every node of the 32- and 64-step meshes: lambda = 0
        # converges on them in real arithmetic, lambda = 50 needs the
        # complex 128-step mesh
        ("1e6*i*(x-0.999+abs(x-0.999))^3", (1,)),
    ])
    def test_imaginary_part_only_on_finer_meshes(self, s, checked):
        sys = kx.preset_four_coeff("1+x", 1, 1, s, (0.0, 1.0))
        lams = np.array([0.0, 50.0])
        psi = end_matrix(sys, lams)
        assert psi.dtype == np.complex128
        for k in checked:
            assert relative(psi[k], dop853(sys, lams[k], [sys.interval.b])[-1]) <= 1e-9

    def test_growing_solutions_keep_an_accurate_grid(self):
        # q = 100 + x on [0, 2]: |Psi| grows to about e^20, and the grid is
        # returned with a symplectic defect at rounding level relative to it
        sys = kx.preset_four_coeff(1, "100+x", 1, 0, (0.0, 2.0))
        fm = kx.fundamental_matrix(sys)
        K = (-1) ** (sys.N + 1) * block_j_matrix(sys.M, sys.order)
        defect = fm.values.conj().transpose(0, 2, 1) @ K @ fm.values - K
        scale = np.linalg.norm(fm.values, axis=(1, 2)) ** 2
        assert (np.linalg.norm(defect, axis=(1, 2)) / scale).max() <= 1e-14


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

    def test_one_norm_sums_as_numpy_does(self):
        # the scaling of each matrix, and so each exponential, depends on it
        rng = np.random.default_rng(8)
        for n in range(1, 11):
            stack = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
            for A in (stack, stack.real, stack[0]):
                expected = np.abs(A).sum(axis=-2).max(axis=-1)
                assert np.array_equal(integration._one_norm(A), expected)

    @pytest.mark.parametrize("scales, poison", [
        ((6.0, 8.0, 10.0), None),  # one squaring each
        ((0.1, 3.0, 8.0, 12.0, 100.0), None),  # 0, 0, 1, 2 and 5 squarings
        ((0.1, 3.0, 8.0, 12.0), np.inf),
        ((6.0, 8.0, 10.0), -np.inf),
        ((0.1, 3.0, 8.0, 12.0), np.nan),
    ], ids=["uniform", "mixed", "inf", "-inf", "nan"])
    def test_stack_equals_each_matrix_alone(self, scales, poison):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        base /= np.abs(base).sum(axis=0).max()
        stack = np.stack([base * c for c in scales])
        if poison is not None:
            stack[1, 2, 0] = poison
        got = integration.expm(stack)
        for matrix, value in zip(stack, got):
            assert np.array_equal(value, integration.expm(matrix), equal_nan=True)
        assert np.isnan(got[1]).all() == (poison is not None)

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
