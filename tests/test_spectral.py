"""Eigenvalue counts and the lowest eigenvalue of the separated
boundary-condition extension."""

import warnings

import numpy as np
import pytest

import kreinext as kx
from kreinext import integration, spectral
from kreinext.errors import StructureError
from kreinext.integration import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, end_matrix_and_mesh
from kreinext.spectral import friedrichs_char_value

BEAM_MU = 4.730040744862704  # first root of cos(mu) cosh(mu) = 1 above zero
# -y^(10) = lambda y on [0, 1], clamped: lambda_1 = beta^10, beta = 9.3432979412
# the first root of the clamped determinant (mpmath, 50 digits)
PURE_10_LAMBDA_1 = 5069930191.35


def counts(sys, lams):
    """The eigenvalue counts at an array of lambdas, each on the mesh that
    the propagator's Richardson test passed there."""
    lams = np.asarray(lams, dtype=float)
    _, mesh = end_matrix_and_mesh(sys, lams, DEFAULT_REL_TOL, DEFAULT_ABS_TOL)
    return spectral.eigenvalue_counts(sys, lams, mesh)[0]


class TestCharacteristicValue:
    def test_small_at_eigenvalue(self):
        sys = kx.preset_pure(1, (0.0, np.pi))
        at_eig = friedrichs_char_value(sys, 1.0)
        away = friedrichs_char_value(sys, 0.5)
        assert at_eig < 1e-8 * away

    def test_positive_away_from_spectrum(self):
        sys = kx.preset_pure(1, (0.0, 1.0))
        assert friedrichs_char_value(sys, 1.0) > 1e-3


class TestCounts:
    @pytest.mark.parametrize(
        "build",
        [kx.preset_fourth_order, lambda: kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0), M=2),
         lambda: kx.preset_four_coeff("1+x", "1+x", 1, 0, (0.0, 1.0))],
        ids=["fourth-order", "four-coeff-m2", "four-coeff-variable"],
    )
    def test_batched_counts_match_one_lambda_counts(self, build):
        sys = build()
        lams = np.array([1e-8, 0.5, 3.0, 11.0, 30.0, 45.0, 80.0, 150.0, 400.0])
        assert counts(sys, lams).tolist() == [counts(sys, [lam])[0] for lam in lams]

    @pytest.mark.parametrize(
        "build",
        [lambda: kx.preset_pure(5, (0.0, 1.0)),
         lambda: kx.preset_four_coeff("1+x", "100+x", 1, 0, (0.0, 2.0)),
         lambda: kx.preset_four_coeff(1, "100*sin(20*x)", "1+x", 0, (0.0, 1.0), M=2)],
        ids=["pure-10", "stiff-variable", "oscillating-m2"],
    )
    def test_chunked_frames_match_one_step_at_a_time(self, build, monkeypatch):
        # with no growth allowed, each chunk is one step and every frame is
        # orthonormalized: the reference loop
        sys = build()
        lams = np.array([1e-8, 50.0, 3e3, 2e5])
        _, mesh = end_matrix_and_mesh(sys, lams, DEFAULT_REL_TOL, DEFAULT_ABS_TOL)
        chunked = spectral.eigenvalue_counts(sys, lams, mesh)
        monkeypatch.setattr(spectral, "FRAME_GROWTH", 1e-300)
        stepwise = spectral.eigenvalue_counts(sys, lams, mesh)
        assert chunked[0].tolist() == stepwise[0].tolist()
        assert np.abs(chunked[2] - stepwise[2]).max() <= 1e-9

    def test_dirichlet_counts_are_exact(self):
        # -y'' on [0, 1]: the eigenvalues (k pi)^2, so count(lambda) = floor(sqrt(lambda) / pi)
        lams = np.pi**2 * np.array([1e-9, 0.5, 0.999, 1.001, 3.9, 4.1, 24.5, 100.5, 400.5])
        expected = np.floor(np.sqrt(lams) / np.pi).astype(int)
        assert counts(kx.preset_pure(1, (0.0, 1.0)), lams).tolist() == expected.tolist()

    def test_multiple_eigenvalues_count_with_multiplicity(self):
        # two uncoupled copies of -y'' + y: each eigenvalue 1 + (k pi)^2 twice
        sys = kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0), M=2)
        lams = 1.0 + np.pi**2 * np.array([0.5, 1.001, 4.001, 9.001])
        assert counts(sys, lams).tolist() == [0, 2, 4, 6]

    def test_count_is_made_where_the_propagator_converged(self):
        # q = 1e6 sin(3000 x): no mesh resolves it, so no count is made
        sys = kx.preset_four_coeff(1, "1e6*sin(3000*x)", 1, 0, (0.0, 1.0))
        with pytest.raises(kx.IntegrationError, match="Magnus mesh not converged"):
            kx.lowest_friedrichs_eigenvalue(sys, lambda_max=100.0)

    @pytest.mark.parametrize("lam", [1e6, 1e7])
    def test_no_count_on_an_aliasing_mesh(self, lam):
        # -y'' at lambda = 1e6 turns W by 31.25 rad a step on 64 steps, which
        # reads as -0.17 rad and counted 1; the bound on the turn refines the
        # mesh first, and W turns uniformly, by 2 sqrt(lambda) h a step
        (count,), (mesh,), (turn,) = spectral.eigenvalue_counts(
            kx.preset_pure(1, (0.0, 1.0)), [lam], [64])
        assert count == int(np.sqrt(lam) / np.pi)
        assert abs(turn - 2.0 * np.sqrt(lam) / mesh) <= 1e-9 and turn <= spectral.MAX_STEP_TURN

    def test_unresolved_count_names_lambda_and_bound(self, monkeypatch):
        # the bound on the turn of -y'' at 1e6 over [0, 1] is 2 sqrt(2) |R|_F = 4000
        monkeypatch.setattr(spectral, "COUNT_MAX_STEPS", 1024)
        with pytest.raises(kx.IntegrationError, match="eigenvalue count not resolved at "
                           r"lambda=1000000.0 with 1024 steps: a step may turn arg det W by "
                           r"3.906e\+00, beyond 1.571e\+00$"):
            spectral.eigenvalue_counts(kx.preset_pure(1, (0.0, 1.0)), [1.0, 1e6], [64, 64])

    def test_variable_count_keeps_the_propagator_step_cap(self):
        # the bound asks for 32768 steps; a variable system's exponent
        # stacks go no finer than the propagator's own cap
        sys = kx.preset_four_coeff(1, "1+x", 1, 0, (0.0, 1.0))
        with pytest.raises(kx.IntegrationError, match="eigenvalue count not resolved at "
                           f"lambda=100000000.0 with {integration.MAGNUS_MAX_STEPS} steps"):
            spectral.eigenvalue_counts(sys, [1e8], [64])
        assert max(sys._omega) == integration.MAGNUS_MAX_STEPS


class TestScan:
    def test_dirichlet_eigenvalue_to_rounding(self):
        result = kx.lowest_friedrichs_eigenvalue(
            kx.preset_pure(1, (0.0, 1.0)), lambda_max=20.0
        )
        assert abs(result.lambda_min - np.pi**2) <= 1e-11

    def test_clamped_beam_eigenvalue_to_rounding(self):
        # y^(4) + y on [0, L] (clamped ends): mu^4 / L^4 + 1
        sys = kx.preset_fourth_order()
        result = kx.lowest_friedrichs_eigenvalue(sys, lambda_max=100.0)
        expected = BEAM_MU**4 / sys.interval.length**4 + 1.0
        assert abs(result.lambda_min - expected) <= 1e-11

    def test_dirichlet_on_unit_interval(self):
        result = kx.lowest_friedrichs_eigenvalue(
            kx.preset_pure(1, (0.0, 1.0)), lambda_max=20.0
        )
        assert result.lambda_min is not None
        assert abs(result.lambda_min - np.pi**2) < 1e-5
        assert result.certified_strictly_positive
        lo, hi = result.bracket
        assert lo <= result.lambda_min <= hi

    def test_clean_scan_below_first_eigenvalue(self):
        result = kx.lowest_friedrichs_eigenvalue(kx.preset_pure(1, (0.0, 1.0)), lambda_max=5.0)
        assert result.lambda_min is None
        assert result.certified_strictly_positive
        assert result.scan_bound == 5.0
        assert result.eigenvalues_below_margin == 0

    def test_double_lowest_eigenvalue(self):
        # -y'' + y with M = 2: lambda_1 = 1 + pi^2 twice, so the count jumps
        # 0 -> 2 and the bisection stops on the bracket's width
        sys = kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0), M=2)
        result = kx.lowest_friedrichs_eigenvalue(sys, lambda_max=100.0)
        assert abs(result.lambda_min - (1.0 + np.pi**2)) <= 1e-11

    @pytest.mark.parametrize(
        "build, lambda_1",
        [(lambda: kx.preset_four_coeff(1, 100, 1, 0, (0.0, 2.0)), None),
         (lambda: kx.preset_four_coeff(1, 1, 1, 0, (0.0, 30.0)), 1.0 + (np.pi / 30.0) ** 2),
         (lambda: kx.preset_fourth_order((0.0, 40.0)), 1.0 + (BEAM_MU / 40.0) ** 4)],
        ids=["q100-on-0-2", "q1-on-0-30", "fourth-order-on-0-40"],
    )
    def test_stiff_positive_operators_are_certified(self, build, lambda_1):
        # cond(Lambda(0)) is 2.4e9, 1.1e13 and 4.6e12: sigma_min carries
        # little signal, but the counts do
        result = kx.lowest_friedrichs_eigenvalue(build(), lambda_max=100.0)
        assert result.certified_strictly_positive
        assert result.eigenvalues_below_margin == 0
        if lambda_1 is None:
            assert result.lambda_min is None
        else:
            assert abs(result.lambda_min - lambda_1) <= 1e-9 * lambda_1, result.lambda_min

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(StructureError):
            kx.lowest_friedrichs_eigenvalue(kx.preset_pure(1, (0, 1)), lambda_max=0.0)


def counted(f):
    """f, and a list whose length is the number of calls made to it."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    return wrapped, calls


class TestRefinement:
    def test_simple_zero_in_few_evaluations(self):
        # |g| with a simple zero of g: golden-section search made 62 calls
        f, calls = counted(lambda x: abs((x - 0.4) * (2.0 + x)))
        x, value = spectral._golden_minimize(f, 0.3, 0.5)
        assert len(calls) <= 20
        assert abs(x - 0.4) <= 1e-13 and value == f(x)

    def test_smooth_minimum_off_zero(self):
        x, value = spectral._golden_minimize(lambda x: 1.5 + (x - 0.31) ** 2, 0.0, 1.0)
        assert 0.0 < x < 1.0
        assert abs(x - 0.31) <= 1e-6
        assert abs(value - 1.5) <= 1e-12

    def test_monotone_function_ends_at_the_lower_end(self):
        f, calls = counted(lambda x: x)
        x, _ = spectral._golden_minimize(f, 1.0, 2.0)
        assert abs(x - 1.0) <= 1e-12
        assert all(1.0 <= point <= 2.0 for (point,) in calls)

    def test_constant_zero_falls_back_to_golden_steps(self):
        f, calls = counted(lambda x: 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, value = spectral._golden_minimize(f, 0.0, 1.0)
        assert 0.0 <= x <= 1.0 and value == 0.0
        assert len(calls) <= spectral.GOLDEN_ITERATIONS + 1

    def test_scan_refines_its_dip_in_few_evaluations(self, monkeypatch):
        # -y'' + y on [0, 1]: Brent inside the bracket that counts give,
        # where golden-section search made 59 calls
        char, calls = counted(friedrichs_char_value)
        monkeypatch.setattr(spectral, "friedrichs_char_value", char)
        result = kx.lowest_friedrichs_eigenvalue(
            kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0)), lambda_max=100.0)
        assert abs(result.lambda_min - (1.0 + np.pi**2)) <= 1e-11
        assert len(calls) <= 21

    def test_high_order_refines_only_the_counted_bracket(self, monkeypatch):
        # pure order 10 at lambda_max 1e10: refining each dip of the noisy
        # sigma_min took 309 evaluations on five spurious dips
        char, calls = counted(friedrichs_char_value)
        monkeypatch.setattr(spectral, "friedrichs_char_value", char)
        result = kx.lowest_friedrichs_eigenvalue(kx.preset_pure(5, (0.0, 1.0)), lambda_max=1e10)
        assert abs(result.lambda_min - PURE_10_LAMBDA_1) <= 1e-8 * PURE_10_LAMBDA_1
        assert len(calls) <= 60


def chebyshev(n):
    """The n + 1 Chebyshev points of [0, 1] and the differentiation matrix
    on them (Trefethen, Spectral Methods in MATLAB, program 6)."""
    t = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    D = np.outer(c, 1.0 / c) / (t[:, np.newaxis] - t + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return (1.0 + t) / 2.0, 2.0 * D


def collocation_lambda_1(a, e, c, d, k, n=96):
    """Lowest Dirichlet eigenvalue of -((1 + a x) y')' + (c + d sin(k x)) y =
    lambda (1 + e x) y on [0, 1] by Chebyshev collocation (Trefethen, ch. 7):
    the boundary rows and columns are dropped; the eigenvalues are real."""
    x, D = chebyshev(n)
    A = -D @ ((1.0 + a * x)[:, np.newaxis] * D) + np.diag(c + d * np.sin(k * x))
    lam = np.linalg.eigvals(A[1:-1, 1:-1] / (1.0 + e * x[1:-1])[:, np.newaxis])
    return float(lam.real.min())


class TestCollocationOracle:
    """The random family of variable operators: a, e uniform on [0, 1], c on
    [-30, 10], d on [0, 60] and k on [1, 25]; about half have lambda_1 < 0.
    Collocation at n = 96 and 128 agrees to about 1e-11 on these."""

    def test_certificate_and_lowest_eigenvalue_match_collocation(self):
        draws = np.random.default_rng(7).uniform([0, 0, -30, 0, 1], [1, 1, 10, 60, 25], (20, 5))
        lambda_max, signs = 100.0, set()
        for a, e, c, d, k in draws:
            sys = kx.preset_four_coeff(f"1+{a:.17g}*x", f"{c:.17g}+{d:.17g}*sin({k:.17g}*x)",
                                       f"1+{e:.17g}*x", 0, (0.0, 1.0))
            oracle = collocation_lambda_1(a, e, c, d, k)
            result = kx.lowest_friedrichs_eigenvalue(sys, lambda_max)
            signs.add(oracle > 0.0)
            assert result.certified_strictly_positive == (oracle > spectral.POSITIVITY_MARGIN)
            if spectral.POSITIVITY_MARGIN < oracle <= lambda_max:
                assert abs(result.lambda_min - oracle) <= 1e-7 * oracle, (result, oracle)
        assert signs == {True, False}
