"""Lowest-eigenvalue scan for the separated boundary-condition extension."""

import warnings

import numpy as np
import pytest

import kreinext as kx
from kreinext import spectral
from kreinext.errors import StructureError
from kreinext.spectral import friedrichs_char_value

BEAM_MU = 4.730040744862704  # first root of cos(mu) cosh(mu) = 1 above zero


class TestCharacteristicValue:
    def test_small_at_eigenvalue(self):
        sys = kx.preset_pure(1, (0.0, np.pi))
        at_eig = friedrichs_char_value(sys, 1.0)
        away = friedrichs_char_value(sys, 0.5)
        assert at_eig < 1e-8 * away

    def test_positive_away_from_spectrum(self):
        sys = kx.preset_pure(1, (0.0, 1.0))
        assert friedrichs_char_value(sys, 1.0) > 1e-3


class TestScan:
    @pytest.mark.parametrize(
        "build",
        [kx.preset_fourth_order, lambda: kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0), M=2)],
        ids=["fourth-order", "four-coeff-m2"],
    )
    def test_batched_grid_matches_pointwise_values(self, build):
        sys = build()
        result = kx.lowest_friedrichs_eigenvalue(sys, lambda_max=100.0)
        pointwise = [friedrichs_char_value(sys, lam) for lam in result.scan_lambdas.tolist()]
        assert np.abs(result.scan_sigmas - pointwise).max() <= 1e-12

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
        assert len(result.scan_lambdas) == 201

    def test_quadratic_grid_biased_toward_zero(self):
        result = kx.lowest_friedrichs_eigenvalue(kx.preset_pure(1, (0.0, 1.0)), lambda_max=4.0)
        gaps = np.diff(result.scan_lambdas)
        assert np.all(np.diff(gaps) > -1e-12)  # spacing grows with lambda

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
        # -y'' + y on [0, 1]: one batched call for the coarse grid, then the
        # refinement, where golden-section search made 59 calls
        char, calls = counted(friedrichs_char_value)
        monkeypatch.setattr(spectral, "friedrichs_char_value", char)
        result = kx.lowest_friedrichs_eigenvalue(
            kx.preset_four_coeff(1, 1, 1, 0, (0.0, 1.0)), lambda_max=100.0)
        assert abs(result.lambda_min - (1.0 + np.pi**2)) <= 1e-11
        assert len(calls) <= 21
