"""Lowest-eigenvalue scan for the separated boundary-condition extension."""

import numpy as np
import pytest

import kreinext as kx
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
