"""Lowest-eigenvalue scan for the separated boundary-condition extension."""

import numpy as np
import pytest

import kreinext as kx
from kreinext.errors import StructureError
from kreinext.spectral import friedrichs_char_value


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
        result = kx.lowest_friedrichs_eigenvalue(
            kx.preset_pure(1, (0.0, 1.0)), lambda_max=5.0, coarse_steps=40
        )
        assert result.lambda_min is None
        assert result.certified_strictly_positive
        assert result.scan_bound == 5.0
        assert len(result.scan_lambdas) == 41

    def test_quadratic_grid_biased_toward_zero(self):
        result = kx.lowest_friedrichs_eigenvalue(
            kx.preset_pure(1, (0.0, 1.0)), lambda_max=4.0, coarse_steps=20
        )
        gaps = np.diff(result.scan_lambdas)
        assert np.all(np.diff(gaps) > -1e-12)  # spacing grows with lambda

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(StructureError):
            kx.lowest_friedrichs_eigenvalue(kx.preset_pure(1, (0, 1)), lambda_max=0.0)
