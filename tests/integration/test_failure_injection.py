"""Failure injection: hostile inputs at every public API boundary.

A production library's error behavior is part of its contract: bad inputs
must fail fast with a clear message -- never a silent wrong answer, never
an opaque numpy traceback three layers down.
"""

import numpy as np
import pytest

from repro import PairView, Tycos, TycosConfig, brute_force_search, ksg_mi, normalized_mi
from repro.analysis import scan_pairs
from repro.baselines.amic import amic_search
from repro.baselines.mass import mass_distance_profile
from repro.baselines.matrix_profile import matrix_profile_ab
from repro.baselines.pearson import pcc, sliding_pcc
from repro.mi.cmi import ksg_cmi
from repro.mi.histogram import histogram_mi
from repro.mi.kde import kde_mi


NAN_SERIES = np.array([0.1, np.nan, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] * 5)
INF_SERIES = np.array([0.1, np.inf, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] * 5)
GOOD_SERIES = np.linspace(0, 1, 50)


class TestNanInfRejection:
    def test_ksg_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ksg_mi(NAN_SERIES, GOOD_SERIES)

    def test_ksg_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            ksg_mi(GOOD_SERIES, INF_SERIES)

    def test_pairview_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            PairView(NAN_SERIES, GOOD_SERIES)

    def test_search_rejects_nan(self):
        cfg = TycosConfig(sigma=0.3, s_min=8, s_max=20, td_max=1)
        with pytest.raises(ValueError, match="finite"):
            Tycos(cfg).search(NAN_SERIES, GOOD_SERIES)


class TestEmptyAndTiny:
    def test_search_on_empty_series(self):
        cfg = TycosConfig(sigma=0.3, s_min=8, s_max=20, td_max=1)
        with pytest.raises(ValueError, match="non-empty"):
            Tycos(cfg).search(np.empty(0), np.empty(0))

    def test_brute_force_on_tiny_series(self):
        # Shorter than s_min: nothing to enumerate, empty result.
        cfg = TycosConfig(sigma=0.3, s_min=20, s_max=40, td_max=1)
        rng = np.random.default_rng(0)
        result = brute_force_search(rng.normal(size=10), rng.normal(size=10), cfg)
        assert result.windows == []

    def test_amic_on_tiny_series(self):
        cfg = TycosConfig(sigma=0.3, s_min=20, s_max=40, td_max=0)
        rng = np.random.default_rng(0)
        result = amic_search(rng.normal(size=10), rng.normal(size=10), cfg)
        assert result.windows == []

    def test_normalized_mi_on_two_points(self):
        assert 0.0 <= normalized_mi(np.array([0.0, 1.0]), np.array([0.0, 1.0])) <= 1.0


class TestDegenerateValues:
    def test_constant_series_everywhere(self):
        flat = np.ones(60)
        # Estimators must produce finite numbers, not NaN, on zero-variance
        # inputs.
        assert np.isfinite(histogram_mi(flat, flat))
        assert pcc(flat, flat) == 0.0
        assert np.all(np.isfinite(mass_distance_profile(np.ones(10), flat)))
        profile, _ = matrix_profile_ab(flat, flat, 8)
        assert np.all(np.isfinite(profile))

    def test_search_on_constant_series_with_jitter(self):
        cfg = TycosConfig(sigma=0.5, s_min=8, s_max=20, td_max=1, jitter=1e-6)
        result = Tycos(cfg).search(np.ones(60), np.ones(60))
        # Jittered constants are pure noise: nothing significant.
        assert isinstance(result.windows, list)

    def test_kde_on_near_constant(self):
        values = np.ones(50)
        values[0] = 1.0 + 1e-12
        assert np.isfinite(kde_mi(values, values))

    def test_cmi_with_constant_conditioning(self, rng):
        x = rng.normal(size=100)
        y = x + 0.1 * rng.normal(size=100)
        z = np.zeros(100)
        # Conditioning on a constant = unconditional MI; must stay finite.
        assert np.isfinite(ksg_cmi(x, y, z))


class TestStructuralMisuse:
    def test_sliding_pcc_delay_out_of_range(self, rng):
        x = rng.normal(size=30)
        # A delay that leaves no aligned samples yields an empty profile.
        assert sliding_pcc(x, x, window=10, delay=29).size == 0

    def test_scan_pairs_with_empty_collection(self):
        cfg = TycosConfig(sigma=0.3, s_min=8, s_max=20, td_max=1)
        report = scan_pairs({}, cfg)
        assert report.findings == []
