"""Tests for the PAA pyramid: exact aggregation and exact coordinates.

The contract under test: ``paa_downsample`` computes plain block means
(nothing fancier), and the coordinate mapping -- cell spans, window
footprints, the coarse delay bound, refinement cells -- satisfies the
containment lemma for every factor and for lengths not divisible by the
factor.
"""

import numpy as np
import pytest

from repro.core.config import TycosConfig
from repro.core.pyramid import (
    PyramidLevel,
    build_level,
    cell_span,
    coarse_config,
    coarse_length,
    footprint,
    paa_downsample,
    refinement_cell,
)
from repro.core.segmentation import merge_spans
from repro.core.window import PairView, TimeDelayWindow


class TestPaaDownsample:
    def test_exact_block_means(self):
        values = np.arange(12, dtype=np.float64)
        out = paa_downsample(values, 4)
        np.testing.assert_array_equal(out, [1.5, 5.5, 9.5])

    def test_partial_tail_block_averages_only_existing_samples(self):
        values = np.array([2.0, 4.0, 6.0, 10.0, 20.0])
        out = paa_downsample(values, 3)
        np.testing.assert_array_equal(out, [4.0, 15.0])

    def test_matches_reference_mean_loop(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=101)
        for factor in (2, 3, 4, 7, 8):
            out = paa_downsample(values, factor)
            reference = np.array(
                [
                    values[i * factor : (i + 1) * factor].mean()
                    for i in range(coarse_length(values.size, factor))
                ]
            )
            np.testing.assert_array_equal(out, reference)

    def test_factor_one_is_an_identity_copy(self):
        values = np.random.default_rng(1).normal(size=37)
        out = paa_downsample(values, 1)
        np.testing.assert_array_equal(out, values)
        out[0] = 123.0
        assert values[0] != 123.0  # a copy, not a view

    def test_rejects_empty_and_bad_factor(self):
        with pytest.raises(ValueError):
            paa_downsample(np.array([]), 2)
        with pytest.raises(ValueError):
            paa_downsample(np.ones(4), 0)


class TestCoordinateMapping:
    @pytest.mark.parametrize("factor", [2, 4, 8])
    @pytest.mark.parametrize("n", [96, 97, 101, 103])
    def test_cell_span_round_trip(self, factor, n):
        """Every sample belongs to exactly one cell, and that cell's span
        contains it -- the t -> t // factor round trip across non-divisible
        lengths."""
        covered = []
        for index in range(coarse_length(n, factor)):
            lo, hi = cell_span(index, factor, n)
            assert lo <= hi < n
            for t in range(lo, hi + 1):
                assert t // factor == index
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(n))

    def test_cell_span_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cell_span(25, 4, 100)

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_footprint_contains_original_window(self, factor):
        """Containment lemma, X side: the footprint of a window's coarse
        image contains the window's X interval."""
        n = 103
        rng = np.random.default_rng(7)
        for _ in range(200):
            start = int(rng.integers(0, n - 12))
            end = int(rng.integers(start + 4, min(n, start + 40)))
            coarse = TimeDelayWindow(
                start=start // factor, end=end // factor, delay=0
            )
            lo, hi = footprint(coarse, factor, n)
            assert lo <= start and end <= hi

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_delay_band_contains_every_preimage(self, factor):
        """Containment lemma, delay side: every tau has a faithful coarse
        image inside the coarse pass's delay band."""
        cfg = TycosConfig(sigma=0.8, s_min=32, s_max=96, td_max=10)
        td_max_c = coarse_config(cfg, factor).td_max
        for tau in range(-cfg.td_max, cfg.td_max + 1):
            c = round(tau / factor)
            assert abs(c * factor - tau) <= factor - 1
            assert abs(c) <= td_max_c

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_refinement_cell_contains_window_and_delay(self, factor):
        n = 500
        w = TimeDelayWindow(start=200, end=260, delay=-5)
        coarse = TimeDelayWindow(
            start=w.start // factor, end=w.end // factor, delay=-(5 // factor)
        )
        lo, hi = refinement_cell(coarse, factor, n, margin=0)
        assert lo <= w.start and w.end < hi
        assert 0 <= lo and hi <= n

    def test_refinement_cell_margin_clips_to_series(self):
        cell = refinement_cell(TimeDelayWindow(start=0, end=2, delay=0), 4, 20, margin=100)
        assert cell == (0, 20)

    def test_cells_merge_to_union(self):
        a = refinement_cell(TimeDelayWindow(0, 3, 0), 4, 200, margin=2)
        b = refinement_cell(TimeDelayWindow(2, 6, 1), 4, 200, margin=2)
        far = refinement_cell(TimeDelayWindow(30, 33, 0), 4, 200, margin=2)
        assert merge_spans([far, b, a]) == [(min(a[0], b[0]), max(a[1], b[1])), far]


class TestBuildLevel:
    def test_level_downsamples_both_series_identically(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=101), rng.normal(size=101)
        pair = PairView(x, y, jitter=0.0, seed=0)
        level = build_level(pair, 4)
        assert isinstance(level, PyramidLevel)
        np.testing.assert_array_equal(level.x, paa_downsample(pair.x, 4))
        np.testing.assert_array_equal(level.y, paa_downsample(pair.y, 4))
        assert level.n == coarse_length(101, 4)


class TestCoarseConfig:
    def _config(self, **kwargs):
        defaults = dict(
            sigma=0.8, s_min=32, s_max=96, td_max=8, jitter=1e-6, seed=1,
            significance_permutations=10,
        )
        defaults.update(kwargs)
        return TycosConfig(**defaults)

    def test_factor_one_returns_config_unchanged(self):
        cfg = self._config()
        assert coarse_config(cfg, 1) is cfg

    def test_geometry_scales_and_gates_relax(self):
        cfg = self._config(coarse_sigma_ratio=0.5)
        c = coarse_config(cfg, 8)
        assert c.sigma == pytest.approx(0.4)
        assert c.s_min >= cfg.k + 2
        assert c.s_max >= c.s_min
        assert c.td_max == 1
        assert c.jitter == 0.0
        assert c.significance_permutations == 0

    def test_coarse_s_min_never_collapses_below_floor(self):
        """A tiny s_min / factor quotient must not let the coarse pass
        search statistically meaningless windows."""
        cfg = self._config(s_min=16, s_max=64)
        c = coarse_config(cfg, 8)
        assert c.s_min == 12

    def test_user_delay_band_maps_outward(self):
        cfg = self._config(delay_band=(-5, 3))
        c = coarse_config(cfg, 4)
        lo, hi = c.delay_band
        # Every coarse image of every tau in [-5, 3] must fall in the band.
        for tau in range(-5, 4):
            for img in range(-c.td_max, c.td_max + 1):
                if abs(img * 4 - tau) <= 3:
                    assert lo <= img <= hi
