"""Tests for the batched collection-level stage-1 screen.

The contract under test -- the TY121 bit-exactness gate of
``repro.analysis.screen_state``: every score produced by
``batched_screen_scores`` is bit-identical to the per-pair reference
``repro.analysis.cascade.fft_screen_score`` on the same pair, at every
block size and tile shape, for odd collection sizes, on non-finite and
flat inputs, for delay bands wider than the series, and in the
abstaining short-series geometries -- a state keeps one moment row per
series suffix, and one call's memory stays within a fixed multiple of
the tile budget.
"""

import tracemalloc

import numpy as np
import pytest

import repro.analysis.cascade as cascade_mod
import repro.analysis.screen_state as screen_state_mod
from repro.analysis.cascade import cascade_scan, fft_screen_score
from repro.analysis.screen_state import (
    ScreenGeometry,
    batched_screen_scores,
    build_screen_state,
    build_screen_states,
)
from repro.core.config import TycosConfig


def _collection(count, n, seed=31):
    """A mixed collection: coupled pairs, noise, and degenerate series."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=n))
    series = {}
    for i in range(count):
        kind = i % 4
        if kind == 0:
            series[f"s{i}"] = np.roll(base, i) + rng.normal(scale=0.1, size=n)
        elif kind == 1:
            series[f"s{i}"] = rng.normal(size=n)
        elif kind == 2:
            series[f"s{i}"] = -base + rng.normal(scale=0.05, size=n)
        else:
            series[f"s{i}"] = np.ones(n)  # zero-variance: degenerate probes
    return series


def _all_pairs(names):
    return [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]


def _reference_scores(series, names, pairs, geometry):
    return [
        fft_screen_score(series[names[i]], series[names[j]], geometry.window, geometry.td_max)
        for i, j in pairs
    ]


class TestBitExactness:
    """The gate: batched scores == per-pair fft_screen_score, bit for bit."""

    @pytest.mark.parametrize("count", [6, 7])  # even and odd collections
    def test_all_pairs_match_reference(self, count):
        series = _collection(count, n=160)
        names = list(series)
        geometry = ScreenGeometry(length=160, window=48, td_max=5)
        states = [build_screen_state(series[name], geometry) for name in names]
        pairs = _all_pairs(names)
        got = batched_screen_scores(states, pairs, geometry)
        want = _reference_scores(series, names, pairs, geometry)
        assert got == want

    @pytest.mark.parametrize("block", [1, 3, 7, 100])
    def test_block_size_never_changes_scores(self, block):
        # Block sizes straddling the boundary (the 21-pair workload splits
        # unevenly at 3 and 7, and 100 covers everything in one block)
        # must all produce the identical score list.
        series = _collection(7, n=140)
        names = list(series)
        geometry = ScreenGeometry(length=140, window=40, td_max=4)
        states = [build_screen_state(series[name], geometry) for name in names]
        pairs = _all_pairs(names)
        whole = batched_screen_scores(states, pairs, geometry)
        blocked = []
        for start in range(0, len(pairs), block):
            blocked.extend(
                batched_screen_scores(states, pairs[start : start + block], geometry)
            )
        assert blocked == whole
        assert whole == _reference_scores(series, names, pairs, geometry)

    def test_degenerate_series_in_a_block(self):
        # All-constant series exercise both the sigma_ok=False window mask
        # and the degenerate-query constant-profile branch.
        n = 120
        rng = np.random.default_rng(5)
        series = {
            "flat": np.ones(n),
            "zero": np.zeros(n),
            "noise": rng.normal(size=n),
        }
        names = list(series)
        geometry = ScreenGeometry(length=n, window=32, td_max=3)
        states = [build_screen_state(series[name], geometry) for name in names]
        pairs = _all_pairs(names)
        got = batched_screen_scores(states, pairs, geometry)
        assert got == _reference_scores(series, names, pairs, geometry)

    @pytest.mark.parametrize(
        "n, window, td_max",
        [
            (40, 16, 30),  # td_max >= n - m + 1: band rows fit no window
            (40, 16, 45),  # td_max >= n: suffix rows past the series end
        ],
    )
    def test_delay_band_wider_than_the_series(self, n, window, td_max):
        series = _collection(5, n=n)
        names = list(series)
        geometry = ScreenGeometry(length=n, window=window, td_max=td_max)
        states = [build_screen_state(series[name], geometry) for name in names]
        pairs = [(i, j) for i in range(len(names)) for j in range(len(names)) if i != j]
        got = batched_screen_scores(states, pairs, geometry)
        want = _reference_scores(series, names, pairs, geometry)
        assert [score.hex() for score in got] == [score.hex() for score in want]


class TestStateLayout:
    """One moment row per series suffix, shared by both pair roles."""

    @pytest.mark.parametrize("td_max", [0, 3, 45])
    def test_one_row_per_suffix(self, td_max):
        n, window = 40, 16
        geometry = ScreenGeometry(length=n, window=window, td_max=td_max)
        values = np.cumsum(np.random.default_rng(2).normal(size=n))
        state = build_screen_state(values, geometry)
        assert state.sums.shape == (td_max + 1, n - window + 1)
        assert state.spread.shape == (td_max + 1, n - window + 1)
        for s in range(min(td_max + 1, n - window + 1)):
            # Row s holds the moments of values[s:] over its valid prefix.
            suffix = values[s:]
            width = suffix.size - window + 1
            want = np.array([suffix[k : k + window].sum() for k in range(width)])
            np.testing.assert_allclose(state.sums[s, :width], want, rtol=1e-12, atol=1e-9)


def _rough_collection(n, seed=13):
    """Six series holding every input the screen must survive."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(size=n))
    gap = walk + rng.normal(scale=0.1, size=n)
    gap[50:60] = np.nan
    stretch = rng.normal(size=n)
    stretch[20:90] = 1.5  # longer than the window: zero-variance windows
    spike = rng.normal(size=n)
    spike[100] = np.inf
    return {
        "walk": walk,
        "lagged": np.roll(walk, 3) + rng.normal(scale=0.1, size=n),
        "gap": gap,
        "stretch": stretch,
        "flat": np.ones(n),
        "spike": spike,
    }


class TestTileEdges:
    """Tiles that split the band or the pairs score exactly like the reference."""

    N, WINDOW, TD_MAX = 160, 40, 5  # an 11-row band

    def _tile(self, case):
        n, rows = self.N, 2 * self.TD_MAX + 1
        geometry = ScreenGeometry(length=n, window=self.WINDOW, td_max=self.TD_MAX)
        one_pair = max(rows * n, screen_state_mod.MASS_PROBES * geometry.fft_size)
        return {
            "one row": n,
            "one pair": one_pair,
            "4 of 11 rows": 4 * n,
            "4 pairs of 30": 4 * one_pair,
        }[case]

    @pytest.mark.parametrize("case", ["one row", "one pair", "4 of 11 rows", "4 pairs of 30"])
    def test_every_tile_shape_matches_reference(self, case, monkeypatch):
        series = _rough_collection(self.N)
        names = list(series)
        geometry = ScreenGeometry(length=self.N, window=self.WINDOW, td_max=self.TD_MAX)
        pairs = [(i, j) for i in range(len(names)) for j in range(len(names)) if i != j]
        monkeypatch.setattr(screen_state_mod, "TILE_ELEMENTS", self._tile(case))
        states = [build_screen_state(series[name], geometry) for name in names]
        got = batched_screen_scores(states, pairs, geometry)
        want = _reference_scores(series, names, pairs, geometry)
        assert [score.hex() for score in got] == [score.hex() for score in want]


class TestMemoryBound:
    """One call's peak allocation is bounded by the tile budget alone."""

    @pytest.mark.parametrize("td_max", [8, 80])
    @pytest.mark.parametrize("all_pairs", [False, True])
    def test_peak_stays_within_a_multiple_of_the_tile(self, td_max, all_pairs):
        rng = np.random.default_rng(3)
        series = [np.cumsum(rng.normal(size=600)) for _ in range(8)]
        geometry = ScreenGeometry(length=600, window=64, td_max=td_max)
        states = [build_screen_state(values, geometry) for values in series]
        pairs = _all_pairs(series) if all_pairs else [(0, 1)]
        tracemalloc.start()
        try:
            batched_screen_scores(states, pairs, geometry)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * screen_state_mod.TILE_ELEMENTS


class TestAbstention:
    def test_short_series_abstain_with_inf(self):
        # Series shorter than the window: the reference returns inf for
        # every pair, and so must the whole batched block.
        series = {"a": np.arange(5.0), "b": np.arange(5.0)[::-1], "c": np.ones(5)}
        geometry = ScreenGeometry(length=5, window=50, td_max=2)
        assert geometry.abstains
        states = build_screen_states(series, geometry)
        pairs = [(0, 1), (0, 2), (1, 2)]
        got = batched_screen_scores(list(states.values()), pairs, geometry)
        assert got == [float("inf")] * 3
        assert got == _reference_scores(series, list(series), pairs, geometry)

    def test_window_below_two_abstains(self):
        geometry = ScreenGeometry(length=50, window=1, td_max=2)
        assert geometry.abstains
        states = build_screen_states({"a": np.ones(50), "b": np.ones(50)}, geometry)
        got = batched_screen_scores(list(states.values()), [(0, 1)], geometry)
        assert got == [float("inf")]

    def test_empty_pair_block(self):
        geometry = ScreenGeometry(length=50, window=10, td_max=1)
        assert batched_screen_scores([], [], geometry) == []


class TestGeometryValidation:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError, match="length"):
            ScreenGeometry(length=0, window=10, td_max=1)
        with pytest.raises(ValueError, match="td_max"):
            ScreenGeometry(length=10, window=5, td_max=-1)

    def test_rejects_mismatched_series_length(self):
        geometry = ScreenGeometry(length=100, window=10, td_max=1)
        with pytest.raises(ValueError, match="does not match"):
            build_screen_state(np.ones(99), geometry)


class TestCascadeIntegration:
    """The batched stage 1 slots into cascade_scan without changing it."""

    def _config(self):
        return TycosConfig(
            sigma=0.5, s_min=24, s_max=48, td_max=6, jitter=1e-6, seed=1,
            significance_permutations=5,
        )

    def test_tile_size_never_changes_the_report(self, monkeypatch):
        series = _collection(6, n=240, seed=9)
        rows = 2 * self._config().td_max + 1
        reports = []
        # One delay row, one pair's band, and the module default.
        for tile in (240, rows * 240, screen_state_mod.TILE_ELEMENTS):
            monkeypatch.setattr(screen_state_mod, "TILE_ELEMENTS", tile)
            reports.append(cascade_scan(series, self._config(), screen_window=120))
        first = reports[0]
        for report in reports[1:]:
            assert report.findings == first.findings
            assert report.skipped == first.skipped
            assert report.pairs_pruned_fft == first.pairs_pruned_fft
            assert report.pairs_pruned_nmi == first.pairs_pruned_nmi

    def test_pooled_screen_matches_serial(self, monkeypatch, many_cores, pool_sizes):
        series = _collection(6, n=240, seed=9)
        serial = cascade_scan(series, self._config(), screen_window=120)
        # Blocks of 4 split the 15 pairs into several stage-1 pool tasks.
        monkeypatch.setattr(cascade_mod, "_SCREEN_BLOCK", 4)
        pooled = cascade_scan(series, self._config(), screen_window=120, n_jobs=2)
        assert pool_sizes[0] == 2  # stage 1's pool
        assert pooled.findings == serial.findings
        assert pooled.skipped == serial.skipped
        assert pooled.pairs_pruned_fft == serial.pairs_pruned_fft

    def test_phase_seconds_recorded(self):
        series = _collection(4, n=240, seed=9)
        report = cascade_scan(series, self._config(), screen_window=120)
        assert set(report.phase_seconds) == {"screen", "search"}
        assert all(v >= 0.0 for v in report.phase_seconds.values())
        assert "phase screen" not in report.to_text()
        assert "phase screen" in report.to_text(include_timings=True)
