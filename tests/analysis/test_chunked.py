"""Tests for the chunked big-series search."""

import pytest

from repro.analysis.chunked import chunk_pair, search_chunked
from repro.core.config import TycosConfig
from repro.core.tycos import Tycos
from repro.core.window import TimeDelayWindow
from repro.experiments.similarity import detects
from tests.helpers import overlap_fraction


def _config(**kwargs):
    defaults = dict(
        sigma=0.5,
        s_min=20,
        s_max=80,
        td_max=5,
        init_delay_step=1,
        significance_permutations=10,
        seed=0,
    )
    defaults.update(kwargs)
    return TycosConfig(**defaults)


def _long_pair(rng, n=1200):
    """Two relations: one mid-chunk, one straddling a chunk boundary."""
    x = rng.uniform(0, 1, n)
    y = rng.uniform(0, 1, n)
    for start in (150, 570):  # 570..670 straddles the 600 boundary below
        seg = rng.uniform(0, 1, 100)
        x[start : start + 100] = seg
        y[start + 3 : start + 103] = seg + 0.01 * rng.normal(size=100)
    return x, y


class TestChunkPair:
    def test_chunks_cover_series(self, rng):
        x = rng.normal(size=1000)
        y = rng.normal(size=1000)
        chunks = list(chunk_pair(x, y, chunk=300, overlap=50))
        assert chunks[0][0] == 0
        assert chunks[-1][0] + chunks[-1][1].size == 1000
        # Consecutive chunks overlap by exactly `overlap`.
        for (o1, c1, _), (o2, __, ___) in zip(chunks, chunks[1:]):
            assert o2 == o1 + c1.size - 50

    def test_rejects_bad_overlap(self, rng):
        with pytest.raises(ValueError, match="exceed overlap"):
            list(chunk_pair(rng.normal(size=10), rng.normal(size=10), chunk=5, overlap=5))

    def test_single_chunk_when_series_short(self, rng):
        x = rng.normal(size=100)
        chunks = list(chunk_pair(x, x, chunk=300, overlap=50))
        assert len(chunks) == 1


class TestSearchChunked:
    def test_finds_relations_including_boundary_straddler(self, rng):
        x, y = _long_pair(rng)
        cfg = _config()
        overlap = cfg.s_max + cfg.td_max
        result = search_chunked(chunk_pair(x, y, chunk=600, overlap=overlap), cfg)
        found = [r.window for r in result.windows]
        assert detects(found, TimeDelayWindow(150, 249, delay=3))
        assert detects(found, TimeDelayWindow(570, 669, delay=3))
        assert result.chunks >= 2

    def test_matches_unchunked_search(self, rng):
        x, y = _long_pair(rng)
        cfg = _config()
        whole = Tycos(cfg).search(x, y)
        overlap = cfg.s_max + cfg.td_max
        chunked = search_chunked(chunk_pair(x, y, chunk=600, overlap=overlap), cfg)
        whole_regions = [r.window for r in whole.windows]
        for r in chunked.windows:
            # Every chunked window corresponds to a region the global
            # search also flags (the converse can differ at restarts).
            assert any(overlap_fraction(r.window, w) > 0 for w in whole_regions)

    def test_overlap_duplicates_resolved(self, rng):
        x, y = _long_pair(rng)
        cfg = _config()
        result = search_chunked(chunk_pair(x, y, chunk=600, overlap=cfg.s_max + cfg.td_max), cfg)
        windows = [r.window for r in result.windows]
        for i, a in enumerate(windows):
            for b in windows[i + 1 :]:
                assert not a.contains(b) and not b.contains(a)

    def test_short_chunks_skipped(self, rng):
        cfg = _config()
        chunks = [(0, rng.normal(size=5), rng.normal(size=5))]
        result = search_chunked(iter(chunks), cfg)
        assert len(result) == 0

    def test_mismatched_chunk_arrays_rejected(self, rng):
        cfg = _config()
        chunks = [(0, rng.normal(size=50), rng.normal(size=49))]
        with pytest.raises(ValueError, match="equal length"):
            search_chunked(iter(chunks), cfg)
