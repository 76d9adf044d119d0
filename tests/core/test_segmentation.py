"""Tests for the timeline segmentation geometry.

The load-bearing property is the containment lemma: with spans
overlapping by at least ``s_max + td_max``, every feasible window's
footprint (its X interval unioned with its shifted Y interval) lies
fully inside at least one span, so a per-span search never loses a
window to a boundary.
"""

import numpy as np
import pytest

from repro.core.config import TycosConfig
from repro.core.segmentation import overlap_zones, segment_spans, span_containing


class TestSegmentSpans:
    def test_single_segment_is_the_whole_timeline(self):
        assert segment_spans(1000, 1, 50) == [(0, 1000)]

    def test_short_series_collapses_to_one_span(self):
        assert segment_spans(40, 4, 50) == [(0, 40)]

    def test_cover_and_overlap(self):
        for n, k, overlap in [(1000, 2, 54), (1000, 4, 54), (997, 7, 31), (5000, 16, 300)]:
            spans = segment_spans(n, k, overlap)
            assert 1 <= len(spans) <= k
            assert spans[0][0] == 0
            assert spans[-1][1] == n
            for (lo, hi) in spans:
                assert 0 <= lo < hi <= n
            for (lo_a, hi_a), (lo_b, hi_b) in zip(spans, spans[1:]):
                assert lo_b > lo_a  # strictly advancing
                assert hi_a - lo_b >= min(overlap, n - lo_b)  # consecutive overlap

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n must be"):
            segment_spans(0, 2, 10)
        with pytest.raises(ValueError, match="n_segments"):
            segment_spans(100, 0, 10)
        with pytest.raises(ValueError, match="overlap"):
            segment_spans(100, 2, 0)


class TestContainmentLemma:
    def test_every_short_interval_is_contained(self, rng):
        """Any interval no longer than the overlap fits in some span."""
        for _ in range(25):
            n = int(rng.integers(50, 3000))
            k = int(rng.integers(1, 9))
            overlap = int(rng.integers(1, max(2, n // 2)))
            spans = segment_spans(n, k, overlap)
            for _ in range(40):
                length = int(rng.integers(1, overlap + 1))
                a = int(rng.integers(0, n - length + 1))
                assert span_containing(spans, a, a + length - 1) >= 0, (
                    f"[{a}, {a + length - 1}] lost by spans {spans} "
                    f"(n={n}, k={k}, overlap={overlap})"
                )

    def test_every_feasible_window_footprint_is_contained(self, rng):
        """The lemma instantiated with a config's window geometry."""
        config = TycosConfig(sigma=0.3, s_min=8, s_max=60, td_max=10)
        n = 1200
        spans = segment_spans(n, 5, config.segment_overlap())
        for _ in range(200):
            size = int(rng.integers(config.s_min, config.s_max + 1))
            delay = int(rng.integers(-config.td_max, config.td_max + 1))
            start = int(rng.integers(max(0, -delay), n - size + 1 - max(0, delay)))
            end = start + size - 1
            foot_lo = min(start, start + delay)
            foot_hi = max(end, end + delay)
            assert span_containing(spans, foot_lo, foot_hi) >= 0

    def test_span_containing_misses_long_intervals(self):
        spans = segment_spans(1000, 4, 54)
        assert span_containing(spans, 0, 999) == -1


class TestOverlapZones:
    def test_zones_are_the_pairwise_intersections(self):
        spans = segment_spans(1000, 4, 54)
        zones = overlap_zones(spans)
        assert len(zones) == len(spans) - 1
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(spans, spans[1:]):
            assert (lo_b, hi_a) in zones

    def test_single_span_has_no_zones(self):
        assert overlap_zones([(0, 100)]) == []

    def test_zones_partition_only_shared_samples(self):
        """An index is in a zone iff at least two spans cover it."""
        spans = segment_spans(600, 5, 40)
        zones = overlap_zones(spans)
        coverage = np.zeros(600, dtype=int)
        for lo, hi in spans:
            coverage[lo:hi] += 1
        in_zone = np.zeros(600, dtype=bool)
        for lo, hi in zones:
            in_zone[lo:hi] = True
        assert np.array_equal(in_zone, coverage >= 2)


class TestConfigKnobs:
    def test_segment_overlap_formula(self):
        config = TycosConfig(s_min=8, s_max=60, td_max=10)
        assert config.segment_overlap() == 60 + 10 + 8
        assert config.scaled(segment_margin=0).segment_overlap() == 70
        assert config.scaled(segment_margin=25).segment_overlap() == 95

    def test_validation(self):
        with pytest.raises(ValueError, match="segment_margin"):
            TycosConfig(segment_margin=-1)
