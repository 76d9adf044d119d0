"""Tests for result sets and window aggregation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import ResultSet, WindowResult, merge_overlapping
from repro.core.window import TimeDelayWindow


def _res(start, end, delay=0, nmi=0.5):
    return WindowResult(window=TimeDelayWindow(start, end, delay), mi=nmi, nmi=nmi)


class TestResultSetContainment:
    def test_disjoint_windows_coexist(self):
        rs = ResultSet()
        assert rs.insert(_res(0, 10))
        assert rs.insert(_res(20, 30))
        assert len(rs) == 2

    def test_contained_weaker_window_rejected(self):
        rs = ResultSet()
        rs.insert(_res(0, 20, nmi=0.8))
        assert not rs.insert(_res(5, 15, nmi=0.5))
        assert len(rs) == 1

    def test_contained_stronger_window_evicts(self):
        rs = ResultSet()
        rs.insert(_res(0, 20, nmi=0.5))
        assert rs.insert(_res(5, 15, nmi=0.9))
        assert len(rs) == 1
        assert rs.windows()[0] == TimeDelayWindow(5, 15)

    def test_overlap_without_containment_allowed(self):
        rs = ResultSet()
        rs.insert(_res(0, 10))
        assert rs.insert(_res(5, 15))
        assert len(rs) == 2

    def test_no_containment_invariant(self):
        # The problem statement: no window in S contains another.
        rs = ResultSet()
        for s, e, v in [(0, 30, 0.4), (5, 10, 0.9), (2, 25, 0.6), (40, 50, 0.3)]:
            rs.insert(_res(s, e, nmi=v))
        windows = rs.windows()
        for a in windows:
            for b in windows:
                if a != b:
                    assert not a.contains(b)


class TestResultSetAccessors:
    def test_results_sorted_by_start(self):
        rs = ResultSet()
        rs.insert(_res(20, 30))
        rs.insert(_res(0, 10))
        assert [r.window.start for r in rs.results()] == [0, 20]

    def test_delays(self):
        rs = ResultSet()
        rs.insert(_res(0, 10, delay=5))
        rs.insert(_res(20, 30, delay=-3))
        assert sorted(rs.delays()) == [-3, 5]

    def test_iteration(self):
        rs = ResultSet()
        rs.insert(_res(0, 10))
        assert [r.window for r in rs] == [TimeDelayWindow(0, 10)]


class TestMergeOverlapping:
    def test_merges_chain(self):
        windows = [TimeDelayWindow(0, 10), TimeDelayWindow(5, 20), TimeDelayWindow(18, 30)]
        merged = merge_overlapping(windows)
        assert merged == [TimeDelayWindow(0, 30)]

    def test_keeps_disjoint(self):
        windows = [TimeDelayWindow(0, 10), TimeDelayWindow(20, 30)]
        assert merge_overlapping(windows) == windows

    def test_dominant_delay_kept(self):
        windows = [TimeDelayWindow(0, 5, delay=2), TimeDelayWindow(3, 30, delay=7)]
        merged = merge_overlapping(windows)
        assert merged[0].delay == 7  # larger window dominates

    def test_clamps_delay_to_series(self):
        windows = [TimeDelayWindow(0, 40, delay=0), TimeDelayWindow(35, 95, delay=8)]
        merged = merge_overlapping(windows, n=100)
        assert len(merged) == 1
        w = merged[0]
        assert w.y_end < 100 and w.y_start >= 0

    def test_empty(self):
        assert merge_overlapping([]) == []

    @given(st.lists(st.tuples(st.integers(0, 80), st.integers(0, 20)), max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_property_merged_are_disjoint_and_cover(self, spans):
        windows = [TimeDelayWindow(s, s + l) for s, l in spans]
        merged = merge_overlapping(windows)
        # Pairwise disjoint.
        for i, a in enumerate(merged):
            for b in merged[i + 1 :]:
                assert not a.overlaps(b)
        # Every original index is covered.
        covered = set()
        for w in merged:
            covered.update(range(w.start, w.end + 1))
        for w in windows:
            assert set(range(w.start, w.end + 1)) <= covered
