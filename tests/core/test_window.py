"""Tests for the time delay window model (Definitions 4.2 - 4.5, 6.2, 6.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import PairView, TimeDelayWindow


class TestWindowBasics:
    def test_size(self):
        assert TimeDelayWindow(3, 7).size == 5
        assert TimeDelayWindow(0, 0).size == 1

    def test_y_interval_follows_delay(self):
        w = TimeDelayWindow(10, 20, delay=5)
        assert (w.y_start, w.y_end) == (15, 25)
        w = TimeDelayWindow(10, 20, delay=-4)
        assert (w.y_start, w.y_end) == (6, 16)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError, match="start"):
            TimeDelayWindow(-1, 5)

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError, match="end"):
            TimeDelayWindow(5, 4)

    def test_ordering_and_hash(self):
        a = TimeDelayWindow(1, 5, 0)
        b = TimeDelayWindow(1, 5, 0)
        c = TimeDelayWindow(2, 5, 0)
        assert a == b
        assert hash(a) == hash(b)
        assert a < c

    def test_key(self):
        assert TimeDelayWindow(1, 2, 3).key() == (1, 2, 3)


class TestFeasibility:
    def test_feasible_window(self):
        w = TimeDelayWindow(10, 29, delay=5)
        assert w.is_feasible(n=100, s_min=10, s_max=30, td_max=10)

    def test_size_bounds(self):
        w = TimeDelayWindow(0, 9)
        assert not w.is_feasible(n=100, s_min=11, s_max=30, td_max=5)
        assert not w.is_feasible(n=100, s_min=2, s_max=9, td_max=5)

    def test_delay_bound(self):
        w = TimeDelayWindow(20, 30, delay=8)
        assert not w.is_feasible(n=100, s_min=5, s_max=20, td_max=7)

    def test_y_interval_must_fit(self):
        # End 95 with delay 10 pushes Y to 105 > 99.
        w = TimeDelayWindow(80, 95, delay=10)
        assert not w.is_feasible(n=100, s_min=5, s_max=30, td_max=20)
        # Start 3 with delay -5 pushes Y below 0.
        w = TimeDelayWindow(3, 20, delay=-5)
        assert not w.is_feasible(n=100, s_min=5, s_max=30, td_max=20)


class TestContainmentOverlap:
    def test_contains(self):
        outer = TimeDelayWindow(5, 20)
        inner = TimeDelayWindow(7, 15, delay=3)
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_overlap_fraction(self):
        a = TimeDelayWindow(0, 9)
        b = TimeDelayWindow(5, 14)
        assert a.overlap_fraction(b) == pytest.approx(5 / 15)
        assert a.overlap_fraction(a) == 1.0
        assert a.overlap_fraction(TimeDelayWindow(20, 30)) == 0.0

    @given(
        st.integers(0, 50), st.integers(0, 30),
        st.integers(0, 50), st.integers(0, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_overlap_symmetric(self, s1, l1, s2, l2):
        a = TimeDelayWindow(s1, s1 + l1)
        b = TimeDelayWindow(s2, s2 + l2)
        assert a.overlaps(b) == b.overlaps(a)
        assert a.overlap_fraction(b) == pytest.approx(b.overlap_fraction(a))


class TestConcatenation:
    def test_consecutive_windows(self):
        a = TimeDelayWindow(0, 9, delay=3)
        b = TimeDelayWindow(10, 19, delay=3)
        assert a.is_consecutive_with(b)
        assert not b.is_consecutive_with(a)

    def test_different_delay_not_consecutive(self):
        a = TimeDelayWindow(0, 9, delay=3)
        b = TimeDelayWindow(10, 19, delay=4)
        assert not a.is_consecutive_with(b)

    def test_concat(self):
        a = TimeDelayWindow(0, 9, delay=2)
        b = TimeDelayWindow(10, 19, delay=2)
        combined = a.concat(b)
        assert combined == TimeDelayWindow(0, 19, delay=2)

    def test_concat_rejects_non_consecutive(self):
        a = TimeDelayWindow(0, 9)
        b = TimeDelayWindow(11, 19)
        with pytest.raises(ValueError, match="not consecutive"):
            a.concat(b)

    def test_shifted(self):
        w = TimeDelayWindow(5, 10, delay=1)
        assert w.shifted(d_end=2) == TimeDelayWindow(5, 12, 1)
        assert w.shifted(d_start=-2, d_delay=3) == TimeDelayWindow(3, 10, 4)


class TestPairView:
    def test_extract_zero_delay(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        pair = PairView(x, y)
        xw, yw = pair.extract(TimeDelayWindow(10, 19))
        np.testing.assert_array_equal(xw, x[10:20])
        np.testing.assert_array_equal(yw, y[10:20])

    def test_extract_with_delay(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        pair = PairView(x, y)
        xw, yw = pair.extract(TimeDelayWindow(10, 19, delay=7))
        np.testing.assert_array_equal(xw, x[10:20])
        np.testing.assert_array_equal(yw, y[17:27])

    def test_extract_out_of_bounds(self, rng):
        pair = PairView(rng.normal(size=20), rng.normal(size=20))
        with pytest.raises(IndexError, match="Y bounds"):
            pair.extract(TimeDelayWindow(10, 15, delay=5))
        with pytest.raises(IndexError, match="X bounds"):
            pair.extract(TimeDelayWindow(10, 25))

    def test_jitter_breaks_ties_deterministically(self):
        x = np.zeros(30)
        y = np.zeros(30)
        a = PairView(x, y, jitter=1e-6, seed=7)
        b = PairView(x, y, jitter=1e-6, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        assert len(np.unique(a.x)) == 30  # ties broken

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            PairView(np.arange(3.0), np.arange(4.0))

    def test_rejects_nan(self):
        x = np.array([0.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            PairView(x, np.zeros(2))

    @pytest.mark.parametrize("shape", [(20, 10), (100, 2), (2, 100), (5, 4, 1)])
    def test_rejects_several_series(self, shape):
        # Flattening a multi-column input would interleave its series.
        x = np.arange(float(np.prod(shape))).reshape(shape)
        with pytest.raises(ValueError, match="single series"):
            PairView(x, x)
        with pytest.raises(ValueError, match="single series"):
            PairView(x.ravel(), x)

    @pytest.mark.parametrize("shape", [(30, 1), (1, 30), (30, 1, 1)])
    def test_accepts_one_series_with_unit_axes(self, shape):
        x = np.arange(30.0)
        pair = PairView(x.reshape(shape), x.reshape(shape))
        np.testing.assert_array_equal(pair.x, x)
        assert pair.n == 30
