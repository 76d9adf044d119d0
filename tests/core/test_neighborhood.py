"""Tests for delta-neighborhood generation (Definitions 5.1 / 5.2).

``neighborhood`` returns a ring as ``(starts, ends, delays)`` arrays.
``_reference_ring`` is the per-offset construction it replaced -- one
shell offset at a time, in ``itertools.product`` order, sorted by
``(delay, start, end)`` afterwards -- kept here as the oracle for which
windows a ring holds and in which order.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighborhood import _shell, neighborhood
from repro.core.window import TimeDelayWindow


def _mid_window():
    return TimeDelayWindow(start=50, end=80, delay=0)


def _sign(v):
    return (v > 0) - (v < 0)


def _reference_ring(window, radius, delta, n, s_min, s_max, td_max, blocked=()):
    out = []
    steps = range(-radius, radius + 1)
    for ds, de, dt in product(steps, steps, steps):
        if max(abs(ds), abs(de), abs(dt)) != radius:
            continue
        direction = (_sign(ds), _sign(de), _sign(dt))
        if any(
            any(b) and all(bb == 0 or dd == bb for bb, dd in zip(b, direction)) for b in blocked
        ):
            continue
        start = window.start + ds * delta
        end = window.end + de * delta
        delay = window.delay + dt * delta
        if (
            start < 0
            or end >= n
            or not s_min <= end - start + 1 <= s_max
            or abs(delay) > td_max
            or start + delay < 0
            or end + delay >= n
        ):
            continue
        out.append((start, end, delay))
    return sorted(out, key=lambda w: (w[2], w[0], w[1]))


def _ring(window, **kwargs):
    starts, ends, delays = neighborhood(window, **kwargs)
    return list(zip(starts.tolist(), ends.tolist(), delays.tolist()))


def _windows(window, **kwargs):
    return [TimeDelayWindow(*key) for key in _ring(window, **kwargs)]


class TestRingStructure:
    def test_n1_has_26_neighbors_unconstrained(self):
        # Fig. 5: the 1-neighborhood is the 26-window shell of a 3x3x3 cube.
        ring = _ring(_mid_window(), radius=1, delta=1, n=1000, s_min=5, s_max=100, td_max=50)
        assert len(ring) == 26

    def test_n2_shell_size_unconstrained(self):
        # (2r+1)^3 - (2r-1)^3 = 98 for r=2.
        ring = _ring(_mid_window(), radius=2, delta=1, n=1000, s_min=5, s_max=100, td_max=50)
        assert len(ring) == 98

    def test_all_neighbors_feasible(self):
        n, s_min, s_max, td = 200, 10, 50, 5
        for w in _windows(
            _mid_window(), radius=3, delta=2, n=n, s_min=s_min, s_max=s_max, td_max=td
        ):
            assert w.is_feasible(n, s_min, s_max, td)

    def test_neighbors_differ_by_exactly_radius_steps(self):
        w = _mid_window()
        delta = 3
        for start, end, delay in _ring(
            w, radius=2, delta=delta, n=1000, s_min=5, s_max=200, td_max=50
        ):
            offs = (
                (start - w.start) // delta,
                (end - w.end) // delta,
                (delay - w.delay) // delta,
            )
            assert max(abs(o) for o in offs) == 2

    def test_ring_is_int_arrays_sorted_by_delay_start_end(self):
        starts, ends, delays = neighborhood(
            _mid_window(), radius=2, delta=1, n=1000, s_min=5, s_max=100, td_max=50
        )
        assert starts.dtype == ends.dtype == delays.dtype == np.int64
        keys = list(zip(delays.tolist(), starts.tolist(), ends.tolist()))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_infeasible_ring_is_empty(self):
        # Every neighbor of a window filling a 12-sample series is too big,
        # too small or out of bounds at delta 5.
        starts, ends, delays = neighborhood(
            TimeDelayWindow(0, 11, 0), radius=1, delta=5, n=12, s_min=10, s_max=12, td_max=0
        )
        assert starts.size == ends.size == delays.size == 0

    def test_shell_table_is_shared_and_read_only(self):
        shell = _shell(2, frozenset())
        assert shell is _shell(2, frozenset())
        assert not shell.flags.writeable
        with pytest.raises(ValueError):
            shell[0, 0] = 7

    def test_direction_is_sign_vector(self):
        # A neighbor's direction is the sign vector of its offsets: blocking
        # one direction removes exactly the neighbors matching it on every
        # axis it constrains, for each of the 26 directions.
        w = _mid_window()
        kwargs = dict(radius=2, delta=2, n=1000, s_min=5, s_max=100, td_max=50)
        full = _ring(w, **kwargs)
        for direction in [d for d in product((-1, 0, 1), repeat=3) if any(d)]:
            kept = set(_ring(w, blocked=frozenset({direction}), **kwargs))
            for start, end, delay in full:
                signs = (_sign(start - w.start), _sign(end - w.end), _sign(delay - w.delay))
                matches = all(d == 0 or s == d for d, s in zip(direction, signs))
                assert ((start, end, delay) in kept) == (not matches)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="radius"):
            neighborhood(_mid_window(), radius=0, delta=1, n=100, s_min=5, s_max=50, td_max=5)


class TestReferenceRing:
    """Membership and order equal the per-offset reference construction."""

    BLOCKED = [
        frozenset(),
        frozenset({(0, 1, 0)}),
        frozenset({(-1, 0, 0)}),
        frozenset({(0, 1, 0), (-1, 0, 0)}),
        frozenset({(1, 0, -1)}),
        frozenset({(0, 0, 0)}),  # constrains no axis: blocks nothing
    ]
    WINDOWS = [
        TimeDelayWindow(50, 80, 0),
        TimeDelayWindow(0, 9, 0),  # series start
        TimeDelayWindow(2, 20, -2),  # y side near the start
        TimeDelayWindow(85, 99, 3),  # series end
        TimeDelayWindow(40, 47, 6),  # at s_min and td_max
    ]

    @pytest.mark.parametrize("radius", [1, 2, 3])
    @pytest.mark.parametrize("delta", [1, 2])
    @pytest.mark.parametrize("blocked", BLOCKED)
    # The delay band [-td_max, td_max] at three widths: None is td_max = 6,
    # which the last window sits on; the narrower bands clip windows
    # whose own delay lies outside them.
    @pytest.mark.parametrize("band", [None, (-4, 4), (-2, 2)])
    def test_matches_reference(self, radius, delta, blocked, band):
        td_max = 6 if band is None else band[1]
        kwargs = dict(radius=radius, delta=delta, n=100, s_min=8, s_max=40, td_max=td_max)
        for window in self.WINDOWS:
            expected = _reference_ring(window, blocked=blocked, **kwargs)
            assert _ring(window, blocked=blocked, **kwargs) == expected



class TestBlocking:
    def test_blocked_axis_direction_removes_all_matching(self):
        w = _mid_window()
        blocked = frozenset({(0, 1, 0)})  # no end-growing moves
        ring = _ring(w, radius=1, delta=1, n=1000, s_min=5, s_max=100, td_max=50, blocked=blocked)
        assert all(end <= w.end for _, end, _ in ring)
        # 9 of the 26 moves grow the end.
        assert len(ring) == 26 - 9

    def test_blocking_two_directions(self):
        w = _mid_window()
        blocked = frozenset({(0, 1, 0), (-1, 0, 0)})
        ring = _ring(w, radius=1, delta=1, n=1000, s_min=5, s_max=100, td_max=50, blocked=blocked)
        for start, end, _ in ring:
            assert end <= w.end
            assert start >= w.start

    def test_empty_blocked_set_changes_nothing(self):
        w = _mid_window()
        a = _ring(w, radius=1, delta=1, n=1000, s_min=5, s_max=100, td_max=50)
        b = _ring(w, radius=1, delta=1, n=1000, s_min=5, s_max=100, td_max=50, blocked=frozenset())
        assert a == b


class TestBoundaryClipping:
    def test_near_series_start(self):
        w = TimeDelayWindow(0, 10, delay=0)
        ring = _ring(w, radius=1, delta=1, n=100, s_min=5, s_max=20, td_max=3)
        assert all(start >= 0 for start, _, _ in ring)
        assert all(start + delay >= 0 for start, _, delay in ring)

    def test_near_series_end(self):
        w = TimeDelayWindow(90, 99, delay=0)
        ring = _windows(w, radius=1, delta=1, n=100, s_min=5, s_max=20, td_max=3)
        assert all(nb.end < 100 for nb in ring)
        assert all(nb.y_end < 100 for nb in ring)

    def test_band_bounds_the_delays(self):
        # The delay band is [-td_max, td_max]; a radius-2 ring reaches past it.
        ring = _ring(_mid_window(), radius=2, delta=1, n=1000, s_min=5, s_max=100, td_max=1)
        assert {delay for _, _, delay in ring} == {-1, 0, 1}

    @given(st.integers(0, 80), st.integers(5, 30), st.integers(-5, 5), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_property_feasibility_always_holds(self, start, size, delay, radius):
        n, s_min, s_max, td = 120, 5, 40, 6
        w = TimeDelayWindow(start, min(start + size, n - 1), delay)
        for nb in _windows(w, radius=radius, delta=2, n=n, s_min=s_min, s_max=s_max, td_max=td):
            assert nb.is_feasible(n, s_min, s_max, td)
