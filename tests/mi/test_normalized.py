"""Tests for the normalized MI (Eq. 18)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi.normalized import (
    normalize_ratio,
    normalize_value,
    normalized_mi,
    normalized_mi_many,
)


class TestNormalizeValue:
    def test_in_unit_interval(self):
        assert normalize_value(0.5, 1.0) == 0.5
        assert normalize_value(2.0, 1.0) == 1.0  # clamped
        assert normalize_value(-0.3, 1.0) == 0.0  # clamped

    def test_zero_entropy_maps_to_zero(self):
        assert normalize_value(5.0, 0.0) == 0.0
        assert normalize_value(5.0, 1e-12) == 0.0

    def test_ratio_unclamped_above_one(self):
        assert normalize_ratio(2.0, 1.0) == 2.0
        assert normalize_ratio(-1.0, 1.0) == 0.0

    @given(
        st.floats(min_value=-5, max_value=20),
        st.floats(min_value=0, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_value_is_clamped_ratio(self, mi, h):
        value = normalize_value(mi, h)
        ratio = normalize_ratio(mi, h)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(min(ratio, 1.0))


class TestNormalizedMi:
    def test_strong_relation_scores_high(self, rng):
        x = rng.uniform(0, 1, size=400)
        y = x + 0.01 * rng.normal(size=400)
        assert normalized_mi(x, y) > 0.5

    def test_independence_scores_low(self, independent_pair):
        x, y = independent_pair
        assert normalized_mi(x, y) < 0.1

    def test_ordering_by_noise_level(self, rng):
        # More noise -> weaker normalized MI, monotonically (on average).
        x = rng.uniform(0, 1, size=500)
        scores = []
        for noise in (0.01, 0.2, 1.0):
            y = np.sin(6 * x) + noise * rng.normal(size=500)
            scores.append(normalized_mi(x, y))
        assert scores[0] > scores[1] > scores[2]

    def test_range(self, rng):
        for _ in range(5):
            m = int(rng.integers(10, 200))
            a = rng.normal(size=m)
            b = rng.normal(size=m)
            assert 0.0 <= normalized_mi(a, b) <= 1.0


def _rows(kind, m, rng):
    """Seven ``(x, y)`` sample rows of ``m`` samples of one kind."""
    if kind == "tied":
        xs = rng.integers(0, 4, (7, m)).astype(float)
        ys = np.roll(xs, 1, axis=1) + rng.integers(0, 2, (7, m))
    elif kind == "continuous":
        xs = rng.normal(size=(7, m))
        ys = xs**2 + rng.normal(scale=0.3, size=(7, m))
    else:  # constant: a flat x row against varying y, and one flat pair
        xs = np.full((7, m), 2.5)
        ys = rng.normal(size=(7, m))
        ys[0] = -1.0
    return xs, ys


class TestNormalizedMiMany:
    """Stacked rows against the per-window ``normalized_mi``, bit for bit."""

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("m", [2, 5, 40, 128])
    @pytest.mark.parametrize("kind", ["tied", "continuous", "constant"])
    def test_rows_match_normalized_mi_bits(self, kind, m, k):
        xs, ys = _rows(kind, m, np.random.default_rng(m))
        got = normalized_mi_many(xs, ys, k=k)
        assert got.shape == (7,)
        expected = [normalized_mi(x, y, k=k).hex() for x, y in zip(xs, ys)]
        assert [value.hex() for value in got.tolist()] == expected

    def test_broadcast_rows(self, rng):
        # The coarse NMI screen pairs one x window with many y windows.
        x = rng.normal(size=60)
        ys = rng.normal(size=(5, 60)) + x
        got = normalized_mi_many(np.broadcast_to(x, ys.shape), ys)
        assert [v.hex() for v in got.tolist()] == [normalized_mi(x, y).hex() for y in ys]

    def test_non_finite_row_raises(self, rng):
        xs = rng.normal(size=(3, 20))
        ys = rng.normal(size=(3, 20))
        ys[2, 7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            normalized_mi_many(xs, ys)
