"""Tests for the Chebyshev k-NN backends and marginal counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi.neighbors import (
    GridIndex,
    chebyshev_knn_bruteforce,
    chebyshev_knn_grid,
    marginal_counts,
)


def _reference_knn(x, y, k):
    """O(n^2) reference with explicit loops (independent of the impl)."""
    m = len(x)
    kth = np.empty(m)
    for i in range(m):
        d = [max(abs(x[i] - x[j]), abs(y[i] - y[j])) for j in range(m) if j != i]
        kth[i] = sorted(d)[k - 1]
    return kth


class TestBruteforceKnn:
    def test_matches_loop_reference(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        result = chebyshev_knn_bruteforce(x, y, 3)
        expected = _reference_knn(x, y, 3)
        np.testing.assert_allclose(result.kth_distance, expected)

    def test_eps_bounds_kth_distance(self, rng):
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        r = chebyshev_knn_bruteforce(x, y, 4)
        # The rectangle extents can never exceed the Chebyshev radius.
        assert np.all(r.eps_x <= r.kth_distance + 1e-12)
        assert np.all(r.eps_y <= r.kth_distance + 1e-12)
        # And the radius is the max of the two extents.
        np.testing.assert_allclose(np.maximum(r.eps_x, r.eps_y), r.kth_distance)

    def test_neighbor_indices_exclude_self(self, rng):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        r = chebyshev_knn_bruteforce(x, y, 2)
        for i in range(30):
            assert i not in r.indices[i]

    def test_k_equals_one(self):
        x = np.array([0.0, 1.0, 3.0])
        y = np.array([0.0, 0.0, 0.0])
        r = chebyshev_knn_bruteforce(x, y, 1)
        np.testing.assert_allclose(r.kth_distance, [1.0, 1.0, 2.0])

    def test_rejects_k_too_large(self):
        with pytest.raises(ValueError, match="more than k"):
            chebyshev_knn_bruteforce(np.arange(3.0), np.arange(3.0), 3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            chebyshev_knn_bruteforce(np.arange(4.0), np.arange(5.0), 2)

    def test_rejects_non_finite(self):
        x = np.array([0.0, np.nan, 1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            chebyshev_knn_bruteforce(x, np.arange(4.0), 2)


class TestGridKnn:
    def test_matches_bruteforce_on_random_data(self, rng):
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        a = chebyshev_knn_bruteforce(x, y, 4)
        b = chebyshev_knn_grid(x, y, 4)
        np.testing.assert_allclose(a.kth_distance, b.kth_distance)
        np.testing.assert_allclose(a.eps_x, b.eps_x)
        np.testing.assert_allclose(a.eps_y, b.eps_y)

    def test_matches_bruteforce_on_clustered_data(self, rng):
        # Heavy clustering stresses the ring-expansion stopping rule.
        x = np.concatenate([rng.normal(scale=0.01, size=100), rng.normal(10, 1, size=50)])
        y = np.concatenate([rng.normal(scale=0.01, size=100), rng.normal(-5, 1, size=50)])
        a = chebyshev_knn_bruteforce(x, y, 5)
        b = chebyshev_knn_grid(x, y, 5)
        np.testing.assert_allclose(a.kth_distance, b.kth_distance)

    def test_single_query(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        index = GridIndex(x, y)
        idx, dist = index.knn(7, 3)
        assert len(idx) == 3
        full = np.maximum(np.abs(x - x[7]), np.abs(y - y[7]))
        full[7] = np.inf
        np.testing.assert_allclose(sorted(dist), sorted(np.sort(full)[:3]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            GridIndex(np.empty(0), np.empty(0))

    @given(st.integers(min_value=10, max_value=80), st.integers(min_value=1, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_property_grid_equals_bruteforce(self, m, k):
        rng = np.random.default_rng(m * 31 + k)
        x = rng.uniform(-5, 5, size=m)
        y = rng.uniform(-5, 5, size=m)
        if m <= k:
            return
        a = chebyshev_knn_bruteforce(x, y, k)
        b = chebyshev_knn_grid(x, y, k)
        np.testing.assert_allclose(a.kth_distance, b.kth_distance)


class TestMarginalCounts:
    def test_simple_counts(self):
        values = np.array([0.0, 1.0, 2.0, 5.0])
        radii = np.array([1.5, 1.5, 1.5, 1.5])
        # Closed strips: |v_j - v_i| <= 1.5, excluding self.
        counts = marginal_counts(values, radii)
        np.testing.assert_array_equal(counts, [1, 2, 1, 0])
        # A neighbor exactly at the radius lies inside the closed strip.
        np.testing.assert_array_equal(marginal_counts(values[:3], np.ones(3)), [1, 2, 1])

    def test_duplicates_with_zero_radius(self):
        values = np.array([1.0, 1.0, 1.0])
        radii = np.zeros(3)
        # The closed strip counts the coincident points (self excluded).
        assert np.all(marginal_counts(values, radii) == 2)

    def test_matches_loop_reference(self, rng):
        values = rng.normal(size=80)
        radii = np.abs(rng.normal(size=80))
        got = marginal_counts(values, radii)
        for i in range(80):
            expected = np.sum(np.abs(values - values[i]) <= radii[i]) - 1
            assert got[i] == expected

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_property_counts_bounded(self, m):
        rng = np.random.default_rng(m)
        values = rng.normal(size=m)
        radii = np.abs(rng.normal(size=m)) + 0.01
        counts = marginal_counts(values, radii)
        assert np.all(counts >= 0)
        assert np.all(counts <= m - 1)
