"""Tests for the brute-force Chebyshev k-NN reference and marginal counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi.neighbors import chebyshev_knn_bruteforce, marginal_counts


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
        # The k-th neighbor distance is the larger rectangle extent.
        np.testing.assert_array_equal(np.maximum(result.eps_x, result.eps_y), expected)

    def test_eps_bounds_kth_distance(self, rng):
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        r = chebyshev_knn_bruteforce(x, y, 4)
        kth = _reference_knn(x, y, 4)
        # The rectangle extents can never exceed the Chebyshev radius...
        assert np.all(r.eps_x <= kth)
        assert np.all(r.eps_y <= kth)
        # ...and the radius is the max of the two extents.
        np.testing.assert_array_equal(np.maximum(r.eps_x, r.eps_y), kth)

    def test_neighbor_indices_exclude_self(self, rng):
        # Distinct points: a point counted as its own neighbor would put
        # a zero-distance neighbor in every rectangle.
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        r = chebyshev_knn_bruteforce(x, y, 1)
        assert np.all(np.maximum(r.eps_x, r.eps_y) > 0.0)
        np.testing.assert_array_equal(np.maximum(r.eps_x, r.eps_y), _reference_knn(x, y, 1))

    def test_k_equals_one(self):
        x = np.array([0.0, 1.0, 3.0])
        y = np.array([0.0, 0.0, 0.0])
        r = chebyshev_knn_bruteforce(x, y, 1)
        np.testing.assert_array_equal(np.maximum(r.eps_x, r.eps_y), [1.0, 1.0, 2.0])
        np.testing.assert_array_equal(r.eps_y, [0.0, 0.0, 0.0])

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
