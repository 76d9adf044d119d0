"""Exactness tests for presorted marginals and the incremental MarginalIndex."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mi.neighbors import (
    MarginalIndex,
    PairDistanceWorkspace,
    chebyshev_knn_bruteforce,
    marginal_counts,
)


def test_presorted_counts_exactly_equal_scratch_path(rng):
    values = rng.normal(size=200)
    radii = np.abs(rng.normal(size=200)) * 0.5
    presorted = np.sort(values)
    direct = marginal_counts(values, radii)
    fast = marginal_counts(values, radii, presorted=presorted)
    assert np.array_equal(direct, fast)


def test_presorted_counts_with_duplicates(rng):
    values = rng.integers(0, 10, size=120).astype(np.float64)
    radii = np.full(120, 1.0)
    presorted = np.sort(values)
    assert np.array_equal(
        marginal_counts(values, radii), marginal_counts(values, radii, presorted=presorted)
    )


def test_marginal_index_reset_matches_sort(rng):
    values = rng.normal(size=333)
    index = MarginalIndex(values)
    assert len(index) == 333
    assert np.array_equal(index.sorted_values(), np.sort(values))


def test_marginal_index_add_remove_basics():
    index = MarginalIndex(np.array([3.0, 1.0, 2.0]))
    index.add(2.5)
    assert np.array_equal(index.sorted_values(), [1.0, 2.0, 2.5, 3.0])
    index.remove(2.0)
    assert np.array_equal(index.sorted_values(), [1.0, 2.5, 3.0])
    with pytest.raises(KeyError):
        index.remove(7.0)


def test_marginal_index_duplicates_remove_one_occurrence():
    index = MarginalIndex(np.array([1.0, 2.0, 2.0, 3.0]))
    index.remove(2.0)
    assert np.array_equal(index.sorted_values(), [1.0, 2.0, 3.0])
    index.remove(2.0)
    assert np.array_equal(index.sorted_values(), [1.0, 3.0])
    with pytest.raises(KeyError):
        index.remove(2.0)


def test_marginal_index_growth_beyond_initial_capacity(rng):
    index = MarginalIndex()
    reference = []
    for value in rng.normal(size=500):
        index.add(float(value))
        reference.append(float(value))
    assert np.array_equal(index.sorted_values(), np.sort(reference))


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 9)),
        min_size=1,
        max_size=120,
    )
)
def test_marginal_index_randomized_churn_matches_sort(ops):
    """Property (ISSUE satellite): after ANY add/remove sequence, the
    maintained array is exactly np.sort of the live multiset."""
    index = MarginalIndex()
    live = []
    for op, raw in ops:
        value = float(raw) * 0.25  # small grid forces heavy duplication
        if op == "add":
            index.add(value)
            live.append(value)
        elif live:
            if value in live:
                index.remove(value)
                live.remove(value)
            else:
                with pytest.raises(KeyError):
                    index.remove(value)
        assert np.array_equal(index.sorted_values(), np.sort(live))
        # The maintained array serves marginal_counts identically to the
        # from-scratch sort at every intermediate state.
        if len(live) >= 2:
            values = np.asarray(live, dtype=np.float64)
            radii = np.full(values.size, 0.3)
            assert np.array_equal(
                marginal_counts(values, radii),
                marginal_counts(values, radii, presorted=index.sorted_values()),
            )


def test_workspace_knn_matches_bruteforce_on_every_slice(rng):
    union, m, k = 200, 64, 4
    x = np.cumsum(rng.normal(size=union))
    y = np.roll(x, 2) + rng.normal(scale=0.1, size=union)
    workspace = PairDistanceWorkspace(x, y)
    for offset in range(0, union - m, 4):
        served = workspace.knn(offset, m, k)
        direct = chebyshev_knn_bruteforce(x[offset : offset + m], y[offset : offset + m], k)
        assert np.array_equal(served.kth_distance, direct.kth_distance)
        assert np.array_equal(served.eps_x, direct.eps_x)
        assert np.array_equal(served.eps_y, direct.eps_y)
        assert np.array_equal(served.indices, direct.indices)
