"""Tests for the shared digamma lookup table (bit-exactness, growth)."""

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

from repro.mi.digamma import DigammaTable, digamma_direct, shared_digamma_table
from repro.mi.ksg import KSGEstimator
from repro.mi.neighbors import chebyshev_knn_bruteforce


def test_table_bit_matches_scipy():
    table = DigammaTable(initial=16)
    for n in (1, 2, 3, 7, 16, 100, 5000):
        assert table.value(n) == float(scipy_digamma(float(n)))


@pytest.mark.parametrize("initial", [1, 4, 16])
def test_every_integer_to_2_20_bit_matches_scipy_at_each_growth(initial):
    """The table is a cephes port, so it matches scipy only where each
    operation does (with numpy 2.4 on x86-64, numpy's SIMD ``np.log``
    first differs from libm ``log`` at n = 9,170).  Every table the
    doublings build, up to 2**20 entries, must equal scipy on all of its
    integers."""
    top = 2**20
    expected = scipy_digamma(np.arange(1, top + 1, dtype=np.float64))
    table = DigammaTable(initial=initial)
    assert np.array_equal(table.prefix(initial), expected[:initial])
    while table.size < top:
        grown = table.prefix(table.size + 1)
        assert np.array_equal(grown, expected[: grown.size])
    assert table.size == top


@pytest.mark.parametrize("size", [10, 11])
def test_branch_boundary_bit_matches_scipy(size):
    """cephes sums ``1/i`` up to n = 10 and switches to the asymptotic
    series at n = 11; tables ending on either side of the switch match."""
    table = DigammaTable(initial=size)
    assert table.size == size
    assert np.array_equal(table.prefix(size), scipy_digamma(np.arange(1.0, size + 1.0)))


def test_values_bit_match_scipy_vectorized():
    table = DigammaTable(initial=8)
    ns = np.array([1, 5, 12, 300, 2, 2, 999], dtype=np.int64)
    expected = scipy_digamma(ns.astype(np.float64))
    assert np.array_equal(table.values(ns), expected)


def test_prefix_covers_and_indexes_by_argument_minus_one():
    table = DigammaTable(initial=4)
    prefix = table.prefix(10)
    assert prefix.size >= 10
    for n in range(1, 11):
        assert prefix[n - 1] == float(scipy_digamma(float(n)))


def test_growth_doubles_lazily():
    table = DigammaTable(initial=4)
    assert table.size == 4
    table.value(5)
    assert table.size == 8
    table.values(np.array([100]))
    assert table.size >= 100
    # Growth preserves earlier entries bit-for-bit.
    assert table.value(3) == float(scipy_digamma(3.0))


def test_prefix_is_read_only():
    table = DigammaTable(initial=4)
    with pytest.raises((ValueError, RuntimeError)):
        table.prefix(4)[0] = 0.0


def test_prefix_contract():
    table = DigammaTable(initial=8)
    view = table.prefix(8)
    assert view.flags["C_CONTIGUOUS"]
    assert not view.flags.writeable
    assert np.array_equal(view[:8], scipy_digamma(np.arange(1.0, 9.0)))


def test_prefix_survives_growth_unmutated():
    """Growth never invalidates or mutates arrays already handed out.

    A distance workspace holds its digamma prefix across many scorer
    calls; if growth reallocated in place, that array would dangle or
    silently change values.  Growth must instead rebind a fresh array,
    leaving the old one intact byte for byte.
    """
    table = DigammaTable(initial=8)
    view = table.prefix(8)
    snapshot = view.copy()
    table.prefix(10_000)  # forces several doublings
    assert table.size >= 10_000
    assert np.array_equal(view, snapshot)  # old array: same values
    assert not view.flags.writeable  # ...and still read-only
    grown = table.prefix(10_000)
    assert grown is not view  # growth rebound, not resized
    assert np.array_equal(grown[: view.size], snapshot)


def test_value_rejects_non_positive():
    table = DigammaTable(initial=4)
    with pytest.raises(ValueError):
        table.value(0)
    with pytest.raises(ValueError):
        DigammaTable(initial=0)


def test_values_empty_input():
    table = DigammaTable(initial=4)
    out = table.values(np.empty(0, dtype=np.int64))
    assert out.size == 0


def test_shared_table_is_a_singleton():
    assert shared_digamma_table() is shared_digamma_table()


def test_digamma_direct_is_plain_scipy():
    ns = np.array([1.0, 2.5, 7.0])
    assert np.array_equal(digamma_direct(ns), scipy_digamma(ns))


@pytest.mark.parametrize("k", [1, 2])
def test_estimator_identical_with_and_without_table(k, correlated_gaussian):
    """The shared table never changes an estimate: ``mi`` equals the same
    estimate finished from direct scipy evaluations, exactly."""
    x, y = correlated_gaussian
    estimator = KSGEstimator(k=k)
    direct = np.asarray(digamma_direct(np.arange(1, x.size + 1)), dtype=np.float64)
    knn = chebyshev_knn_bruteforce(x, y, k)
    assert estimator.mi(x, y) == estimator.mi_from_geometry(x, y, knn, k, digamma_table=direct)
