"""Tests for the shared digamma lookup table (bit-exactness, growth)."""

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

from repro.mi.digamma import DigammaTable, digamma_direct, shared_digamma_table
from repro.mi.ksg import KSGEstimator


def test_table_bit_matches_scipy():
    table = DigammaTable(initial=16)
    for n in (1, 2, 3, 7, 16, 100, 5000):
        assert table.value(n) == float(scipy_digamma(float(n)))


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


@pytest.mark.parametrize("algorithm", [1, 2])
def test_estimator_identical_with_and_without_table(algorithm, correlated_gaussian):
    """The table never changes an estimate: exact float equality."""
    x, y = correlated_gaussian
    on = KSGEstimator(k=4, algorithm=algorithm, use_digamma_table=True)
    off = KSGEstimator(k=4, algorithm=algorithm, use_digamma_table=False)
    assert on.mi(x, y) == off.mi(x, y)
