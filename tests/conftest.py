"""Shared fixtures for the TYCOS reproduction test suite."""

import contextlib

import numpy as np
import pytest

from repro.core.thresholds import BatchScorer
from repro.core.window import TimeDelayWindow
from repro.mi.ksg import KSGEstimator


@pytest.fixture
def rng():
    """A deterministic random generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def correlated_gaussian(rng):
    """A (x, y) pair with rho=0.8 and known MI = -0.5*ln(1-rho^2)."""
    n = 600
    x = rng.normal(size=n)
    y = 0.8 * x + 0.6 * rng.normal(size=n)
    return x, y


@pytest.fixture
def independent_pair(rng):
    """Two independent Gaussian series."""
    n = 600
    return rng.normal(size=n), rng.normal(size=n)


@pytest.fixture
def scalar_scoring(monkeypatch):
    """A context manager that scores one window per call while it is open.

    It swaps ``BatchScorer.value_many`` and ``KSGEstimator.mi_many`` --
    the stacked calls the search makes -- for per-window loops over
    ``value`` and ``mi``: the scalar reference the stacked search paths
    must reproduce exactly.
    """

    def value_many(self, starts, ends, delays):
        keys = zip(*(np.asarray(a).tolist() for a in (starts, ends, delays)))
        return np.array([self.value(TimeDelayWindow(*key)) for key in keys], dtype=np.float64)

    def mi_many(self, xs, ys):
        return np.array([self.mi(x, y) for x, y in zip(xs, ys)], dtype=np.float64)

    @contextlib.contextmanager
    def scalar():
        with monkeypatch.context() as patch:
            patch.setattr(BatchScorer, "value_many", value_many)
            patch.setattr(KSGEstimator, "mi_many", mi_many)
            yield

    return scalar
