"""Shared fixtures for the TYCOS reproduction test suite."""

import contextlib

import numpy as np
import pytest

import repro.analysis.parallel as parallel_mod
from repro.core.thresholds import BatchScorer
from repro.core.window import TimeDelayWindow
from repro.mi.ksg import KSGEstimator
from repro.mi.neighbors import chebyshev_knn_bruteforce


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

    It swaps ``BatchScorer.value_many`` for a per-window loop over
    ``value``, and ``KSGEstimator.mi`` -- one row of the stacked kernel --
    for the per-window brute-force reference (``mi_from_geometry`` over
    ``chebyshev_knn_bruteforce`` with ``min(k, m - 1)`` neighbours), with
    ``KSGEstimator.mi_many`` a loop over it: the scalar reference the
    stacked search paths must reproduce exactly.
    """

    def value_many(self, starts, ends, delays):
        keys = zip(*(np.asarray(a).tolist() for a in (starts, ends, delays)))
        return np.array([self.value(TimeDelayWindow(*key)) for key in keys], dtype=np.float64)

    def mi(self, x, y):
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        k = min(self.k, x.size - 1)
        return self.mi_from_geometry(x, y, chebyshev_knn_bruteforce(x, y, k), k)

    def mi_many(self, xs, ys):
        return np.array([self.mi(x, y) for x, y in zip(xs, ys)], dtype=np.float64)

    @contextlib.contextmanager
    def scalar():
        with monkeypatch.context() as patch:
            patch.setattr(BatchScorer, "value_many", value_many)
            patch.setattr(KSGEstimator, "mi", mi)
            patch.setattr(KSGEstimator, "mi_many", mi_many)
            yield

    return scalar


@pytest.fixture
def many_cores(monkeypatch):
    """Report four cores, so ``n_jobs=2`` runs a 2-worker pool on any host.

    :func:`repro.analysis.parallel.effective_workers` caps every pool at
    ``os.cpu_count()``; without this a 1-core host would take the serial
    path in every pool test.
    """
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The ``max_workers`` of every process pool started during the test."""
    sizes = []
    real_executor = parallel_mod.ProcessPoolExecutor

    class RecordingExecutor(real_executor):  # type: ignore[valid-type, misc]
        def __init__(self, *args, **kwargs):
            sizes.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", RecordingExecutor)
    return sizes
