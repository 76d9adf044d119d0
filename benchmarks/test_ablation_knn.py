"""Ablation: the stacked KSG kernel vs the per-window brute-force reference.

The paper's Lemma 2 brings KSG's k-NN search down to O(m log m) with a
grid or a k-d tree.  This repo keeps one KSG kernel instead: every
estimate is a row of :func:`repro.mi.stacked.ksg_mi_many`, which builds
its distance rows in cache-sized point blocks, so its memory stays
bounded at any window size.  This bench times ``KSGEstimator.mi``
against the per-window brute-force reference, which holds full
``(m, m)`` distance matrices, and asserts the two agree bit for bit.
EXPERIMENTS.md records the measured sizes, including where a grid would
start to win.
"""

import numpy as np
import pytest

from repro.mi.ksg import KSGEstimator
from repro.mi.neighbors import chebyshev_knn_bruteforce

K = 4


def _reference(x, y):
    estimator = KSGEstimator(k=K)
    return estimator.mi_from_geometry(x, y, chebyshev_knn_bruteforce(x, y, K), K)


@pytest.mark.parametrize("m", [512, 4096])
@pytest.mark.parametrize("path", ["stacked", "bruteforce"])
def test_knn_runtime(benchmark, m, path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=m)
    y = 0.7 * x + 0.7 * rng.normal(size=m)
    stacked = KSGEstimator(k=K).mi
    run = stacked if path == "stacked" else _reference
    value = benchmark.pedantic(run, args=(x, y), iterations=1, rounds=3)
    other = _reference(x, y) if path == "stacked" else stacked(x, y)
    assert value.hex() == other.hex()
