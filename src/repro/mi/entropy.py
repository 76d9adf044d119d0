"""Entropy estimators used for MI normalization and cross-checks.

Three estimators are provided:

* :func:`discrete_entropy` -- the plug-in (maximum likelihood) entropy of a
  discrete sample.
* :func:`binned_joint_entropy` -- the plug-in entropy of a 2-D continuous
  sample after equal-width binning; this is the ``H_w`` used to normalize
  window MI (paper Eq. 18), because the window's uncertainty must be a
  non-negative, bounded quantity for the ratio to land in [0, 1].
* :func:`kl_entropy` -- the Kozachenko--Leonenko k-NN differential entropy
  estimator, used in tests to sanity-check the k-NN machinery against known
  closed forms (e.g. the Gaussian).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from repro._types import AnyArray, IntArray
from repro.mi.digamma import shared_digamma_table

__all__ = ["discrete_entropy", "binned_joint_entropy", "kl_entropy", "default_bins"]


def discrete_entropy(labels: AnyArray) -> float:
    """Plug-in Shannon entropy (nats) of a discrete sample.

    Args:
        labels: 1-D array of hashable/comparable symbols.

    Returns:
        ``-sum p log p`` over the empirical distribution.
    """
    labels = np.asarray(labels).ravel()
    if labels.size == 0:
        raise ValueError("cannot compute entropy of an empty sample")
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(-np.sum(p * np.log(p)))


@lru_cache(maxsize=None)
def default_bins(m: int) -> int:
    """Bin count heuristic for plug-in entropy of ``m`` continuous samples.

    The square-root choice keeps the expected occupancy per *marginal* bin
    around ``sqrt(m)``, which is the standard bias/variance compromise for
    2-D plug-in entropies at the window sizes TYCOS evaluates.  Memoized:
    a search evaluates tens of thousands of windows over a few dozen
    distinct sizes.
    """
    # math.sqrt/math.ceil produce the same float64 result as the numpy
    # scalar path but without ufunc dispatch.
    return max(2, math.ceil(math.sqrt(m / 5.0)))


def binned_joint_entropy(x: AnyArray, y: AnyArray, bins: Optional[int] = None) -> float:
    """Plug-in joint entropy (nats) of a continuous pair after binning.

    Args:
        x: samples of the first variable, shape ``(m,)``.
        y: paired samples of the second variable, shape ``(m,)``.
        bins: number of equal-width bins per axis; defaults to
            :func:`default_bins`.

    Returns:
        Non-negative entropy of the joint bin-occupancy distribution,
        bounded by ``2 * log(bins)``.
    """
    # This sits on the per-window hot path (once per MI evaluation), so
    # avoid redundant dispatch: asarray only when needed, ufunc methods
    # over fromnumeric wrappers.  Every shortcut is value-identical.
    if type(x) is not np.ndarray or x.dtype != np.float64 or x.ndim != 1:
        x = np.asarray(x, dtype=np.float64).ravel()
    if type(y) is not np.ndarray or y.dtype != np.float64 or y.ndim != 1:
        y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size == 0:
        raise ValueError("cannot compute entropy of an empty sample")
    if bins is None:
        bins = default_bins(x.size)
    # Manual equal-width binning: ~10x faster than np.histogram2d, which
    # routes through histogramdd and dominates search profiles otherwise.
    counts = np.bincount(_flat_bin_index(x, bins) * bins + _flat_bin_index(y, bins))
    p = counts[counts > 0] / x.size
    return float(-(p * np.log(p)).sum())


def _flat_bin_index(values: np.ndarray, bins: int) -> IntArray:
    """Equal-width bin index of each value over its own [min, max] range."""
    lo = values.min()
    span = values.max() - lo
    if span <= 0:
        return np.zeros(values.size, dtype=np.int64)
    idx = ((values - lo) * (bins / span)).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    return idx


def kl_entropy(points: AnyArray, k: int = 4) -> float:
    """Kozachenko--Leonenko differential entropy estimate (nats).

    Uses the Euclidean-ball form
    ``H = psi(m) - psi(k) + log(c_d) + (d/m) * sum log(r_k(i))``
    where ``r_k(i)`` is the distance from sample i to its k-th nearest
    neighbor and ``c_d`` the volume of the d-dimensional unit ball.

    Args:
        points: sample matrix of shape ``(m, d)`` (or ``(m,)`` for d=1).
        k: number of neighbors, ``1 <= k < m``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    m, d = points.shape
    if m <= k:
        raise ValueError(f"need more than k={k} samples, got {m}")
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=2))
    np.fill_diagonal(dist, np.inf)
    r_k = np.partition(dist, k - 1, axis=1)[:, k - 1]
    r_k = np.maximum(r_k, np.finfo(np.float64).tiny)
    from scipy.special import gammaln

    table = shared_digamma_table()
    log_c_d = (d / 2.0) * np.log(np.pi) - gammaln(d / 2.0 + 1.0)
    return float(table.value(m) - table.value(k) + log_c_d + (d / m) * np.sum(np.log(r_k)))
