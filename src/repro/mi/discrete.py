"""Exact plug-in discrete mutual information (paper Eq. 1).

The KSG estimator is what TYCOS runs in production; this module provides the
textbook definition on discrete alphabets so that information-theoretic
facts the search relies on -- chiefly Theorem 6.1 (mixing in independent
noise can only lower MI) -- can be verified exactly in tests, without
estimator bias in the way.
"""

from __future__ import annotations

import numpy as np

from repro._types import AnyArray, FloatArray

__all__ = ["discrete_mi", "discrete_entropy_from_joint", "empirical_joint"]


def empirical_joint(x_labels: AnyArray, y_labels: AnyArray) -> FloatArray:
    """Empirical joint probability table of two paired discrete samples.

    Args:
        x_labels: 1-D array of symbols for X.
        y_labels: paired 1-D array of symbols for Y.

    Returns:
        Matrix ``P`` with ``P[i, j] = Pr(X = xi, Y = yj)``; rows follow the
        sorted unique symbols of X, columns those of Y.
    """
    x_labels = np.asarray(x_labels).ravel()
    y_labels = np.asarray(y_labels).ravel()
    if x_labels.size != y_labels.size:
        raise ValueError("x and y samples must be paired (equal length)")
    if x_labels.size == 0:
        raise ValueError("cannot build a joint from an empty sample")
    x_sym, x_idx = np.unique(x_labels, return_inverse=True)
    y_sym, y_idx = np.unique(y_labels, return_inverse=True)
    table = np.zeros((x_sym.size, y_sym.size))
    np.add.at(table, (x_idx, y_idx), 1.0)
    return table / x_labels.size


def _validate_joint(joint: AnyArray) -> FloatArray:
    joint = np.asarray(joint, dtype=np.float64)
    if joint.ndim != 2:
        raise ValueError("joint must be a 2-D probability table")
    if np.any(joint < 0):
        raise ValueError("joint probabilities must be non-negative")
    total = joint.sum()
    if not np.isclose(total, 1.0, atol=1e-8):
        raise ValueError(f"joint probabilities must sum to 1, got {total}")
    return joint


def discrete_mi(joint: AnyArray) -> float:
    """Mutual information (nats) of a joint probability table (Eq. 1)."""
    joint = _validate_joint(joint)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    rows, cols = np.nonzero(joint > 0)
    p = joint[rows, cols]
    # Log space: px * py underflows to 0 for marginals near 1e-162 while the
    # cell itself stays positive, which would make the ratio infinite.
    log_ratio = np.log(p) - np.log(px[rows]) - np.log(py[cols])
    return float(np.sum(p * log_ratio))


def discrete_entropy_from_joint(joint: AnyArray) -> float:
    """Joint Shannon entropy (nats) of a probability table."""
    joint = _validate_joint(joint)
    p = joint[joint > 0]
    return float(-np.sum(p * np.log(p)))
