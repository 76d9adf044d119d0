"""Normalized mutual information (paper Eq. 18).

The raw MI of a window has no universal upper bound, which makes a fixed
correlation threshold hard to set across heterogeneous datasets.  Section
6.3.1 therefore normalizes the window MI by the window entropy:

``0 <= I~_w = I_w / H_w <= 1``

We estimate ``I_w`` with the KSG estimator and ``H_w`` with the plug-in
entropy of the binned joint sample (a non-negative, bounded uncertainty
measure).  Because the two estimators have different small-sample biases the
raw ratio can stray slightly outside [0, 1]; the result is clamped, exactly
as a production implementation must do for a user-facing [0, 1] score.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import contracts
from repro._types import AnyArray, FloatArray
from repro.mi.entropy import binned_joint_entropy
from repro.mi.ksg import KSGEstimator

__all__ = ["normalized_mi", "normalize_value", "normalize_ratio", "normalize_ratios"]

# Entropy floor: below this the window is essentially constant and carries
# no usable information, so its normalized MI is defined as 0.
_H_FLOOR = 1e-9


def normalize_value(mi: float, entropy: float) -> float:
    """Map a raw (MI, entropy) pair onto the [0, 1] normalized scale."""
    return min(normalize_ratio(mi, entropy), 1.0)


def normalize_ratio(mi: float, entropy: float) -> float:
    """The unclamped (but non-negative) ratio ``I_w / H_w``.

    Used as the search objective: on strongly dependent windows the KSG
    estimate keeps growing with the sample count while the binned entropy
    saturates, so the ratio can exceed 1 -- clamping there would flatten
    the landscape and stall window growth exactly where the correlation is
    strongest.  The clamped [0, 1] value remains the user-facing score.
    """
    if entropy <= _H_FLOOR:
        return 0.0
    return max(float(mi / entropy), 0.0)


def normalize_ratios(mi: FloatArray, entropy: FloatArray) -> Tuple[FloatArray, FloatArray]:
    """Element-wise ``(normalize_value, normalize_ratio)`` of two arrays.

    The same float operations as the scalar functions, so every element
    is bit-identical to theirs: the division only where the entropy
    clears the floor, then ``max(., 0)`` and ``min(., 1)``, which keep
    their first operand on a tie or a NaN as Python's ``max``/``min`` do.
    """
    ratio = np.zeros_like(mi)
    np.divide(mi, entropy, out=ratio, where=~(entropy <= _H_FLOOR))
    np.maximum(ratio, 0.0, out=ratio)
    return np.minimum(ratio, 1.0), ratio


def normalized_mi(
    x: AnyArray,
    y: AnyArray,
    k: int = 4,
    estimator: Optional[KSGEstimator] = None,
    bins: Optional[int] = None,
) -> float:
    """Normalized MI of a paired sample, scaled to [0, 1].

    Args:
        x: samples of the first series.
        y: paired samples of the second series.
        k: KSG neighbor count (ignored when ``estimator`` is given).
        estimator: optional preconfigured :class:`KSGEstimator`.
        bins: bin count for the entropy denominator (default: sqrt rule).

    Returns:
        ``clip(I_ksg / H_binned, 0, 1)``.
    """
    if estimator is None:
        estimator = KSGEstimator(k=k)
    mi = estimator.mi(x, y)
    entropy = binned_joint_entropy(x, y, bins=bins)
    value = normalize_value(mi, entropy)
    if contracts.checks_enabled():
        contracts.check_nmi_range(value, where="normalized_mi")
    return value
