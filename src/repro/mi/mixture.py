"""Mixture distributions and empirical checks for the noise theorem.

Paper Definition 6.1 introduces ``Z = X (+)_theta U``: a variable drawn from
X with probability theta and from an independent noise source U otherwise.
Theorem 6.1 then shows ``I(X; Y) >= I(Z; W) = theta * eta * I(X; Y)`` when
U, V are independent of everything -- the theoretical core of the TYCOS
noise-pruning rule (Def. 6.4): concatenating an uninformative segment onto a
correlated window dilutes its MI.

This module provides the sampling construction and helpers used by tests
and benchmarks to verify the theorem both exactly (discrete plug-in MI) and
with the KSG estimator.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro._types import AnyArray, FloatArray
from repro.mi.discrete import discrete_mi

__all__ = ["mix_samples", "mixture_joint", "theorem61_gap"]


def mix_samples(
    x: AnyArray,
    u: AnyArray,
    theta: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw a mixture sample ``Z = X (+)_theta U`` (Def. 6.1).

    Args:
        x: samples of X.
        u: samples of the independent source U (same length as x).
        theta: probability of drawing from X, in [0, 1].
        rng: random generator deciding the per-sample source.

    Returns:
        ``(z, chose_x)`` where ``z[i]`` equals ``x[i]`` when ``chose_x[i]``
        and ``u[i]`` otherwise.  Returning the selector lets callers build
        *jointly* consistent mixtures of paired variables.
    """
    x = np.asarray(x).ravel()
    u = np.asarray(u).ravel()
    if x.size != u.size:
        raise ValueError("x and u must have equal length")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    chose_x = rng.random(x.size) < theta
    z = np.where(chose_x, x, u)
    return z, chose_x


def mixture_joint(
    joint_xy: AnyArray,
    pu: AnyArray,
    pv: AnyArray,
    theta: float,
    eta: float,
) -> FloatArray:
    """Exact joint table of ``(Z, W)`` per Eqs. (9)-(12) of the paper.

    Z ranges over the alphabet of X followed by the alphabet of U; W over
    Y's alphabet followed by V's.  The independence assumptions of Theorem
    6.1 are baked in: the cross blocks factorize into products of marginals.

    Args:
        joint_xy: joint table of (X, Y).
        pu: marginal p.m.f. of U.
        pv: marginal p.m.f. of V.
        theta: probability that Z draws from X.
        eta: probability that W draws from Y.
    """
    joint_xy = np.asarray(joint_xy, dtype=np.float64)
    pu = np.asarray(pu, dtype=np.float64).ravel()
    pv = np.asarray(pv, dtype=np.float64).ravel()
    px = joint_xy.sum(axis=1)
    py = joint_xy.sum(axis=0)
    top_left = theta * eta * joint_xy                      # (X, Y), Eq. 9
    top_right = theta * (1 - eta) * np.outer(px, pv)       # (X, V), Eq. 10
    bottom_left = (1 - theta) * eta * np.outer(pu, py)     # (U, Y), Eq. 11
    bottom_right = (1 - theta) * (1 - eta) * np.outer(pu, pv)  # (U, V), Eq. 12
    top = np.hstack([top_left, top_right])
    bottom = np.hstack([bottom_left, bottom_right])
    return np.vstack([top, bottom])


def theorem61_gap(
    joint_xy: AnyArray,
    pu: AnyArray,
    pv: AnyArray,
    theta: float,
    eta: float,
) -> Tuple[float, float]:
    """Return ``(I(X;Y), I(Z;W))`` for an exact mixture construction.

    Theorem 6.1 asserts ``I(Z;W) = theta * eta * I(X;Y) <= I(X;Y)``; tests
    assert both the inequality and the exact identity.
    """
    i_xy = discrete_mi(joint_xy)
    i_zw = discrete_mi(mixture_joint(joint_xy, pu, pv, theta, eta))
    return i_xy, i_zw
