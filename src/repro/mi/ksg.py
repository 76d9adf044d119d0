"""The Kraskov--Stoegbauer--Grassberger (KSG) mutual information estimator.

Implements the estimator the paper adopts in Section 3.1 (Eq. 2) and applies
per window in Definition 4.6 (Eq. 3):

``I(X; Y) = psi(k) - 1/k - <psi(n_x) + psi(n_y)> + psi(m)``

where ``psi`` is the digamma function, ``k`` the number of nearest neighbors
under the Chebyshev norm, ``n_x``/``n_y`` the marginal neighbor counts inside
the k-NN rectangle of each point, and ``m`` the window size (KSG's
"algorithm 2").

Estimates are in *nats*.  MI is theoretically non-negative but the estimator
is unbiased around zero for independent data and can return small negative
values; callers that need a dependence score should clamp (see
:func:`repro.mi.normalized.normalized_mi`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import contracts
from repro._types import AnyArray, FloatArray, IntArray
from repro.mi.digamma import shared_digamma_table
from repro.mi.neighbors import KnnResult, marginal_counts
from repro.mi.stacked import ksg_mi_many

__all__ = ["KSGEstimator", "ksg_mi"]


@dataclass(frozen=True)
class KSGEstimator:
    """Configurable KSG mutual information estimator.

    Every estimate is a row of the stacked kernel
    :func:`repro.mi.stacked.ksg_mi_many`, whose point blocks bound its
    memory at any window size.  :meth:`mi_from_geometry` over
    :func:`repro.mi.neighbors.chebyshev_knn_bruteforce` is the per-window
    reference it is gated against, bit for bit.

    Attributes:
        k: number of nearest neighbors (paper default intent: a small
            constant; 4 is the customary choice and our default).  A
            window of ``m <= k`` samples uses ``m - 1``.
    """

    k: int = 4

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def mi(self, x: AnyArray, y: AnyArray) -> float:
        """Estimate I(X; Y) in nats from paired samples.

        Args:
            x: samples of the first series, shape ``(m,)``.
            y: samples of the second series, shape ``(m,)``; ``y[i]`` must be
                the observation paired with ``x[i]`` (after any delay shift).

        Returns:
            The KSG estimate of the mutual information (nats).

        Raises:
            ValueError: if fewer than 2 samples are supplied or the inputs
                have mismatched lengths / non-finite values.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.size != y.size:
            raise ValueError(f"x and y must have equal length, got {x.size} and {y.size}")
        m = x.size
        if m < 2:
            raise ValueError(f"need at least 2 samples, got {m}")
        if contracts.checks_enabled():
            contracts.check_series_shape(x, y, where="KSGEstimator.mi")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite")
        value = float(ksg_mi_many(np.stack((x, y))[:, None], self.k)[0])
        if contracts.checks_enabled():
            contracts.check_mi_finite(value, where="KSGEstimator.mi")
        return value

    def mi_many(self, xs: AnyArray, ys: AnyArray) -> FloatArray:
        """Estimate I(X; Y) for ``W`` equal-size windows at once.

        Every row goes through one stacked pass
        (:func:`repro.mi.stacked.ksg_mi_many`); row ``i`` is
        bit-identical to ``self.mi(xs[i], ys[i])``.

        Args:
            xs: samples of the first series, shape ``(W, m)``.
            ys: paired samples of the second series, shape ``(W, m)``.

        Returns:
            ``(W,)`` float64 KSG estimates (nats).

        Raises:
            ValueError: on mismatched shapes, fewer than 2 samples per row
                or non-finite values.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 2 or xs.shape != ys.shape:
            raise ValueError(f"need equal (W, m) sample rows, got {xs.shape} and {ys.shape}")
        m = xs.shape[1]
        if m < 2:
            raise ValueError(f"need at least 2 samples, got {m}")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("x and y must be finite")
        out = ksg_mi_many(np.stack((xs, ys)), self.k)
        if contracts.checks_enabled():
            for value in out.tolist():
                contracts.check_mi_finite(value, where="KSGEstimator.mi_many")
        return out

    def mi_from_geometry(
        self,
        x: FloatArray,
        y: FloatArray,
        knn: KnnResult,
        k: int,
        digamma_table: Optional[FloatArray] = None,
        sorted_x: Optional[FloatArray] = None,
        sorted_y: Optional[FloatArray] = None,
    ) -> float:
        """Finish an MI estimate given precomputed k-NN geometry.

        Split out so the incremental engine (Section 7) can reuse its
        maintained neighbor sets.

        Args:
            x: window samples of the first series.
            y: paired window samples of the second series.
            knn: precomputed neighbor geometry for the window.
            k: neighbor count the geometry was built with.
            digamma_table: optional precomputed ``digamma(i)`` for
                ``i = 1..len(table)`` (``table[i - 1] == digamma(i)``,
                length >= ``m``); every digamma argument here is a positive
                integer ``<= m``, so a caller evaluating many windows can
                share one table.  The table values are bit-identical to
                ``scipy.special.digamma``, so supplying it never changes
                the estimate.
                When omitted, the process-wide shared table is used.
            sorted_x: optional ascending float64 realization of exactly the
                multiset of ``x`` (see :func:`marginal_counts` presorted);
                skips the per-call marginal sort without changing counts.
            sorted_y: same for ``y``.
        """
        n_x = marginal_counts(x, knn.eps_x, presorted=sorted_x)
        n_y = marginal_counts(y, knn.eps_y, presorted=sorted_y)
        return self.mi_from_counts(n_x, n_y, k, x.size, digamma_table=digamma_table)

    def mi_from_counts(
        self,
        n_x: IntArray,
        n_y: IntArray,
        k: int,
        m: int,
        digamma_table: Optional[FloatArray] = None,
    ) -> float:
        """Finish an MI estimate from raw marginal strip counts.

        ``n_x``/``n_y`` are raw :func:`marginal_counts` outputs: the
        samples inside each point's closed x and y k-NN extents.
        """
        if digamma_table is None:
            digamma_table = shared_digamma_table().prefix(m)
        psi_k = float(digamma_table[k - 1])
        psi_m = float(digamma_table[m - 1])
        # Eq. (2): counts include the k neighbors, so n >= k >= 1 except
        # in degenerate duplicate layouts; guard psi(0).
        n_x = np.maximum(n_x, 1)
        n_y = np.maximum(n_y, 1)
        psi_sum = digamma_table[n_x - 1] + digamma_table[n_y - 1]
        # .sum()/m is bit-identical to .mean() (numpy's _mean is
        # umr_sum over count) without the wrapper's dispatch cost.
        value = psi_k - 1.0 / k - float(psi_sum.sum() / m) + psi_m
        if contracts.checks_enabled():
            contracts.check_mi_finite(float(value), where="KSGEstimator.mi_from_counts")
        return float(value)


def ksg_mi(x: AnyArray, y: AnyArray, k: int = 4) -> float:
    """Convenience wrapper: estimate I(X; Y) with a throwaway estimator."""
    return KSGEstimator(k=k).mi(x, y)
