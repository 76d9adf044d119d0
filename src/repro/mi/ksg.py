"""The Kraskov--Stoegbauer--Grassberger (KSG) mutual information estimator.

Implements the estimator the paper adopts in Section 3.1 (Eq. 2) and applies
per window in Definition 4.6 (Eq. 3):

``I(X; Y) = psi(k) - 1/k - <psi(n_x) + psi(n_y)> + psi(m)``

where ``psi`` is the digamma function, ``k`` the number of nearest neighbors
under the Chebyshev norm, ``n_x``/``n_y`` the marginal neighbor counts inside
the k-NN rectangle of each point, and ``m`` the window size.  This is KSG
"algorithm 2"; the classic "algorithm 1"
(``psi(k) - <psi(n_x + 1) + psi(n_y + 1)> + psi(m)``) is also provided for
cross-checks.

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
from repro.mi.digamma import digamma_direct, shared_digamma_table
from repro.mi.neighbors import (
    KnnResult,
    chebyshev_knn_bruteforce,
    chebyshev_knn_grid,
    marginal_counts,
)

__all__ = ["KSGEstimator", "ksg_mi"]

_BACKENDS = ("bruteforce", "grid", "kdtree", "auto")
# Above this window size the grid index beats the O(m^2) vectorized scan.
_GRID_CUTOVER = 4096


@dataclass(frozen=True)
class KSGEstimator:
    """Configurable KSG mutual information estimator.

    Attributes:
        k: number of nearest neighbors (paper default intent: a small
            constant; 4 is the customary choice and our default).
        algorithm: 2 for the paper's Eq. (2) variant, 1 for classic KSG-1.
        backend: neighbor search backend, one of ``"bruteforce"``, ``"grid"``,
            ``"kdtree"`` or ``"auto"`` (size-based choice between the first
            two; the k-d tree is opt-in, best under heavy clustering).
        use_digamma_table: serve digamma evaluations from the process-wide
            :func:`repro.mi.digamma.shared_digamma_table` instead of calling
            scipy per estimate.  Table entries are exact scipy evaluations,
            so this never changes an estimate; the switch exists only so
            benchmarks can measure the table against direct calls.
    """

    k: int = 4
    algorithm: int = 2
    backend: str = "auto"
    use_digamma_table: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.algorithm not in (1, 2):
            raise ValueError(f"algorithm must be 1 or 2, got {self.algorithm}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")

    def resolved_backend(self, m: int) -> str:
        """The neighbor-search backend actually used for ``m`` samples."""
        if self.backend == "auto":
            return "grid" if m >= _GRID_CUTOVER else "bruteforce"
        return self.backend

    def _knn(self, x: FloatArray, y: FloatArray, k: int) -> KnnResult:
        backend = self.resolved_backend(x.size)
        if backend == "grid":
            return chebyshev_knn_grid(x, y, k)
        if backend == "kdtree":
            from repro.mi.kdtree import chebyshev_knn_kdtree

            return chebyshev_knn_kdtree(x, y, k)
        return chebyshev_knn_bruteforce(x, y, k)

    def effective_k(self, m: int) -> int:
        """The neighbor count actually used for a window of ``m`` samples."""
        return min(self.k, m - 1)

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
        k = self.effective_k(m)
        knn = self._knn(x, y, k)
        return self.mi_from_geometry(x, y, knn, k)

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
        maintained neighbor sets and the batched ring scorer can amortize
        one neighbor workspace across a whole delta-neighborhood.

        Args:
            x: window samples of the first series.
            y: paired window samples of the second series.
            knn: precomputed neighbor geometry for the window.
            k: neighbor count the geometry was built with.
            digamma_table: optional precomputed ``digamma(i)`` for
                ``i = 1..len(table)`` (``table[i - 1] == digamma(i)``,
                length >= ``m``); every digamma argument here is a positive
                integer ``<= m``, so a caller evaluating many windows can
                share one table.  The table values are exact scipy
                evaluations, so supplying it never changes the estimate.
                When omitted, the process-wide shared table is used unless
                ``use_digamma_table`` is off.
            sorted_x: optional ascending float64 realization of exactly the
                multiset of ``x`` (see :func:`marginal_counts` presorted);
                skips the per-call marginal sort without changing counts.
            sorted_y: same for ``y``.
        """
        if self.algorithm == 2:
            n_x = marginal_counts(x, knn.eps_x, strict=False, presorted=sorted_x)
            n_y = marginal_counts(y, knn.eps_y, strict=False, presorted=sorted_y)
        else:
            n_x = marginal_counts(x, knn.kth_distance, strict=True, presorted=sorted_x)
            n_y = marginal_counts(y, knn.kth_distance, strict=True, presorted=sorted_y)
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

        ``n_x``/``n_y`` are raw :func:`marginal_counts` outputs for the
        algorithm configured on this estimator (loose radii counts for
        algorithm 2, strict kth-distance counts for algorithm 1).
        """
        if digamma_table is None and self.use_digamma_table:
            digamma_table = shared_digamma_table().prefix(m)

        if self.algorithm == 2:
            # Eq. (2): counts include the k neighbors, so n >= k >= 1 except
            # in degenerate duplicate layouts; guard psi(0).
            n_x = np.maximum(n_x, 1)
            n_y = np.maximum(n_y, 1)
            if digamma_table is not None:
                psi_sum = digamma_table[n_x - 1] + digamma_table[n_y - 1]
                psi_k = float(digamma_table[k - 1])
                psi_m = float(digamma_table[m - 1])
            else:
                psi_sum = np.asarray(
                    digamma_direct(n_x) + digamma_direct(n_y), dtype=np.float64
                )
                psi_k = float(digamma_direct(k))
                psi_m = float(digamma_direct(m))
            # .sum()/m is bit-identical to .mean() (numpy's _mean is
            # umr_sum over count) without the wrapper's dispatch cost.
            value = psi_k - 1.0 / k - float(psi_sum.sum() / m) + psi_m
        else:
            if digamma_table is not None:
                psi_sum = digamma_table[n_x] + digamma_table[n_y]
                psi_k = float(digamma_table[k - 1])
                psi_m = float(digamma_table[m - 1])
            else:
                psi_sum = np.asarray(
                    digamma_direct(n_x + 1) + digamma_direct(n_y + 1), dtype=np.float64
                )
                psi_k = float(digamma_direct(k))
                psi_m = float(digamma_direct(m))
            value = psi_k - float(psi_sum.sum() / m) + psi_m
        if contracts.checks_enabled():
            contracts.check_mi_finite(float(value), where="KSGEstimator.mi_from_counts")
        return float(value)


def ksg_mi(
    x: AnyArray,
    y: AnyArray,
    k: int = 4,
    algorithm: int = 2,
    backend: str = "auto",
) -> float:
    """Convenience wrapper: estimate I(X; Y) with a throwaway estimator."""
    return KSGEstimator(k=k, algorithm=algorithm, backend=backend).mi(x, y)
