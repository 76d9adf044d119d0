"""k-nearest-neighbor geometry under the Chebyshev (max) norm.

The KSG estimator (paper Section 3.1) measures, for every sample point
``p_i = (x_i, y_i)``, the distance to its k-th nearest neighbor under the
maximum norm ``d(p_i, p_j) = max(|x_i - x_j|, |y_i - y_j|)`` and then counts
how many samples fall inside the marginal strips spanned by that distance.

Estimates run through the stacked kernel :func:`repro.mi.stacked.ksg_mi_many`.
The first two functions here are the per-window reference that kernel is
gated against:

* :func:`chebyshev_knn_bruteforce` -- a fully vectorized O(m^2) search
  returning each point's k-NN rectangle extents;
* :func:`marginal_counts` -- the marginal strip counts, from sorted
  projections and binary search in O(m log m);
* :class:`MarginalIndex` -- a sorted projection kept under add/remove
  churn, which the incremental engine's recounts read;
* :class:`PairDistanceWorkspace` -- the brute-force search over shared
  union-span distance matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._types import AnyArray, FloatArray, IntArray

__all__ = [
    "KnnResult",
    "chebyshev_knn_bruteforce",
    "marginal_counts",
    "MarginalIndex",
    "PairDistanceWorkspace",
]


@dataclass(frozen=True)
class KnnResult:
    """Per-point neighbor geometry needed by the KSG estimator.

    Attributes:
        eps_x: Largest ``|x_i - x_j|`` over each point's k nearest neighbors
            (the x-extent of the k-NN bounding rectangle, shape ``(m,)``).
        eps_y: Largest ``|y_i - y_j|`` over each point's k nearest neighbors
            (shape ``(m,)``).
    """

    eps_x: FloatArray
    eps_y: FloatArray


def chebyshev_knn_bruteforce(x: AnyArray, y: AnyArray, k: int) -> KnnResult:
    """Find the k nearest neighbors of every point under the max norm.

    Args:
        x: x-coordinates, shape ``(m,)``.
        y: y-coordinates, shape ``(m,)``.
        k: number of neighbors (``1 <= k < m``).

    Returns:
        A :class:`KnnResult` with the marginal extents of the k-NN
        rectangle of every point.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"x and y must have equal length, got {x.size} and {y.size}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if x.size <= k:
        raise ValueError(f"need more than k={k} samples, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite")
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    dist = np.maximum(dx, dy)
    np.fill_diagonal(dist, np.inf)

    neighbor_idx = np.argpartition(dist, k - 1, axis=1)[:, :k]
    rows = np.arange(x.size)[:, None]
    eps_x = dx[rows, neighbor_idx].max(axis=1)
    eps_y = dy[rows, neighbor_idx].max(axis=1)
    return KnnResult(eps_x=eps_x, eps_y=eps_y)


class PairDistanceWorkspace:
    """Shared pairwise-distance workspace over the union span of windows.

    The delta-neighbors probed during one LAHC ring share a delay and
    overlap heavily, so their sample pairs are all drawn from one short
    union sub-series.  Instead of recomputing the O(m^2) ``|dx|`` / ``|dy|``
    broadcasts per window, this workspace computes them once over the union
    and answers each window's k-NN query from principal submatrices.

    The per-window geometry is *identical* to
    :func:`chebyshev_knn_bruteforce`: a window's distance submatrix holds
    exactly the values the brute-force kernel would compute (the union
    diagonal is pre-filled with ``inf``, and every principal submatrix
    shares that diagonal), and the selection runs on a contiguous copy so
    even tie-breaking inside ``argpartition`` matches the scalar path.

    The search no longer scores through a workspace: the batched scorer
    pads each window set into one stacked pass instead
    (:mod:`repro.mi.stacked`).  The
    class remains a standalone kernel, and the benchmark's layer trace
    (``perfbench/spans.py``) still wraps its constructor and :meth:`knn`.

    Args:
        x_union: x-side samples of the union span, shape ``(u,)``.
        y_union: paired y-side samples of the union span, shape ``(u,)``.
    """

    def __init__(self, x_union: AnyArray, y_union: AnyArray) -> None:
        x = np.asarray(x_union, dtype=np.float64).ravel()
        y = np.asarray(y_union, dtype=np.float64).ravel()
        if x.size != y.size:
            raise ValueError(f"x and y must have equal length, got {x.size} and {y.size}")
        if x.size < 2:
            raise ValueError(f"need at least 2 samples, got {x.size}")
        # One (3, u, u) block -- [dist, |dx|, |dy|] -- so a window's knn()
        # can slice, copy and gather all three layers in single numpy calls
        # instead of three.  Values are identical to the separate
        # ``np.abs(outer difference)`` / ``np.maximum`` construction.
        u = x.size
        full = np.empty((3, u, u))
        np.subtract(x[:, None], x[None, :], out=full[1])
        np.abs(full[1], out=full[1])
        np.subtract(y[:, None], y[None, :], out=full[2])
        np.abs(full[2], out=full[2])
        np.maximum(full[1], full[2], out=full[0])
        np.fill_diagonal(full[0], np.inf)
        self._full = full
        # Row-index column reused by every knn gather (sliced per window).
        self._rows = np.arange(u, dtype=np.intp)[:, None]

    @property
    def size(self) -> int:
        """Number of samples in the union span."""
        return self._full.shape[1]

    def knn(self, offset: int, m: int, k: int) -> KnnResult:
        """k-NN geometry of the ``m``-sample window at ``offset`` in the union.

        Args:
            offset: index of the window's first sample within the union.
            m: window size (``offset + m <= size``).
            k: number of neighbors (``1 <= k < m``).

        Returns:
            The same :class:`KnnResult` :func:`chebyshev_knn_bruteforce`
            would return for the extracted window.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if m <= k:
            raise ValueError(f"need more than k={k} samples, got {m}")
        if offset < 0 or offset + m > self.size:
            raise ValueError(
                f"window [{offset}, {offset + m}) exceeds union span of {self.size} samples"
            )
        sel = slice(offset, offset + m)
        # Contiguous copy of all three layers at once; argpartition sees the
        # exact buffer the scalar kernel builds (identical values *and*
        # identical tie resolution), and one broadcast gather + one max
        # serve both extents.
        sub = np.ascontiguousarray(self._full[:, sel, sel])
        neighbor_idx = sub[0].argpartition(k - 1, axis=1)[:, :k]
        gathered = sub[1:, self._rows[:m], neighbor_idx].max(axis=2)
        return KnnResult(eps_x=gathered[0], eps_y=gathered[1])


def marginal_counts(
    values: AnyArray,
    radii: AnyArray,
    presorted: Optional[FloatArray] = None,
) -> IntArray:
    """Count, for every point, the neighbors inside its marginal strip.

    For point ``i`` the strip is the closed interval
    ``[values[i] - radii[i], values[i] + radii[i]]`` (KSG algorithm 2
    counts ``|v_j - v_i| <= r_i``), and the point itself is excluded.

    Args:
        values: 1-D projections of the samples, shape ``(m,)``.
        radii: per-point strip half-widths, shape ``(m,)``.
        presorted: optional ascending float64 array holding exactly the
            multiset of ``values`` (e.g. a maintained
            :meth:`MarginalIndex.sorted_values`).  When given, the
            per-call ``O(m log m)`` sort is skipped; because a sorted
            float64 multiset has exactly one array realization, the counts
            are identical to the from-scratch path.

    Returns:
        Integer array of counts, shape ``(m,)``.
    """
    # Hot path: one call per axis per MI estimate.  Skip the asarray
    # round-trips when the caller already holds 1-D float64 arrays (the
    # estimators always do); the converted path is value-identical.
    if type(values) is not np.ndarray or values.dtype != np.float64 or values.ndim != 1:
        values = np.asarray(values, dtype=np.float64).ravel()
    if type(radii) is not np.ndarray or radii.dtype != np.float64 or radii.ndim != 1:
        radii = np.asarray(radii, dtype=np.float64).ravel()
    order = np.sort(values) if presorted is None else presorted
    lo = values - radii
    hi = values + radii
    left = order.searchsorted(lo, side="left")
    right = order.searchsorted(hi, side="right")
    counts = right - left - 1  # exclude the point itself
    return np.maximum(counts, 0, out=counts)


class MarginalIndex:
    """A 1-D projection kept sorted incrementally under add/remove churn.

    The incremental engine (paper Section 7, Lemmas 5/6) confines marginal
    count changes to the influenced marginal regions, which means the
    *sorted order* of a projection changes by one insertion or deletion
    per point move.  This index is the IMR realization of that fact: it
    maintains the ascending array with one ``searchsorted`` plus one
    ``O(m)`` memmove per mutation, so a query never pays the
    ``O(m log m)`` from-scratch sort that :func:`marginal_counts`
    otherwise performs.

    Exactness: an ascending float64 array is uniquely determined by its
    value multiset, so after any mutation sequence :meth:`sorted_values`
    is elementwise identical to ``np.sort`` of the live values (tests
    assert this under randomized churn).
    """

    def __init__(self, values: Optional[AnyArray] = None) -> None:
        self._buf = np.empty(64, dtype=np.float64)
        self._size = 0
        if values is not None:
            self.reset(values)

    def __len__(self) -> int:
        return self._size

    def reset(self, values: AnyArray) -> None:
        """Replace the contents with a fresh (bulk-sorted) value set."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if self._buf.size < values.size:
            capacity = self._buf.size
            while capacity < values.size:
                capacity *= 2
            self._buf = np.empty(capacity, dtype=np.float64)
        self._size = values.size
        self._buf[: self._size] = np.sort(values)

    def add(self, value: float) -> None:
        """Insert one value, keeping the array sorted (O(m) memmove)."""
        size = self._size
        if size == self._buf.size:
            grown = np.empty(self._buf.size * 2, dtype=np.float64)
            grown[:size] = self._buf[:size]
            self._buf = grown
        pos = int(self._buf[:size].searchsorted(value, side="right"))
        self._buf[pos + 1 : size + 1] = self._buf[pos:size]
        self._buf[pos] = value
        self._size = size + 1

    def remove(self, value: float) -> None:
        """Remove one occurrence of ``value`` (O(m) memmove).

        Raises:
            KeyError: if ``value`` is not present.
        """
        size = self._size
        pos = int(self._buf[:size].searchsorted(value, side="left"))
        if pos >= size or self._buf[pos] != value:
            raise KeyError(f"value {value!r} not present in the index")
        self._buf[pos : size - 1] = self._buf[pos + 1 : size]
        self._size = size - 1

    def sorted_values(self) -> FloatArray:
        """The live ascending array (a view; do not mutate)."""
        return self._buf[: self._size]
