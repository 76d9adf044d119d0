"""k-nearest-neighbor search under the Chebyshev (max) norm.

The KSG estimator (paper Section 3.1) measures, for every sample point
``p_i = (x_i, y_i)``, the distance to its k-th nearest neighbor under the
maximum norm ``d(p_i, p_j) = max(|x_i - x_j|, |y_i - y_j|)`` and then counts
how many samples fall inside the marginal strips spanned by that distance.

Two interchangeable backends are provided:

* :func:`chebyshev_knn_bruteforce` -- a fully vectorized O(m^2) search.
  Fast in practice for the window sizes TYCOS evaluates (tens to a few
  thousand samples) because the work is a handful of numpy kernels.
* :func:`chebyshev_knn_grid` -- a uniform grid index (the "grid-based
  structure for low dimensional data" of paper Section 5.1) with expected
  O(m log m) behaviour on well-spread data.

Marginal counts are computed with sorted projections and binary search
(:func:`marginal_counts`), which is O(m log m) regardless of backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro._types import AnyArray, FloatArray, IntArray

__all__ = [
    "KnnResult",
    "chebyshev_knn_bruteforce",
    "chebyshev_knn_grid",
    "marginal_counts",
    "GridIndex",
    "MarginalIndex",
    "PairDistanceWorkspace",
]


@dataclass(frozen=True)
class KnnResult:
    """Per-point neighbor geometry needed by the KSG estimator.

    Attributes:
        kth_distance: Chebyshev distance from each point to its k-th nearest
            neighbor (shape ``(m,)``).
        eps_x: Largest ``|x_i - x_j|`` over each point's k nearest neighbors
            (the x-extent of the k-NN bounding rectangle, shape ``(m,)``).
        eps_y: Largest ``|y_i - y_j|`` over each point's k nearest neighbors
            (shape ``(m,)``).
        indices: Indices of the k nearest neighbors per point
            (shape ``(m, k)``); ordering within a row is unspecified.
    """

    kth_distance: FloatArray
    eps_x: FloatArray
    eps_y: FloatArray
    indices: IntArray


def _validate_xy(x: AnyArray, y: AnyArray, k: int) -> Tuple[FloatArray, FloatArray]:
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
    return x, y


def chebyshev_knn_bruteforce(x: AnyArray, y: AnyArray, k: int) -> KnnResult:
    """Find the k nearest neighbors of every point under the max norm.

    Args:
        x: x-coordinates, shape ``(m,)``.
        y: y-coordinates, shape ``(m,)``.
        k: number of neighbors (``1 <= k < m``).

    Returns:
        A :class:`KnnResult` with the k-th neighbor distance and the
        marginal extents of the k-NN rectangle for every point.
    """
    x, y = _validate_xy(x, y, k)
    m = x.size
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    dist = np.maximum(dx, dy)
    np.fill_diagonal(dist, np.inf)

    neighbor_idx = np.argpartition(dist, k - 1, axis=1)[:, :k]
    rows = np.arange(m)[:, None]
    kth_distance = dist[rows, neighbor_idx].max(axis=1)
    eps_x = dx[rows, neighbor_idx].max(axis=1)
    eps_y = dy[rows, neighbor_idx].max(axis=1)
    return KnnResult(kth_distance=kth_distance, eps_x=eps_x, eps_y=eps_y, indices=neighbor_idx)


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
        self._x = x
        self._y = y
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
        self._dist = full[0]
        self._dx = full[1]
        self._dy = full[2]
        # Stable ascending-value orderings of the union projections, built
        # lazily by sorted_window() and shared by every window of the group.
        self._order_x: Optional[IntArray] = None
        self._order_y: Optional[IntArray] = None
        # Shared digamma prefix, resolved on first digamma_table() call.
        self._digamma: Optional[FloatArray] = None
        # Row-index column reused by every knn gather (sliced per window).
        self._rows = np.arange(self._dist.shape[0], dtype=np.intp)[:, None]

    @property
    def size(self) -> int:
        """Number of samples in the union span."""
        return self._dist.shape[0]

    def digamma_table(self) -> FloatArray:
        """``digamma(i)`` for ``i = 1..size`` from the process-wide table.

        ``table[i - 1] == digamma(i)`` exactly (same scipy evaluation on the
        same float64 inputs), so estimator code can gather instead of
        re-evaluating the transcendental per window.  The returned array may
        be longer than ``size``.  Resolved once per workspace.
        """
        if self._digamma is None:
            from repro.mi.digamma import shared_digamma_table

            self._digamma = shared_digamma_table().prefix(self.size)
        return self._digamma

    #: Below this window size a direct ``np.sort`` of the window beats the
    #: O(union) mask-gather over the amortized argsort (measured: sorting
    #: <= a few hundred float64 costs ~1-2us, the mask-gather ~5us).
    _SORT_DIRECT_MAX = 256

    def sorted_window(self, offset: int, m: int) -> Tuple[FloatArray, FloatArray]:
        """Sorted x/y projections of the window at ``offset``, span-amortized.

        Two constructions, chosen by measured cost, both returning the
        ascending sequence of the window's float64 multiset (a sorted
        multiset has exactly one array realization, so they are
        elementwise identical and feed :func:`marginal_counts`
        ``presorted=`` without changing any count):

        * small windows: a direct ``np.sort`` of the window slice;
        * large windows: the union's stable argsort is computed once (per
          axis, lazily) and the window's projection is a boolean-mask
          gather over it -- C loops over ``size`` elements instead of a
          fresh ``O(m log m)`` sort per window per axis.
        """
        hi = offset + m
        if m < self._SORT_DIRECT_MAX:
            return np.sort(self._x[offset:hi]), np.sort(self._y[offset:hi])
        if self._order_x is None or self._order_y is None:
            self._order_x = np.argsort(self._x, kind="stable")
            self._order_y = np.argsort(self._y, kind="stable")
        sel_x = self._order_x[(self._order_x >= offset) & (self._order_x < hi)]
        sel_y = self._order_y[(self._order_y >= offset) & (self._order_y < hi)]
        return self._x[sel_x], self._y[sel_y]

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
        # replace three of each.
        sub = np.ascontiguousarray(self._full[:, sel, sel])
        neighbor_idx = sub[0].argpartition(k - 1, axis=1)[:, :k]
        gathered = sub[:, self._rows[:m], neighbor_idx].max(axis=2)
        return KnnResult(
            kth_distance=gathered[0],
            eps_x=gathered[1],
            eps_y=gathered[2],
            indices=neighbor_idx,
        )


class GridIndex:
    """Uniform grid over 2-D points supporting Chebyshev k-NN queries.

    The plane is partitioned into square cells whose side is chosen so the
    average occupancy is a small constant.  A k-NN query expands rings of
    cells around the query cell; a ring at radius ``r`` guarantees every
    uncollected point is at Chebyshev distance > ``(r - 1) * cell``, which
    gives a correct stopping rule.
    """

    def __init__(self, x: AnyArray, y: AnyArray, target_per_cell: float = 2.0) -> None:
        x = np.asarray(x, dtype=np.float64).ravel()
        y = np.asarray(y, dtype=np.float64).ravel()
        if x.size != y.size:
            raise ValueError("x and y must have equal length")
        if x.size == 0:
            raise ValueError("cannot index an empty point set")
        self._x = x
        self._y = y
        m = x.size
        span_x = float(x.max() - x.min())
        span_y = float(y.max() - y.min())
        span = max(span_x, span_y)
        if span <= 0.0:
            # All points coincide in at least one layout; one cell suffices.
            self._cell = 1.0
        else:
            n_cells_per_axis = max(1, int(np.sqrt(m / target_per_cell)))
            self._cell = span / n_cells_per_axis
        self._x0 = float(x.min())
        self._y0 = float(y.min())
        self._buckets: Dict[Tuple[int, int], List[int]] = {}
        cx = ((x - self._x0) / self._cell).astype(np.int64)
        cy = ((y - self._y0) / self._cell).astype(np.int64)
        for i in range(m):
            self._buckets.setdefault((int(cx[i]), int(cy[i])), []).append(i)
        self._cx = cx
        self._cy = cy

    def _ring_cells(self, cx: int, cy: int, r: int) -> Iterator[Tuple[int, int]]:
        if r == 0:
            yield (cx, cy)
            return
        for gx in range(cx - r, cx + r + 1):
            yield (gx, cy - r)
            yield (gx, cy + r)
        for gy in range(cy - r + 1, cy + r):
            yield (cx - r, gy)
            yield (cx + r, gy)

    def knn(self, i: int, k: int) -> Tuple[IntArray, FloatArray]:
        """Return ``(indices, distances)`` of the k nearest neighbors of point i.

        Distances are Chebyshev; the query point itself is excluded.
        """
        x, y = self._x, self._y
        qx, qy = x[i], y[i]
        cx, cy = int(self._cx[i]), int(self._cy[i])
        seen = 0
        r = 0
        # Expand rings until the k-th best distance is certainly final,
        # scoring only the candidates each new ring contributes and folding
        # them into a running top-k (never re-scanning earlier rings).
        best_idx = np.empty(0, dtype=np.int64)
        best_dist = np.empty(0)
        while True:
            fresh: List[int] = []
            for cell in self._ring_cells(cx, cy, r):
                bucket = self._buckets.get(cell)
                if bucket:
                    fresh.extend(bucket)
            if fresh:
                cand = np.asarray([c for c in fresh if c != i], dtype=np.int64)
                if cand.size:
                    seen += cand.size
                    d = np.maximum(np.abs(x[cand] - qx), np.abs(y[cand] - qy))
                    merged_idx = np.concatenate((best_idx, cand))
                    merged_dist = np.concatenate((best_dist, d))
                    if merged_idx.size > k:
                        order = np.argpartition(merged_dist, k - 1)[:k]
                        best_idx = merged_idx[order]
                        best_dist = merged_dist[order]
                    else:
                        best_idx = merged_idx
                        best_dist = merged_dist
            # Every point not yet visited lies in a ring at radius > r,
            # hence at distance > (r) * cell - offset; the safe bound is
            # (r) * cell because the query point can sit on a cell border.
            if best_idx.size >= k and best_dist.max() <= r * self._cell:
                break
            r += 1
            if r > 2 * max(1, int(np.sqrt(x.size))) + 2 and seen:
                # Degenerate layouts (all points stacked in few cells):
                # fall back to scanning the full point set.
                cand = np.asarray([j for j in range(x.size) if j != i], dtype=np.int64)
                d = np.maximum(np.abs(x[cand] - qx), np.abs(y[cand] - qy))
                order = np.argpartition(d, k - 1)[:k]
                best_idx = cand[order]
                best_dist = d[order]
                break
        return best_idx, best_dist


def chebyshev_knn_grid(x: AnyArray, y: AnyArray, k: int) -> KnnResult:
    """Grid-index based k-NN search; same contract as the brute-force backend."""
    x, y = _validate_xy(x, y, k)
    m = x.size
    index = GridIndex(x, y)
    kth_distance = np.empty(m)
    eps_x = np.empty(m)
    eps_y = np.empty(m)
    indices = np.empty((m, k), dtype=np.int64)
    for i in range(m):
        idx, dist = index.knn(i, k)
        indices[i] = idx
        kth_distance[i] = dist.max()
        eps_x[i] = np.abs(x[idx] - x[i]).max()
        eps_y[i] = np.abs(y[idx] - y[i]).max()
    return KnnResult(kth_distance=kth_distance, eps_x=eps_x, eps_y=eps_y, indices=indices)


def marginal_counts(
    values: AnyArray,
    radii: AnyArray,
    strict: bool,
    presorted: Optional[FloatArray] = None,
) -> IntArray:
    """Count, for every point, the neighbors inside its marginal strip.

    For point ``i`` the strip is ``[values[i] - radii[i], values[i] + radii[i]]``
    (open interval when ``strict``), and the point itself is excluded.

    Args:
        values: 1-D projections of the samples, shape ``(m,)``.
        radii: per-point strip half-widths, shape ``(m,)``.
        strict: when True count ``|v_j - v_i| < r_i`` (KSG algorithm 1);
            when False count ``|v_j - v_i| <= r_i`` (KSG algorithm 2).
        presorted: optional ascending float64 array holding exactly the
            multiset of ``values`` (e.g. a maintained
            :meth:`MarginalIndex.sorted_values` or a
            :meth:`PairDistanceWorkspace.sorted_window` projection).  When
            given, the per-call ``O(m log m)`` sort is skipped; because a
            sorted float64 multiset has exactly one array realization, the
            counts are identical to the from-scratch path.

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
    if strict:
        left = order.searchsorted(lo, side="right")
        right = order.searchsorted(hi, side="left")
    else:
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
