"""Stacked KSG and binned-entropy kernels over many equal-size windows.

A TYCOS search scores tens of thousands of windows of a few dozen samples
each, so a per-window estimate costs more in numpy dispatch than in
arithmetic.  These kernels take the ``(2, W, m)`` x and y sample rows of
``W`` windows of one size ``m`` and return all ``W`` KSG estimates
(:func:`ksg_mi_many`) or binned joint entropies
(:func:`binned_joint_entropy_many`) in a fixed number of numpy calls.

Every row is bit-identical to the per-window reference --
:meth:`repro.mi.ksg.KSGEstimator.mi` on the brute-force backend and
:func:`repro.mi.entropy.binned_joint_entropy`:

* each window's ``(m, m)`` Chebyshev distance block is built with the
  scalar kernel's float operations and partitioned one contiguous row at a
  time, so ``argpartition`` resolves ties exactly as it does per window
  (rows are never padded across sizes);
* the k-NN extents re-derive ``|x_i - x_j|`` / ``|y_i - y_j|`` for the
  selected neighbors with the same subtract and ``abs``;
* marginal counts compare each row's values with its strip ends using
  the float comparisons of :func:`repro.mi.neighbors.marginal_counts`,
  either all pairs at once or by searching the sorted row, so the counts
  are equal integers;
* each row is summed by a reduction along that row alone, which numpy
  associates exactly like the 1-D sum of the same values: the digamma
  terms over the ``m`` samples, and the entropy terms over the non-empty
  bins in bin order, with rows grouped by their non-empty-bin count so
  each group reduces one ``(rows, count)`` block.

:func:`ksg_mi_many` builds the distance rows of all windows in blocks
of points whose layers hold at most :data:`CHUNK_ELEMENTS` elements, so a
call holds about a MiB of distance layers whatever ``W`` and ``m`` (the
all-pairs marginal comparison of windows with ``m <= 32`` adds at most
2 KiB per window).
"""

from __future__ import annotations

from itertools import groupby
import numpy as np

from repro._types import FloatArray, IntArray
from repro.mi.digamma import shared_digamma_table
from repro.mi.entropy import default_bins

__all__ = [
    "CHUNK_ELEMENTS",
    "ksg_mi_many",
    "binned_joint_entropy_many",
    "marginal_counts_many",
]

#: Elements of one distance layer per block of points (256 KiB of
#: float64).  A block holds three such layers at once -- distances, a
#: temporary and the argpartition indices.  Measured per window on a
#: 2-vCPU host (26 windows, m = 40-150, two runs), budgets of 2**14 to
#: 2**16 were within 10% of each other, while 2**17 ran 12-33% slower at
#: m = 64-150, where its layers outgrow the cache; at m = 1000, 2**15
#: blocks took 35% less time than one pass over the whole window.
CHUNK_ELEMENTS = 1 << 15

#: Largest window size whose marginal counts compare all sample pairs
#: (see :func:`marginal_counts_many`).  Measured on a 2-vCPU host: at
#: m <= 32 the broadcast beat the sorted search by up to 2x on delay grids
#: (W = 17-81 rows) and lost by at most 20 us on small rings; at m >= 40
#: the search won by up to 13x (m = 1000).
_COMPARE_ALL_MAX = 32


def marginal_counts_many(values: FloatArray, radii: FloatArray, strict: bool) -> IntArray:
    """Row-wise :func:`repro.mi.neighbors.marginal_counts` of ``(..., m)`` arrays.

    Each count compares the row's values against the strip ends
    ``values - radii`` / ``values + radii`` with the same float
    comparisons as the per-row ``searchsorted``, so the counts are equal
    integers.  Two exact constructions, chosen by measured cost:

    * ``m <= _COMPARE_ALL_MAX``: compare every value with every strip
      (an ``O(m^2)`` broadcast); fastest for the delay grids of short
      windows, where the other construction pays for long searches;
    * larger ``m``: sort each row once and binary-search the strip ends,
      as the reference does.  Keys and queries are complex numbers
      ``row + 1j * value``, which numpy orders lexicographically, so one
      flat search stays inside each row.
    """
    lo = values - radii
    hi = values + radii
    if values.shape[-1] <= _COMPARE_ALL_MAX:
        row = values[..., None, :]
        if strict:
            inside = row > lo[..., None]
            inside &= row < hi[..., None]
        else:
            inside = row >= lo[..., None]
            inside &= row <= hi[..., None]
        counts = inside.sum(axis=-1)
    else:
        lead = values.shape[:-1]
        rows = np.arange(values.size // values.shape[-1], dtype=np.float64)
        keys = np.empty(values.shape, dtype=np.complex128)
        keys.real = rows.reshape(lead + (1,))
        keys.imag = np.sort(values, axis=-1)
        ends = np.empty((2,) + values.shape, dtype=np.complex128)
        ends.real = keys.real
        ends.imag = lo, hi
        flat = keys.reshape(-1)
        left = flat.searchsorted(ends[0].reshape(-1), side="right" if strict else "left")
        counts = flat.searchsorted(ends[1].reshape(-1), side="left" if strict else "right")
        counts -= left
        counts = counts.reshape(values.shape)
    counts -= 1  # exclude the point itself
    return np.maximum(counts, 0, out=counts)


def _knn_extents(xy: FloatArray, k: int) -> FloatArray:
    """``(2, W, m)`` x/y extents of every point's k-NN rectangle.

    Points are taken in blocks whose ``(W, block, m)`` distance rows hold
    at most :data:`CHUNK_ELEMENTS` elements (or one point per window when
    ``W * m`` exceeds it), so the distance passes stay cache-sized.  A
    block holds whole distance rows, so each row and its ``argpartition``
    are the same as in one ``(m, m)`` pass.
    """
    _, w, m = xy.shape
    step = max(1, CHUNK_ELEMENTS // (w * m))
    if step >= m:
        return _knn_block(xy, k, 0, m)
    blocks = [_knn_block(xy, k, lo, min(lo + step, m)) for lo in range(0, m, step)]
    return np.concatenate(blocks, axis=2)


def _knn_block(xy: FloatArray, k: int, lo: int, hi: int) -> FloatArray:
    """k-NN extents of points ``lo .. hi - 1`` of every window."""
    _, w, m = xy.shape
    x, y = xy
    dist = np.subtract(x[:, lo:hi, None], x[:, None, :])
    np.abs(dist, out=dist)
    dy = np.subtract(y[:, lo:hi, None], y[:, None, :])
    np.abs(dy, out=dy)
    np.maximum(dist, dy, out=dist)
    del dy
    dist.reshape(w, -1)[:, lo :: m + 1] = np.inf  # each point's own column
    neighbors = dist.argpartition(k - 1, axis=2)[:, :, :k]
    del dist
    # Neighbor-major (k, W, block) flat indices, so the max runs over
    # whole (W, block) slabs rather than along a short trailing axis.
    flat = neighbors.transpose(2, 0, 1) + (np.arange(w) * m)[:, None]
    near = xy.reshape(2, w * m)[:, flat]
    np.subtract(near, xy[:, None, :, lo:hi], out=near)
    np.abs(near, out=near)
    return near.max(axis=1)


def ksg_mi_many(xy: FloatArray, k: int, algorithm: int = 2) -> FloatArray:
    """KSG estimates of ``W`` equal-size windows, one per row.

    Args:
        xy: float64 sample rows, shape ``(2, W, m)``: ``xy[0, i]`` holds
            window ``i``'s x samples and ``xy[1, i]`` the paired y samples.
        k: neighbor count, ``1 <= k < m`` (callers pass
            :meth:`~repro.mi.ksg.KSGEstimator.effective_k`).
        algorithm: KSG algorithm, 2 (paper Eq. 2) or 1.

    Returns:
        ``(W,)`` float64 estimates, row ``i`` bit-identical to
        ``KSGEstimator(k, algorithm, backend="bruteforce").mi(*xy[:, i])``.
    """
    m = xy.shape[2]
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    # psi(i) for i = 1..m sits at index i - 1 (the DigammaTable layout).
    table = shared_digamma_table().prefix(m)
    psi_k = float(table[k - 1])
    psi_m = float(table[m - 1])
    lead = psi_k - 1.0 / k if algorithm == 2 else psi_k

    extents = _knn_extents(xy, k)
    if algorithm == 2:
        counts = marginal_counts_many(xy, extents, strict=False)
        counts -= 1  # psi(max(n, 1)) sits at index max(n - 1, 0)
        np.maximum(counts, 0, out=counts)
    else:
        extents[:] = np.maximum(extents[0], extents[1])  # the k-th distance
        counts = marginal_counts_many(xy, extents, strict=True)  # psi(n + 1)
    psi = table[counts]
    return lead - (psi[0] + psi[1]).sum(axis=1) / m + psi_m


def binned_joint_entropy_many(xy: FloatArray) -> FloatArray:
    """Binned joint entropies of ``W`` equal-size windows, one per row.

    ``xy`` holds the float64 sample rows as in :func:`ksg_mi_many`; row
    ``i`` of the result is bit-identical to
    ``binned_joint_entropy(*xy[:, i])`` with its default bin count.
    """
    _, w, m = xy.shape
    bins = default_bins(m)
    lo = xy.min(axis=2, keepdims=True)
    span = xy.max(axis=2, keepdims=True)
    span -= lo
    # bins / span; a constant row (span 0) divides by 1 and bins every
    # sample at index 0, as the scalar path does.
    scale = bins / (span + (span == 0))
    idx = ((xy - lo) * scale).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    cells = bins * bins
    codes = idx[0] * bins
    codes += idx[1]
    codes += np.arange(0, w * cells, cells)[:, None]
    counts = np.bincount(codes.reshape(-1), minlength=w * cells).reshape(w, cells)
    occupied = counts > 0
    # Rows with equal non-empty-bin counts are summed as one (rows, count)
    # block; ordering the rows by that count makes each block contiguous
    # in the flattened terms (rows of equal count keep their order).
    order = occupied.sum(axis=1).argsort(kind="stable")
    counts = counts[order]
    occupied = occupied[order]
    p = counts[occupied] / m
    terms = p * np.log(p)
    entropies = np.empty(w)
    first = offset = 0
    for length, run in groupby(occupied.sum(axis=1).tolist()):
        rows = sum(1 for _ in run)
        block = terms[offset : offset + rows * length].reshape(rows, length)
        entropies[order[first : first + rows]] = block.sum(axis=1)
        first, offset = first + rows, offset + rows * length
    return -entropies
