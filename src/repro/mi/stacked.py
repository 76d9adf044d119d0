"""Stacked KSG and binned-entropy kernels over many windows of mixed sizes.

A TYCOS search scores tens of thousands of windows of a few dozen samples
each, so a per-window estimate costs more in numpy dispatch than in
arithmetic.  These kernels take the ``(2, W, M)`` x and y sample rows of
``W`` windows -- sorted by size and padded to the largest size ``M``, as
:func:`gather_rows` builds them -- and return all ``W`` KSG estimates
(:func:`ksg_mi_many`) or binned joint entropies
(:func:`binned_joint_entropy_many`) in one pass over the batch.  A whole
delta-ring, seeding delay grid or set of noise probes is one call,
whatever its mix of sizes; equal-size rows (``sizes=None``) are the same
call with no padding.

:meth:`repro.mi.ksg.KSGEstimator.mi` is one row of the same call, so
this is the only KSG kernel.  Every row is bit-identical to the
per-window reference -- :meth:`~repro.mi.ksg.KSGEstimator.mi_from_geometry`
over :func:`repro.mi.neighbors.chebyshev_knn_bruteforce`, and
:func:`repro.mi.entropy.binned_joint_entropy` -- and padding cannot
change that:

* the distance layers, neighbor gathers, k-NN extents, marginal counts,
  digamma lookups and entropy bins run once over the padded batch with
  the scalar kernels' float operations; a pad slot only ever produces
  values in pad slots, which no real row reads;
* in the marginal counts the pad slots hold ``+inf``, which no finite
  strip ``[v - r, v + r]`` contains, so a real point's counts are equal
  integers;
* pads repeat a sample of their row, so the row's ``min`` / ``max`` (the
  entropy's bin range) are unchanged, and the pads' bin codes land in a
  discarded cell;
* the two steps whose result depends on the row length run per size on
  the exact rows: ``argpartition`` runs on each window's own ``(m, m)``
  sub-block of the distance layer, so ties break exactly as they do per
  window (rows are never padded for it), and each row's digamma terms
  are summed over its ``m`` real slots alone, which numpy associates
  exactly like the 1-D sum.  Entropy terms are summed over each row's
  non-empty bins in bin order, with rows grouped by their non-empty-bin
  count so each group reduces one ``(rows, count)`` block.

The distance rows are built in blocks of points whose ``(W, block, M)``
layers hold at most :data:`CHUNK_ELEMENTS` elements, so a call holds
about a MiB of distance layers whatever ``W`` and ``M``; a block skips
the windows whose sizes it lies past (the all-pairs marginal comparison
of batches with ``M <= 32`` adds at most 2 KiB per window).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro._types import FloatArray, IntArray
from repro.mi.digamma import shared_digamma_table
from repro.mi.entropy import default_bins

__all__ = [
    "CHUNK_ELEMENTS",
    "gather_rows",
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
#: blocks took 35% less time than one pass over the whole window.  The
#: blocks also bound a padded batch's memory: without them a search's
#: peak RSS grew by 12-17%.
CHUNK_ELEMENTS = 1 << 15

#: Largest padded width whose marginal counts compare all sample pairs
#: (see :func:`marginal_counts_many`).  Measured on a 2-vCPU host: at
#: m <= 32 the broadcast beat the sorted search by up to 2x on delay grids
#: (W = 17-81 rows) and lost by at most 20 us on small rings; at m >= 40
#: the search won by up to 13x (m = 1000).
_COMPARE_ALL_MAX = 32

#: ``(first, stop, m)``: rows ``first .. stop - 1`` of a batch hold ``m`` samples.
_Group = Tuple[int, int, int]


def gather_rows(
    x: FloatArray, y: FloatArray, starts: IntArray, delays: IntArray, sizes: IntArray
) -> FloatArray:
    """The ``(2, W, M)`` padded sample rows of ``W`` windows of a pair.

    Row ``i`` holds ``x[starts[i] : starts[i] + sizes[i]]`` and the y
    samples ``delays[i]`` later, then pads up to ``M = sizes.max()`` that
    repeat the row's first sample -- the layout the kernels below read.
    Indices outside the series raise ``IndexError``.
    """
    width = int(sizes.max())
    cols = np.arange(width)
    index = starts[:, None] + cols
    if sizes.min() < width:
        index = np.where(cols < sizes[:, None], index, starts[:, None])
    rows = np.empty((2, starts.size, width))
    np.take(x, index, out=rows[0])
    index += delays[:, None]
    np.take(y, index, out=rows[1])
    return rows


def _layout(
    rows: FloatArray, sizes: Optional[IntArray]
) -> Tuple[IntArray, List[_Group], Optional[np.ndarray]]:
    """A batch's row sizes, its runs of equal size and its pad-slot mask.

    The mask is a bool ``(W, M)`` array, True on pad slots, or None when
    no row is padded.
    """
    _, w, width = rows.shape
    if sizes is None:
        return np.full(w, width), [(0, w, width)] if w else [], None
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.shape != (w,):
        raise ValueError(f"need one size per row, got {sizes.shape} for {w} rows")
    values = sizes.tolist()
    bounds = [0, *(i for i in range(1, w) if values[i] != values[i - 1]), w]
    if any(values[i] < values[i - 1] for i in bounds[1:-1]):
        raise ValueError("sizes must be sorted in non-decreasing order")
    if w and values[-1] > width:
        raise ValueError(f"a size of {values[-1]} exceeds the row width {width}")
    groups = [(a, b, values[a]) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    pads = None if not w or values[0] == width else np.arange(width) >= sizes[:, None]
    return sizes, groups, pads


def marginal_counts_many(values: FloatArray, radii: FloatArray) -> IntArray:
    """Row-wise :func:`repro.mi.neighbors.marginal_counts` of ``(..., m)`` arrays.

    Each count compares the row's values against the strip ends
    ``values - radii`` / ``values + radii`` with the same float
    comparisons as the per-row ``searchsorted``, so the counts are equal
    integers.  A ``+inf`` value lies in no finite strip, so pad slots
    holding ``+inf`` are never counted.  Two exact constructions, chosen
    by measured cost:

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
        inside = row >= lo[..., None]
        inside &= row <= hi[..., None]
        # Row sums of the 0/1 bytes as one matrix-vector product: exact
        # (at most 32 per row) and cheaper than a reduction of bools.
        counts = (inside.view(np.uint8) @ np.ones(values.shape[-1], np.uint8)).astype(np.intp)
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
        left = flat.searchsorted(ends[0].reshape(-1), side="left")
        counts = flat.searchsorted(ends[1].reshape(-1), side="right")
        counts -= left
        counts = counts.reshape(values.shape)
    counts -= 1  # exclude the point itself
    return np.maximum(counts, 0, out=counts)


def _knn_extents(xy: FloatArray, groups: List[_Group], ks: List[int]) -> FloatArray:
    """``(2, W, M)`` x/y extents of every real point's k-NN rectangle.

    Points are taken in blocks whose ``(W, block, M)`` distance rows hold
    at most :data:`CHUNK_ELEMENTS` elements (or one point per window when
    ``W * M`` exceeds it), so the distance passes stay cache-sized.  A
    block covers only the windows with a real point in it (the batch is
    sorted by size, so they are its last rows); pad slots keep finite
    placeholder extents.
    """
    _, w, width = xy.shape
    step = max(1, CHUNK_ELEMENTS // (w * width))
    if step >= width:
        return _knn_block(xy, list(zip(groups, ks)), 0, 0, width)
    extents = np.zeros((2, w, width))
    for lo in range(0, groups[-1][2], step):
        hi = min(lo + step, width)
        live = [(group, k) for group, k in zip(groups, ks) if group[2] > lo]
        first = live[0][0][0]
        extents[:, first:, lo:hi] = _knn_block(xy[:, first:], live, first, lo, hi)
    return extents


def _knn_block(
    xy: FloatArray, live: List[Tuple[_Group, int]], first: int, lo: int, hi: int
) -> FloatArray:
    """k-NN extents of points ``lo .. hi - 1`` of the windows in ``xy``.

    ``xy`` holds the batch's rows from ``first`` on; ``live`` their size
    groups (in batch rows) with each group's neighbor count.
    """
    _, w, width = xy.shape
    x, y = xy
    dist = np.subtract(x[:, lo:hi, None], x[:, None, :])
    np.abs(dist, out=dist)
    dy = np.subtract(y[:, lo:hi, None], y[:, None, :])
    np.abs(dy, out=dy)
    np.maximum(dist, dy, out=dist)
    del dy
    dist.reshape(w, -1)[:, lo :: width + 1] = np.inf  # each point's own column
    k_max = max(k for _, k in live)
    if len(live) == 1 and live[0][0][2] == width:
        neighbors = dist.argpartition(k_max - 1, axis=2)[:, :, :k_max]
    else:
        # Each size group partitions its windows' own (m, m) sub-block;
        # slots past a window's k repeat one of its k neighbors (the max
        # below ignores a repeat), pad points keep neighbor 0.
        neighbors = np.zeros((w, hi - lo, k_max), dtype=np.intp)
        for (a, b, m), k in live:
            top = min(hi, m) - lo
            part = dist[a - first : b - first, :top, :m].argpartition(k - 1, axis=2)[:, :, :k]
            neighbors[a - first : b - first, :top, :k] = part
            if k < k_max:
                neighbors[a - first : b - first, :top, k:] = part[:, :, :1]
    del dist
    # Neighbor-major (k, W, block) flat indices, so the max runs over
    # whole (W, block) slabs rather than along a short trailing axis.
    flat = neighbors.transpose(2, 0, 1) + (np.arange(w) * width)[:, None]
    near = xy.reshape(2, w * width).take(flat, axis=1)
    np.subtract(near, xy[:, None, :, lo:hi], out=near)
    np.abs(near, out=near)
    return near.max(axis=1)


def ksg_mi_many(xy: FloatArray, k: int, sizes: Optional[IntArray] = None) -> FloatArray:
    """KSG estimates of ``W`` windows, one per row.

    Args:
        xy: float64 sample rows, shape ``(2, W, M)``: ``xy[0, i]`` holds
            window ``i``'s x samples and ``xy[1, i]`` the paired y samples,
            padded as :func:`gather_rows` pads them.
        k: configured neighbor count; a window of ``m`` samples uses
            ``min(k, m - 1)``.
        sizes: each row's sample count, non-decreasing; None when every
            row holds ``M`` samples.

    Returns:
        ``(W,)`` float64 estimates, row ``i`` bit-identical to the
        per-window reference ``mi_from_geometry`` over
        ``chebyshev_knn_bruteforce(x_i, y_i, min(k, m - 1))`` on its
        ``sizes[i]`` real samples.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    _, groups, pads = _layout(xy, sizes)
    if not groups:
        return np.empty(0)
    if groups[0][2] < 2:
        raise ValueError(f"need at least 2 samples per window, got {groups[0][2]}")
    _, w, width = xy.shape
    ks = [min(k, m - 1) for _, _, m in groups]
    extents = _knn_extents(xy, groups, ks)
    values = xy
    if pads is not None:
        values = xy.copy()
        values[:, pads] = np.inf
    counts = marginal_counts_many(values, extents)
    counts -= 1  # psi(max(n, 1)) sits at index max(n - 1, 0)
    np.maximum(counts, 0, out=counts)
    # psi(i) for i = 1..M sits at index i - 1 (the DigammaTable layout).
    table = shared_digamma_table().prefix(width)
    psi = table[counts]
    psi_sum = psi[0] + psi[1]
    out = np.empty(w)
    for (a, b, m), group_k in zip(groups, ks):
        lead = float(table[group_k - 1]) - 1.0 / group_k
        out[a:b] = lead - psi_sum[a:b, :m].sum(axis=1) / m + float(table[m - 1])
    return out


def binned_joint_entropy_many(xy: FloatArray, sizes: Optional[IntArray] = None) -> FloatArray:
    """Binned joint entropies of ``W`` windows, one per row.

    ``xy`` and ``sizes`` are laid out as in :func:`ksg_mi_many`; row ``i``
    of the result is bit-identical to ``binned_joint_entropy(x_i, y_i)``
    on its real samples, with the default bin count of its size.
    """
    sizes, groups, pads = _layout(xy, sizes)
    if not groups:
        return np.empty(0)
    w = xy.shape[1]
    lo = xy.min(axis=2, keepdims=True)
    span = xy.max(axis=2, keepdims=True)
    span -= lo
    per_group = [default_bins(m) for _, _, m in groups]
    bins = np.repeat(per_group, [b - a for a, b, _ in groups])[:, None]
    cells = bins[:, 0] ** 2
    # bins / span; a constant row (span 0) divides by 1 and bins every
    # sample at index 0, as the scalar path does.
    scale = bins / (span + (span == 0))
    idx = ((xy - lo) * scale).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    offsets = np.cumsum(cells) - cells
    total = int(offsets[-1] + cells[-1])
    codes = idx[0] * bins
    codes += idx[1]
    codes += offsets[:, None]
    if pads is not None:
        codes[pads] = total  # a discarded cell past every window's bins
    counts = np.bincount(codes.reshape(-1), minlength=total + 1)[:total]
    occupied = counts > 0
    filled = np.diff(np.cumsum(occupied)[offsets + cells - 1], prepend=0)
    p = counts[occupied] / (groups[0][2] if pads is None else np.repeat(sizes, filled))
    terms = p * np.log(p)
    # Each row's terms are contiguous and in bin order.  Rows with equal
    # non-empty-bin counts are summed as one (rows, count) block: the
    # terms are laid out in the order of the rows sorted by that count.
    order = np.argsort(filled, kind="stable")
    ordered = filled[order]
    ends = np.cumsum(ordered)
    shift = (np.cumsum(filled) - filled)[order] - (ends - ordered)
    terms = terms[np.repeat(shift, ordered) + np.arange(ends[-1])]
    cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), w]
    sums = np.empty(w)
    for a, b in zip(cuts[:-1], cuts[1:]):
        length = int(ordered[a])
        first = int(ends[a]) - length
        sums[a:b] = terms[first : first + (b - a) * length].reshape(b - a, length).sum(axis=1)
    entropies = np.empty(w)
    entropies[order] = sums
    return -entropies
