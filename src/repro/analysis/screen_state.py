"""Collection-level batched stage-1 screening (the cascade's fast path).

The per-pair screen :func:`repro.analysis.cascade.fft_screen_score`
rebuilds both series' FFT spectra, rolling moments and normalized MASS
queries for *every* pair, so across an all-pairs scan each series' O(n)
state is recomputed O(N) times -- pure quadratic waste, since none of
it depends on the partner series.  This module hoists the per-series
work out of the pair loop, MASS-style (one series FFT reused across
every query it will ever meet):

* :class:`ScreenGeometry` freezes the shared shape of one collection's
  screen -- series length, window, delay band -- so every derived
  quantity (padded FFT size, band slice lengths, probe positions) is
  computed once and agreed on by builders and kernels.
* :func:`build_screen_state` precomputes, per series, everything the
  screen needs from that series alone: the rolling moments of its first
  ``td_max + 1`` suffixes for the windowed-PCC scan, and the padded
  rfft spectrum, normalized query spectra and rolling window sigmas for
  the :data:`MASS_PROBES` MASS probes.
* :func:`batched_screen_scores` screens any number of pairs in tiles
  whose slabs hold at most :data:`TILE_ELEMENTS` floats: per tile, one
  row-wise cumulative sum over the pairs' band rows of the cross
  product (the only per-pair rolling sum; its rows are sliced from the
  series) and one batched irfft over the stacked spectra products.  A
  tile holds the negative or the non-negative delays of several pairs,
  or some of those rows of one pair when a single pair's half band does
  not fit; a running maximum over row tiles gives the band maximum
  exactly.

One suffix row serves every delay.  The band row at delay ``d`` pairs
``x[max(0, -d):]`` with ``y[max(0, d):]``, zero-padded, so over its
valid prefix the x side's moments are those of suffix ``max(0, -d)`` and
the y side's those of suffix ``max(0, d)``; only the cross moment needs
both series.  Within one half of the band, one side of every row is
suffix 0, which a tile broadcasts instead of copying.

Peak memory is therefore the tile's (a fixed multiple of
``8 * TILE_ELEMENTS`` bytes, whatever the pair count or delay band)
plus the states themselves: about ``2 * (td_max + 1) * (n - m + 1)``
floats per series, plus its spectra.

Bit-exactness is the contract, not an aspiration: every arithmetic step
replays the reference's expressions on the reference's floats -- the
roll-sum recipe of :func:`repro.baselines.pearson.sliding_pcc_band`,
the distance conversion of
:func:`repro.baselines.mass.mass_distance_profile`, even the Python
scalar ``1.0 - float(d) ** 2 / (2.0 * m)`` tail -- and row-wise numpy
reductions (``cumsum(axis=1)``, ``irfft(axis=1)``) are per-row
identical to their 1-D forms, so every returned score is bit-identical
to ``fft_screen_score`` on the same pair at every tile shape (TY121
gate, asserted by the tier-1 suite).  Where the reference abstains,
this module abstains identically with an ``inf`` score: on a geometry
no window fits (window < 2, series shorter than the window), and on a
pair touching a series that holds a NaN or an ``inf``, which the search
rejects anyway and which no tile ever reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._types import FloatArray
from repro.baselines.mass import mass_fft_size
from repro.baselines.pearson import roll_sum_rows

__all__ = [
    "MASS_PROBES",
    "TILE_ELEMENTS",
    "ScreenGeometry",
    "SeriesScreenState",
    "build_screen_state",
    "build_screen_states",
    "batched_screen_scores",
]

#: MASS query positions per pair, evenly spaced along the ``x`` series.
MASS_PROBES = 3

#: Float64 elements of one stage-1 tile's slab (512 KiB): the ``pairs x
#: rows x n`` cross-product rows of the windowed-PCC scan and the ``pairs
#: x probes x fft_size`` irfft rows of the MASS probes each stay at or
#: under it, unless one band row or one pair's probes alone exceed it.
#: Measured per pair on a 2-vCPU host (all pairs of 6-40 random walks,
#: n = 300-4000, td_max = 8-160, two sets of seven alternating runs),
#: 2**16 was the fastest budget, or within 9% of 2**15 at td_max >= 50;
#: 2**17 and 2**18 ran up to 2.4x slower once a tile's temporaries
#: outgrew the 2 MiB L2 cache.  2**16 took 17-62% less time per pair
#: than scoring each 256-pair block as one slab.
TILE_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ScreenGeometry:
    """Shared shape parameters of one collection's stage-1 screen.

    Every series in a cascade collection shares a length, so the screen
    window, delay band and probe layout -- and everything derived from
    them -- are collection-wide constants.  Freezing them in one value
    keeps the state builder and the batched kernels in exact agreement
    about array shapes.

    Attributes:
        length: shared series length ``n``.
        window: screen window size ``m``.
        td_max: largest |delay| of the PCC band.
    """

    length: int
    window: int
    td_max: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.td_max < 0:
            raise ValueError(f"td_max must be >= 0, got {self.td_max}")

    @property
    def abstains(self) -> bool:
        """Whether the reference screen can produce no evidence here.

        ``fft_screen_score`` raises on ``window < 2`` (the caller's
        try/except abstains) and returns ``inf`` when no window fits;
        both cases map to all-``inf`` batched scores.
        """
        return self.window < 2 or self.length < self.window

    @property
    def band(self) -> List[int]:
        """The PCC delay band ``[-td_max, td_max]``, reference order."""
        return list(range(-self.td_max, self.td_max + 1))

    @property
    def rows(self) -> int:
        """Rows of the band block (one per delay)."""
        return 2 * self.td_max + 1

    @property
    def out_width(self) -> int:
        """Window positions at delay 0: ``n - m + 1`` (requires no abstain)."""
        return self.length - self.window + 1

    @property
    def fft_size(self) -> int:
        """Padded rfft size of the MASS convolution (power of two)."""
        return mass_fft_size(self.length, self.window)

    @property
    def spectrum_bins(self) -> int:
        """Complex bins of an rfft at :attr:`fft_size`."""
        return self.fft_size // 2 + 1

    def band_lengths(self) -> List[int]:
        """Valid sample count of each band row (reference ``lengths``)."""
        n = self.length
        return [max(0, min(n, n - d) - max(0, -d)) for d in self.band]

    def band_out_lengths(self) -> List[int]:
        """Valid window positions of each band row (reference trim)."""
        return [max(0, length - self.window + 1) for length in self.band_lengths()]

    def valid_mask(self) -> np.ndarray:
        """Bool ``(rows, out_width)`` mask of in-range window positions.

        Positions past a row's ``out_length`` cover zero padding; the
        reference trims them away, the batched kernel masks them out.
        """
        mask = np.zeros((self.rows, self.out_width), dtype=bool)
        for j, out_length in enumerate(self.band_out_lengths()):
            mask[j, :out_length] = True
        return mask

    def probe_positions(self) -> np.ndarray:
        """MASS query start positions, the reference's ``linspace`` grid."""
        return np.linspace(0, self.length - self.window, MASS_PROBES).astype(int)


@dataclass(frozen=True)
class SeriesScreenState:
    """Everything the stage-1 screen needs from one series alone.

    Both roles read the same arrays, because an all-pairs scan uses
    every series as the pair's ``x`` side (suffix moments, query
    spectra) and as its ``y`` side (suffix moments, series spectrum,
    rolling sigmas) about equally often.  The band rows themselves are
    not kept: a tile slices them from ``values``.

    Attributes:
        values: the series, shape ``(n,)``.
        sums: rolling window sums of each suffix ``values[s:]``,
            zero-padded to ``n``, for ``s`` in ``0 .. td_max``; shape
            ``(td_max + 1, out_width)``.  The band row at delay ``d``
            reads its x side from row ``max(0, -d)`` and its y side
            from row ``max(0, d)``.
        spread: the clamped variance term ``max(ss - sums**2 / m, 0)``
            of the same rows, ``ss`` being the rolling sums of squares.
        spectrum: padded rfft of the series (MASS y side), ``(bins,)``.
        query_spectra: padded rfft of each reversed normalized query
            (MASS x side), shape ``(MASS_PROBES, bins)``; zero rows for
            degenerate probes.
        query_degenerate: per-probe flag for zero-variance queries
            (their profile is the constant ``sqrt(2m)``).
        sigma_ok: the reference's ``sigma > 1e-12`` validity mask of the
            rolling window standard deviations (MASS y side), shape
            ``(out_width,)``.
        msig_safe: ``m * sigma`` with invalid entries replaced by 1.0,
            the safe divisor of the batched distance conversion.

    Every array is empty when the screen abstains on the series (see
    :attr:`abstains`).
    """

    values: FloatArray
    sums: FloatArray
    spread: FloatArray
    spectrum: np.ndarray
    query_spectra: np.ndarray
    query_degenerate: np.ndarray
    sigma_ok: np.ndarray
    msig_safe: FloatArray

    @property
    def abstains(self) -> bool:
        """Whether every pair touching this series scores ``inf``."""
        return self.values.size == 0


def _empty_state() -> SeriesScreenState:
    """The all-abstaining placeholder (unusable geometry or series)."""
    empty = np.empty((0, 0))
    return SeriesScreenState(
        values=np.empty(0), sums=empty, spread=empty,
        spectrum=np.empty(0, dtype=np.complex128),
        query_spectra=np.empty((0, 0), dtype=np.complex128),
        query_degenerate=np.empty(0, dtype=bool),
        sigma_ok=np.empty(0, dtype=bool), msig_safe=np.empty(0),
    )


def build_screen_state(values: FloatArray, geometry: ScreenGeometry) -> SeriesScreenState:
    """Precompute one series' screen state (both pair roles).

    Every array is produced by the reference implementations'
    own expressions on the same float64 inputs, so any pair state
    assembled from two of these states reproduces the per-pair screen
    bit-for-bit.

    Args:
        values: the series, length ``geometry.length``.
        geometry: the collection's screen geometry.

    Returns:
        The series' :class:`SeriesScreenState`: the abstaining empty
        placeholder when the geometry abstains or the series holds a
        NaN or an ``inf``.
    """
    series = np.asarray(values, dtype=np.float64).ravel()
    if series.size != geometry.length:
        raise ValueError(
            f"series length {series.size} does not match geometry length {geometry.length}"
        )
    if geometry.abstains or not np.isfinite(series).all():
        return _empty_state()
    n, m = geometry.length, geometry.window

    # -- windowed-PCC suffix moments (sliding_pcc_band's construction) - #
    suffixes = np.zeros((geometry.td_max + 1, n))
    for s in range(min(geometry.td_max + 1, n)):
        suffixes[s, : n - s] = series[s:]
    sums = roll_sum_rows(suffixes, m)
    squares = roll_sum_rows(suffixes * suffixes, m)
    spread = np.maximum(squares - sums * sums / m, 0.0)

    # -- MASS series side: mass_distance_profile's rolling stats, whose
    # window sums are exactly the whole-series (suffix 0) row's. ------- #
    size = geometry.fft_size
    spectrum = np.fft.rfft(series, size)
    mu = sums[0] / m
    var = np.maximum(squares[0] / m - mu * mu, 0.0)
    sigma = np.sqrt(var)
    sigma_ok = sigma > 1e-12
    msig_safe = np.where(sigma_ok, m * sigma, 1.0)

    # -- MASS query side: one spectrum per probe position -------------- #
    query_spectra = np.zeros((MASS_PROBES, geometry.spectrum_bins), dtype=np.complex128)
    query_degenerate = np.zeros(MASS_PROBES, dtype=bool)
    for p, s in enumerate(geometry.probe_positions()):
        query = series[s : s + m]
        sigma_q = query.std()
        if sigma_q == 0.0:
            # The reference short-circuits to the constant sqrt(2m)
            # profile before normalizing, so no spectrum is needed.
            query_degenerate[p] = True
            continue
        q_norm = (query - query.mean()) / sigma_q
        query_spectra[p] = np.fft.rfft(q_norm[::-1], size)

    return SeriesScreenState(
        values=series, sums=sums, spread=spread,
        spectrum=spectrum, query_spectra=query_spectra,
        query_degenerate=query_degenerate,
        sigma_ok=sigma_ok, msig_safe=msig_safe,
    )


def build_screen_states(
    series: Dict[str, FloatArray], geometry: ScreenGeometry
) -> Dict[str, SeriesScreenState]:
    """Screen states for a whole collection, keyed like ``series``."""
    return {name: build_screen_state(values, geometry) for name, values in series.items()}


def _tile_shape(geometry: ScreenGeometry) -> Tuple[int, int]:
    """``(pairs, rows)`` of one tile under :data:`TILE_ELEMENTS`.

    A tile's delay rows never straddle delay 0, so it holds at most
    ``td_max + 1`` of them; rows are split further only when one pair's
    half band does not fit, so a tile holds either the half bands of
    several pairs or some rows of one.
    """
    n = geometry.length
    rows = max(1, min(geometry.td_max + 1, TILE_ELEMENTS // n))
    per_pair = max(rows * n, MASS_PROBES * geometry.fft_size)
    return max(1, TILE_ELEMENTS // per_pair), rows


def _pcc_best(
    states: Sequence[SeriesScreenState],
    tile: Sequence[Tuple[int, int]],
    geometry: ScreenGeometry,
    row_tile: int,
    valid: np.ndarray,
) -> FloatArray:
    """Best in-range windowed |PCC| of each pair of ``tile`` over the band.

    The band is walked ``row_tile`` delay rows at a time, the negative
    delays and the rest (from band row ``td_max``, delay 0) separately;
    ``max`` is exact, so the running maximum equals one maximum over
    every row.
    """
    n, m, td_max = geometry.length, geometry.window, geometry.td_max
    band = geometry.band
    lengths = geometry.band_lengths()
    pairs = len(tile)
    x = np.stack([states[i].values for i, _ in tile])
    y = np.stack([states[j].values for _, j in tile])
    best = np.zeros(pairs)
    row_tiles = [
        (first, min(first + row_tile, end))
        for start, end in ((0, td_max), (td_max, geometry.rows))
        for first in range(start, end, row_tile)
    ]
    for first, stop in row_tiles:
        rows = slice(first, stop)
        count = stop - first
        # The cross moment is the only per-pair rolling sum.  Each row is
        # the product of the pair's aligned slices, zero-padded like
        # sliding_pcc_band's block; the padding never enters a valid prefix.
        xy = np.zeros((pairs, count, n))
        for k, d in enumerate(band[rows]):
            lo, length = max(0, -d), lengths[first + k]
            np.multiply(
                x[:, lo : lo + length], y[:, lo + d : lo + d + length], out=xy[:, k, :length]
            )
        sxy = roll_sum_rows(xy.reshape(pairs * count, n), m).reshape(pairs, count, -1)
        # Band row d reads its x side from suffix max(0, -d) and its y side
        # from suffix max(0, d): within a tile one side runs over suffix
        # rows and the other is suffix 0, broadcast.
        d_lo, d_hi = band[first], band[stop - 1]
        if d_lo < 0:
            x_rows, y_rows = slice(-d_lo, -d_hi - 1, -1), slice(0, 1)
        else:
            x_rows, y_rows = slice(0, 1), slice(d_lo, d_hi + 1)
        sx = np.stack([states[i].sums[x_rows] for i, _ in tile])
        sy = np.stack([states[j].sums[y_rows] for _, j in tile])
        px = np.stack([states[i].spread[x_rows] for i, _ in tile])
        py = np.stack([states[j].spread[y_rows] for _, j in tile])
        # sliding_pcc_band's expressions, evaluated in place: the cross
        # moment's rolling sums become the covariance, the product of
        # the variance terms the denominator.
        sxy -= sx * sy / m
        denom = px * py
        np.sqrt(denom, out=denom)
        # Window positions past a band row's valid prefix cover zero
        # padding the reference never sees; they keep its 0.0 floor.
        r = np.zeros_like(sxy)
        np.divide(sxy, denom, out=r, where=(denom > 1e-12) & valid[rows])
        np.clip(r, -1.0, 1.0, out=r)
        np.abs(r, out=r)
        np.maximum(best, r.reshape(pairs, -1).max(axis=1), out=best)
    return best


def _mass_extremes(
    states: Sequence[SeriesScreenState],
    tile: Sequence[Tuple[int, int]],
    geometry: ScreenGeometry,
) -> Tuple[FloatArray, FloatArray]:
    """``(pairs, probes)`` min and max MASS distances of each pair of ``tile``."""
    n, m = geometry.length, geometry.window
    bins = geometry.spectrum_bins
    pairs = len(tile)
    products = np.empty((pairs, MASS_PROBES, bins), dtype=np.complex128)
    for b, (i, j) in enumerate(tile):
        # Reference operand order: fft(series) * fft(query).
        products[b] = states[j].spectrum[None, :] * states[i].query_spectra
    qt = np.fft.irfft(products.reshape(pairs * MASS_PROBES, bins), geometry.fft_size, axis=1)
    qt = qt[:, m - 1 : n].reshape(pairs, MASS_PROBES, -1)
    ok = np.stack([states[j].sigma_ok for _, j in tile])[:, None, :]
    msig = np.stack([states[j].msig_safe for _, j in tile])[:, None, :]
    dist_sq = np.where(ok, 2.0 * m * (1.0 - qt / msig), 2.0 * m)
    profile = np.sqrt(np.maximum(dist_sq, 0.0))
    mins = profile.min(axis=2)
    maxs = profile.max(axis=2)
    flat = float(np.sqrt(2.0 * m))
    for b, (i, _) in enumerate(tile):
        degenerate = states[i].query_degenerate
        if degenerate.any():
            mins[b, degenerate] = flat
            maxs[b, degenerate] = flat
    return mins, maxs


def batched_screen_scores(
    states: Sequence[SeriesScreenState],
    pair_indices: Sequence[Tuple[int, int]],
    geometry: ScreenGeometry,
) -> List[float]:
    """Stage-1 screen scores of any number of pairs, in bounded tiles.

    Args:
        states: per-series screen states (any indexable collection).
        pair_indices: ``(i, j)`` index pairs into ``states``; series
            ``i`` plays the reference's ``x`` role, ``j`` its ``y``.
        geometry: the geometry all states were built with.

    Returns:
        One score per pair, in input order, each bit-identical to
        ``fft_screen_score(series_i, series_j, geometry.window,
        geometry.td_max)`` -- including the ``inf`` abstention when the
        geometry fits no window or either series is not finite.
    """
    if geometry.abstains:
        return [float("inf")] * len(pair_indices)
    usable = [not (states[i].abstains or states[j].abstains) for i, j in pair_indices]
    live = [pair for pair, ok in zip(pair_indices, usable) if ok]
    m = geometry.window
    pair_tile, row_tile = _tile_shape(geometry)
    valid = geometry.valid_mask()
    scores: List[float] = []
    for start in range(0, len(live), pair_tile):
        tile = live[start : start + pair_tile]
        pcc_best = _pcc_best(states, tile, geometry, row_tile, valid)
        mins, maxs = _mass_extremes(states, tile, geometry)
        for b in range(len(tile)):
            best = float(pcc_best[b])
            # The reference's Python-scalar tail, probe by probe; max()
            # ignores NaN exactly as the per-pair accumulation does.
            for p in range(MASS_PROBES):
                r_hi = 1.0 - float(mins[b, p]) ** 2 / (2.0 * m)
                r_lo = 1.0 - float(maxs[b, p]) ** 2 / (2.0 * m)
                best = max(best, abs(r_hi), abs(r_lo))
            scores.append(best)
    live_scores = iter(scores)
    return [next(live_scores) if ok else float("inf") for ok in usable]
