"""Collection-level batched stage-1 screening (the cascade's fast path).

The per-pair screen :func:`repro.analysis.cascade.fft_screen_score`
rebuilds both series' FFT spectra, rolling moments and normalized MASS
queries for *every* pair, so across an all-pairs scan each series' O(n)
state is recomputed O(N) times -- pure quadratic waste, since none of
it depends on the partner series.  This module hoists the per-series
work out of the pair loop, MASS-style (one series FFT reused across
every query it will ever meet):

* :class:`ScreenGeometry` freezes the shared shape of one collection's
  screen -- series length, window, delay band, probe count -- so every
  derived quantity (padded FFT size, band slice lengths, probe
  positions) is computed once and agreed on by builders and kernels.
* :func:`build_screen_state` precomputes, per series, everything the
  screen needs from that series alone: the rolling moments of its
  delay-band rows for the windowed-PCC scan, and the padded rfft
  spectrum, normalized query spectra and rolling window sigmas for the
  MASS probes.
* :func:`batched_screen_scores` screens any number of pairs in tiles
  whose slabs hold at most :data:`TILE_ELEMENTS` floats: per tile, one
  row-wise cumulative sum over the pairs' band rows of the cross
  product (the only per-pair rolling sum; its rows are sliced from the
  series) and one batched irfft over the stacked spectra products.  A
  tile holds several whole pairs, or some delay rows of one pair when a
  single pair's band does not fit; a running maximum over row tiles
  gives the band maximum exactly.

Peak memory is therefore the tile's (a fixed multiple of
``8 * TILE_ELEMENTS`` bytes, whatever the pair count or delay band)
plus the states themselves: about ``4 * (2 * td_max + 1) * (n - m + 1)``
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
gate, asserted by the tier-1 suite).  A geometry the reference would
abstain on (window < 2, series shorter than the window) abstains here
identically: every score is ``inf`` and no pair is pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._types import FloatArray
from repro.baselines.mass import mass_fft_size
from repro.baselines.pearson import roll_sum_rows

__all__ = [
    "TILE_ELEMENTS",
    "ScreenGeometry",
    "SeriesScreenState",
    "build_screen_state",
    "build_screen_states",
    "batched_screen_scores",
]

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
        mass_probes: number of MASS query positions (evenly spaced).
    """

    length: int
    window: int
    td_max: int
    mass_probes: int = 3

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.td_max < 0:
            raise ValueError(f"td_max must be >= 0, got {self.td_max}")
        if self.mass_probes < 0:
            raise ValueError(f"mass_probes must be >= 0, got {self.mass_probes}")

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
        return np.linspace(0, self.length - self.window, self.mass_probes).astype(int)


@dataclass(frozen=True)
class SeriesScreenState:
    """Everything the stage-1 screen needs from one series alone.

    Both roles are precomputed because an all-pairs scan uses every
    series as the pair's ``x`` side (band moments ``sx``/``px``, query
    spectra) and as its ``y`` side (band moments ``sy``/``py``, series
    spectrum, rolling sigmas) about equally often.  The band rows
    themselves are not kept: a tile slices them from ``values``.

    Attributes:
        values: the series, shape ``(n,)``.
        sx: rolling window sums of the x-side band rows, shape
            ``(rows, out_width)``; row ``j`` covers the samples
            ``sliding_pcc_band`` pairs at delay ``band[j]``.
        sy: rolling window sums of the y-side band rows.
        px: clamped x variance term ``max(sxx - sx*sx/m, 0)``.
        py: clamped y variance term.
        spectrum: padded rfft of the series (MASS y side), ``(bins,)``.
        query_spectra: padded rfft of each reversed normalized query
            (MASS x side), shape ``(mass_probes, bins)``; zero rows for
            degenerate probes.
        query_degenerate: per-probe flag for zero-variance queries
            (their profile is the constant ``sqrt(2m)``).
        sigma_ok: the reference's ``sigma > 1e-12`` validity mask of the
            rolling window standard deviations (MASS y side), shape
            ``(out_width,)``.
        msig_safe: ``m * sigma`` with invalid entries replaced by 1.0,
            the safe divisor of the batched distance conversion.
    """

    values: FloatArray
    sx: FloatArray
    sy: FloatArray
    px: FloatArray
    py: FloatArray
    spectrum: np.ndarray
    query_spectra: np.ndarray
    query_degenerate: np.ndarray
    sigma_ok: np.ndarray
    msig_safe: FloatArray


def _empty_state(geometry: ScreenGeometry) -> SeriesScreenState:
    """The all-abstaining placeholder for unusable geometries."""
    empty = np.empty((0, 0))
    return SeriesScreenState(
        values=np.empty(0), sx=empty, sy=empty, px=empty, py=empty,
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
        The series' :class:`SeriesScreenState` (empty placeholders when
        the geometry abstains).
    """
    series = np.asarray(values, dtype=np.float64).ravel()
    if series.size != geometry.length:
        raise ValueError(
            f"series length {series.size} does not match geometry length {geometry.length}"
        )
    if geometry.abstains:
        return _empty_state(geometry)
    n, m = geometry.length, geometry.window

    # -- windowed-PCC band moments (sliding_pcc_band's construction) --- #
    rows = geometry.rows
    lengths = geometry.band_lengths()
    xs = np.zeros((rows, n))
    ys = np.zeros((rows, n))
    for j, d in enumerate(geometry.band):
        lo = max(0, -d)
        length = lengths[j]
        if length:
            xs[j, :length] = series[lo : lo + length]
            ys[j, :length] = series[lo + d : lo + d + length]
    sx = roll_sum_rows(xs, m)
    sxx = roll_sum_rows(xs * xs, m)
    px = np.maximum(sxx - sx * sx / m, 0.0)
    sy = roll_sum_rows(ys, m)
    syy = roll_sum_rows(ys * ys, m)
    py = np.maximum(syy - sy * sy / m, 0.0)

    # -- MASS series side (mass_distance_profile's rolling stats) ------ #
    size = geometry.fft_size
    spectrum = np.fft.rfft(series, size)
    cumsum = np.concatenate([[0.0], np.cumsum(series)])
    cumsum2 = np.concatenate([[0.0], np.cumsum(series * series)])
    seg_sum = cumsum[m:] - cumsum[:-m]
    seg_sum2 = cumsum2[m:] - cumsum2[:-m]
    mu = seg_sum / m
    var = np.maximum(seg_sum2 / m - mu * mu, 0.0)
    sigma = np.sqrt(var)
    sigma_ok = sigma > 1e-12
    msig_safe = np.where(sigma_ok, m * sigma, 1.0)

    # -- MASS query side: one spectrum per probe position -------------- #
    probes = geometry.probe_positions()
    query_spectra = np.zeros((geometry.mass_probes, geometry.spectrum_bins), dtype=np.complex128)
    query_degenerate = np.zeros(geometry.mass_probes, dtype=bool)
    for p, s in enumerate(probes):
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
        values=series, sx=sx, sy=sy, px=px, py=py,
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

    Delay rows are split only when one pair's band does not fit, so a
    tile holds either whole bands of several pairs or some rows of one.
    """
    n = geometry.length
    rows = max(1, min(geometry.rows, TILE_ELEMENTS // n))
    per_pair = max(rows * n, geometry.mass_probes * geometry.fft_size)
    return max(1, TILE_ELEMENTS // per_pair), rows


def _pcc_best(
    states: Sequence[SeriesScreenState],
    tile: Sequence[Tuple[int, int]],
    geometry: ScreenGeometry,
    row_tile: int,
    valid: np.ndarray,
) -> FloatArray:
    """Best in-range windowed |PCC| of each pair of ``tile`` over the band.

    The band is walked ``row_tile`` delay rows at a time; ``max`` is
    exact, so the running maximum equals one maximum over every row.
    """
    n, m = geometry.length, geometry.window
    band = geometry.band
    lengths = geometry.band_lengths()
    pairs = len(tile)
    x = np.stack([states[i].values for i, _ in tile])
    y = np.stack([states[j].values for _, j in tile])
    best = np.zeros(pairs)
    for first in range(0, geometry.rows, row_tile):
        rows = slice(first, min(first + row_tile, geometry.rows))
        count = rows.stop - first
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
        sx = np.stack([states[i].sx[rows] for i, _ in tile])
        sy = np.stack([states[j].sy[rows] for _, j in tile])
        px = np.stack([states[i].px[rows] for i, _ in tile])
        py = np.stack([states[j].py[rows] for _, j in tile])
        cov = sxy - sx * sy / m
        denom = np.sqrt(px * py)
        out = np.zeros_like(cov)
        np.divide(cov, denom, out=out, where=denom > 1e-12)
        out = np.clip(out, -1.0, 1.0)
        # Window positions past a band row's valid prefix cover zero
        # padding the reference never sees; mask them to its 0.0 floor.
        magnitude = np.where(valid[rows], np.abs(out), 0.0)
        np.maximum(best, magnitude.reshape(pairs, -1).max(axis=1), out=best)
    return best


def _mass_extremes(
    states: Sequence[SeriesScreenState],
    tile: Sequence[Tuple[int, int]],
    geometry: ScreenGeometry,
) -> Tuple[FloatArray, FloatArray]:
    """``(pairs, probes)`` min and max MASS distances of each pair of ``tile``."""
    n, m = geometry.length, geometry.window
    probes, bins = geometry.mass_probes, geometry.spectrum_bins
    pairs = len(tile)
    products = np.empty((pairs, probes, bins), dtype=np.complex128)
    for b, (i, j) in enumerate(tile):
        # Reference operand order: fft(series) * fft(query).
        products[b] = states[j].spectrum[None, :] * states[i].query_spectra
    qt = np.fft.irfft(products.reshape(pairs * probes, bins), geometry.fft_size, axis=1)
    qt = qt[:, m - 1 : n].reshape(pairs, probes, -1)
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
        geometry.td_max, geometry.mass_probes)`` -- including the
        ``inf`` abstention when the geometry fits no window.
    """
    if geometry.abstains or not pair_indices:
        return [float("inf")] * len(pair_indices)
    m = geometry.window
    probes = geometry.mass_probes
    pair_tile, row_tile = _tile_shape(geometry)
    valid = geometry.valid_mask()
    scores: List[float] = []
    for start in range(0, len(pair_indices), pair_tile):
        tile = pair_indices[start : start + pair_tile]
        pcc_best = _pcc_best(states, tile, geometry, row_tile, valid)
        if probes:
            mins, maxs = _mass_extremes(states, tile, geometry)
        for b in range(len(tile)):
            best = float(pcc_best[b])
            # The reference's Python-scalar tail, probe by probe; max()
            # ignores NaN exactly as the per-pair accumulation does.
            for p in range(probes):
                r_hi = 1.0 - float(mins[b, p]) ** 2 / (2.0 * m)
                r_lo = 1.0 - float(maxs[b, p]) ** 2 / (2.0 * m)
                best = max(best, abs(r_hi), abs(r_lo))
            scores.append(best)
    return scores
