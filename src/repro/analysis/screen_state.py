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
  screen needs from that series alone: the zero-padded delay-band
  blocks with their rolling moments for the windowed-PCC scan, and the
  padded rfft spectrum, normalized query spectra and rolling window
  sigmas for the MASS probes.
* :func:`batched_screen_scores` screens a whole *block* of pairs in a
  few batched numpy kernels: one row-wise cumulative sum over the
  stacked band blocks (the cross moment is the only per-pair rolling
  sum left) and one batched irfft over the stacked spectra products.

Bit-exactness is the contract, not an aspiration: every arithmetic step
replays the reference's expressions on the reference's floats -- the
roll-sum recipe of :func:`repro.baselines.pearson.sliding_pcc_band`,
the distance conversion of
:func:`repro.baselines.mass.mass_distance_profile`, even the Python
scalar ``1.0 - float(d) ** 2 / (2.0 * m)`` tail -- and row-wise numpy
reductions (``cumsum(axis=1)``, ``irfft(axis=1)``) are per-row
identical to their 1-D forms, so every returned score is bit-identical
to ``fft_screen_score`` on the same pair (TY121 gate, asserted by the
tier-1 suite).  A
geometry the reference would abstain on (window < 2, series shorter
than the window) abstains here identically: every score is ``inf`` and
no pair is pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro._types import FloatArray
from repro.baselines.mass import mass_fft_size
from repro.baselines.pearson import roll_sum_rows

__all__ = [
    "ScreenGeometry",
    "SeriesScreenState",
    "build_screen_state",
    "build_screen_states",
    "batched_screen_scores",
    "screen_state_width",
    "pack_screen_state",
    "unpack_screen_state",
]


@dataclass(frozen=True)
class ScreenGeometry:
    """Shared shape parameters of one collection's stage-1 screen.

    Every series in a cascade collection shares a length, so the screen
    window, delay band and probe layout -- and everything derived from
    them -- are collection-wide constants.  Freezing them in one value
    keeps the state builder, the batched kernels and the on-disk cache
    (:meth:`repro.analysis.store.SeriesStore.screen_states`) in exact
    agreement about array shapes.

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

    def key(self) -> Tuple[int, int, int, int]:
        """Cache key of this geometry (see the store's screen cache)."""
        return (self.length, self.window, self.td_max, self.mass_probes)


@dataclass(frozen=True)
class SeriesScreenState:
    """Everything the stage-1 screen needs from one series alone.

    Both roles are precomputed because an all-pairs scan uses every
    series as the pair's ``x`` side (band block ``xs``, query spectra)
    and as its ``y`` side (band block ``ys``, series spectrum, rolling
    sigmas) about equally often.

    Attributes:
        xs: zero-padded x-side band block, shape ``(rows, n)``.
        ys: zero-padded y-side band block, shape ``(rows, n)``.
        sx: rolling window sums of ``xs``, shape ``(rows, out_width)``.
        sy: rolling window sums of ``ys``.
        px: clamped x variance term ``max(sxx - sx*sx/m, 0)``.
        py: clamped y variance term.
        spectrum: padded rfft of the series (MASS y side), ``(bins,)``.
        query_spectra: padded rfft of each reversed normalized query
            (MASS x side), shape ``(mass_probes, bins)``; zero rows for
            degenerate probes.
        query_degenerate: per-probe flag for zero-variance queries
            (their profile is the constant ``sqrt(2m)``).
        sigma: rolling window standard deviations of the series (MASS
            y side), shape ``(out_width,)``.
        sigma_ok: the reference's ``sigma > 1e-12`` validity mask.
        msig_safe: ``m * sigma`` with invalid entries replaced by 1.0,
            the safe divisor of the batched distance conversion.
    """

    xs: FloatArray
    ys: FloatArray
    sx: FloatArray
    sy: FloatArray
    px: FloatArray
    py: FloatArray
    spectrum: np.ndarray
    query_spectra: np.ndarray
    query_degenerate: np.ndarray
    sigma: FloatArray
    sigma_ok: np.ndarray
    msig_safe: FloatArray


def _empty_state(geometry: ScreenGeometry) -> SeriesScreenState:
    """The all-abstaining placeholder for unusable geometries."""
    empty = np.empty((0, 0))
    return SeriesScreenState(
        xs=empty, ys=empty, sx=empty, sy=empty, px=empty, py=empty,
        spectrum=np.empty(0, dtype=np.complex128),
        query_spectra=np.empty((0, 0), dtype=np.complex128),
        query_degenerate=np.empty(0, dtype=bool),
        sigma=np.empty(0), sigma_ok=np.empty(0, dtype=bool), msig_safe=np.empty(0),
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

    # -- windowed-PCC band blocks (sliding_pcc_band's construction) ---- #
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
        xs=xs, ys=ys, sx=sx, sy=sy, px=px, py=py,
        spectrum=spectrum, query_spectra=query_spectra,
        query_degenerate=query_degenerate,
        sigma=sigma, sigma_ok=sigma_ok, msig_safe=msig_safe,
    )


def build_screen_states(
    series: Dict[str, FloatArray], geometry: ScreenGeometry
) -> Dict[str, SeriesScreenState]:
    """Screen states for a whole collection, keyed like ``series``."""
    return {name: build_screen_state(values, geometry) for name, values in series.items()}


def _state_layout(geometry: ScreenGeometry) -> List[Tuple[str, int, int]]:
    """Field layout of one packed state row: (field, offset, float64 slots).

    Complex fields come first so their byte offsets are multiples of 16
    (rows are padded to an even slot count), letting a memory-mapped row
    be re-viewed as complex128 without a copy.  Bool fields travel as
    0.0/1.0 floats.
    """
    rows, n = geometry.rows, geometry.length
    out_w, probes, bins = geometry.out_width, geometry.mass_probes, geometry.spectrum_bins
    sizes = [
        ("spectrum", 2 * bins),
        ("query_spectra", probes * 2 * bins),
        ("xs", rows * n),
        ("ys", rows * n),
        ("sx", rows * out_w),
        ("sy", rows * out_w),
        ("px", rows * out_w),
        ("py", rows * out_w),
        ("sigma", out_w),
        ("msig_safe", out_w),
        ("sigma_ok", out_w),
        ("query_degenerate", probes),
    ]
    layout = []
    offset = 0
    for field_name, size in sizes:
        layout.append((field_name, offset, size))
        offset += size
    return layout


def screen_state_width(geometry: ScreenGeometry) -> int:
    """Float64 slots of one packed state row (padded to an even count)."""
    if geometry.abstains:
        return 0
    _, offset, size = _state_layout(geometry)[-1]
    total = offset + size
    return total + (total % 2)


def pack_screen_state(
    state: SeriesScreenState, geometry: ScreenGeometry, out: FloatArray
) -> None:
    """Flatten one state into a float64 row (the store cache's format).

    The packing is lossless: float64 fields are copied verbatim,
    complex fields as their real/imaginary float64 pairs, bool masks as
    0.0/1.0 -- so :func:`unpack_screen_state` reproduces every float of
    the in-memory state bit-for-bit.
    """
    if geometry.abstains:
        return
    for field_name, offset, size in _state_layout(geometry):
        value = getattr(state, field_name)
        if np.iscomplexobj(value):
            flat = np.ascontiguousarray(value).view(np.float64).ravel()
        else:
            flat = np.asarray(value, dtype=np.float64).ravel()
        out[offset : offset + size] = flat


def unpack_screen_state(row: FloatArray, geometry: ScreenGeometry) -> SeriesScreenState:
    """Rebuild a state from a packed row, zero-copy where possible.

    Float and complex fields are *views* of ``row`` (a memory-mapped
    cache row stays memory-mapped); only the two small bool masks are
    materialized.
    """
    if geometry.abstains:
        return _empty_state(geometry)
    rows, n = geometry.rows, geometry.length
    out_w, probes, bins = geometry.out_width, geometry.mass_probes, geometry.spectrum_bins
    fields: Dict[str, np.ndarray] = {}
    for field_name, offset, size in _state_layout(geometry):
        fields[field_name] = row[offset : offset + size]
    return SeriesScreenState(
        xs=fields["xs"].reshape(rows, n),
        ys=fields["ys"].reshape(rows, n),
        sx=fields["sx"].reshape(rows, out_w),
        sy=fields["sy"].reshape(rows, out_w),
        px=fields["px"].reshape(rows, out_w),
        py=fields["py"].reshape(rows, out_w),
        spectrum=fields["spectrum"].view(np.complex128),
        query_spectra=fields["query_spectra"].view(np.complex128).reshape(probes, bins),
        query_degenerate=fields["query_degenerate"] != 0.0,
        sigma=fields["sigma"],
        sigma_ok=fields["sigma_ok"] != 0.0,
        msig_safe=fields["msig_safe"],
    )


def batched_screen_scores(
    states: Sequence[SeriesScreenState],
    pair_indices: Sequence[Tuple[int, int]],
    geometry: ScreenGeometry,
) -> List[float]:
    """Stage-1 screen scores of a block of pairs, batched.

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
    n, m = geometry.length, geometry.window
    rows = geometry.rows
    out_w = geometry.out_width
    block = len(pair_indices)

    # -- windowed PCC: only the cross moment is per-pair --------------- #
    xs = np.concatenate([states[i].xs for i, _ in pair_indices])
    ys = np.concatenate([states[j].ys for _, j in pair_indices])
    sxy = roll_sum_rows(xs * ys, m)
    sx = np.concatenate([states[i].sx for i, _ in pair_indices])
    sy = np.concatenate([states[j].sy for _, j in pair_indices])
    px = np.concatenate([states[i].px for i, _ in pair_indices])
    py = np.concatenate([states[j].py for _, j in pair_indices])
    cov = sxy - sx * sy / m
    denom = np.sqrt(px * py)
    out = np.zeros_like(cov)
    ok = denom > 1e-12
    out[ok] = cov[ok] / denom[ok]
    out = np.clip(out, -1.0, 1.0)
    # Window positions past a band row's valid prefix cover zero padding
    # the reference never sees; mask them to the reference's 0.0 floor.
    valid = np.tile(geometry.valid_mask(), (block, 1))
    magnitude = np.where(valid, np.abs(out), 0.0)
    pcc_best = magnitude.reshape(block, rows * out_w).max(axis=1)

    # -- MASS probes: one batched irfft over all (pair, probe) rows ---- #
    probes = geometry.mass_probes
    if probes:
        bins = geometry.spectrum_bins
        products = np.empty((block, probes, bins), dtype=np.complex128)
        for b, (i, j) in enumerate(pair_indices):
            # Reference operand order: fft(series) * fft(query).
            products[b] = states[j].spectrum[None, :] * states[i].query_spectra
        qt = np.fft.irfft(products.reshape(block * probes, bins), geometry.fft_size, axis=1)
        qt = qt[:, m - 1 : n]
        ok_rows = np.repeat(
            np.stack([states[j].sigma_ok for _, j in pair_indices]), probes, axis=0
        )
        msig = np.repeat(
            np.stack([states[j].msig_safe for _, j in pair_indices]), probes, axis=0
        )
        dist_sq = np.where(ok_rows, 2.0 * m * (1.0 - qt / msig), 2.0 * m)
        profile = np.sqrt(np.maximum(dist_sq, 0.0))
        mins = profile.min(axis=1).reshape(block, probes)
        maxs = profile.max(axis=1).reshape(block, probes)
        flat = float(np.sqrt(2.0 * m))
        for b, (i, _) in enumerate(pair_indices):
            degenerate = states[i].query_degenerate
            if degenerate.any():
                mins[b, degenerate] = flat
                maxs[b, degenerate] = flat

    scores: List[float] = []
    for b in range(block):
        best = float(pcc_best[b])
        if probes:
            # The reference's Python-scalar tail, probe by probe; max()
            # ignores NaN exactly as the per-pair accumulation does.
            for p in range(probes):
                r_hi = 1.0 - float(mins[b, p]) ** 2 / (2.0 * m)
                r_lo = 1.0 - float(maxs[b, p]) ** 2 / (2.0 * m)
                best = max(best, abs(r_hi), abs(r_lo))
        scores.append(best)
    return scores
