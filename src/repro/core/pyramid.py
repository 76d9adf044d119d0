"""PAA resolution pyramids for coarse-to-fine search.

The paper's title promises *multi-scale* search, and the companion work
on synchronous correlation search (Ho et al., "A Unified Approach for
Multi-Scale Synchronous Correlation Search in Big Time Series") shows
that correlation structure discovered on *aggregated* series reliably
localizes where fine-resolution structure lives.  This module supplies
the aggregation half of that idea: piecewise-aggregate (PAA)
downsampling of a jittered pair into coarse levels, plus the **exact
coordinate mapping** that turns a coarse search hit back into a
full-resolution search region.

Every geometric claim the coarse-to-fine search (the ``coarse=F`` plan
of :mod:`repro.analysis.planner`) relies on reduces to one fact, the
**pyramid containment lemma**:

    Coarse cell ``i`` at factor ``f`` aggregates exactly the
    full-resolution samples ``[i * f, min(n, (i + 1) * f) - 1]``, so
    ``t -> t // f`` maps every full-resolution index into the unique
    coarse cell containing it.  Consequently, for any feasible
    full-resolution window ``w = ([t_s, t_e], tau)``:

    1. The coarse image interval ``[t_s // f, t_e // f]`` expands back
       (:func:`footprint`) to a full-resolution interval **containing**
       ``[t_s, t_e]``.
    2. Any coarse delay ``c`` with ``|c * f - tau| <= f - 1`` -- in
       particular ``round(tau / f)`` -- has ``tau`` inside its
       full-resolution delay band (:func:`delay_band`).

    *Proof.* (1) ``(t_s // f) * f <= t_s`` and
    ``t_e < (t_e // f + 1) * f``, by the definition of floor division.
    (2) is the definition of the band. ∎

Therefore a refinement cell built from the coarse image of ``w`` with
any non-negative margin (:func:`refinement_cell`) contains ``w``'s X
interval and delay outright; the margin only buys slack for the coarse
*search* locating the image inexactly.  The lemma is property-tested in
``tests/core/test_pyramid.py`` across factors and lengths not divisible
by the factor, mirroring the segment containment lemma of
:mod:`repro.core.segmentation`.

Downsampled pairs must be constructed **only** through this module
(:func:`build_level` / :func:`paa_downsample`); hand-rolled
reshape-and-mean pooling elsewhere is rejected by tycoslint rule TY008,
because an off-by-one in the pooling silently breaks every coordinate
mapping above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro._types import FloatArray
from repro.core.config import TycosConfig
from repro.core.window import PairView, TimeDelayWindow

__all__ = [
    "coarse_length",
    "paa_downsample",
    "PyramidLevel",
    "build_level",
    "build_pyramid",
    "cell_span",
    "footprint",
    "delay_band",
    "RefinementCell",
    "refinement_cell",
    "coarse_config",
]

#: Smallest coarse minimal-window length (in coarse samples) the coarse
#: pre-pass will search with.  Below ~12 samples the KSG estimator's
#: noise floor exceeds any usable relaxed threshold and the locator
#: degenerates into accepting noise everywhere.
_S_MIN_FLOOR = 12


def coarse_length(n: int, factor: int) -> int:
    """Number of coarse cells covering ``n`` samples at ``factor``.

    The last cell may be partial when ``n`` is not divisible by the
    factor; it still counts (its mean aggregates the tail samples).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return -(-n // factor)


def paa_downsample(values: FloatArray, factor: int) -> FloatArray:
    """Piecewise-aggregate approximation: exact block means.

    Cell ``i`` of the result is the arithmetic mean of
    ``values[i * factor : (i + 1) * factor]`` (the trailing cell
    averages only the samples that exist).  No interpolation, no
    smoothing kernel: the aggregation is the plain mean the PAA
    literature defines, so the coordinate mapping of this module is
    exact rather than approximate.

    Args:
        values: full-resolution samples.
        factor: samples per coarse cell; 1 returns a copy.

    Returns:
        A float64 array of :func:`coarse_length` block means.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    n = values.size
    m = coarse_length(n, factor)
    if factor == 1:
        return values.copy()
    out = np.empty(m, dtype=np.float64)
    full = n // factor
    if full:
        out[:full] = values[: full * factor].reshape(full, factor).mean(axis=1)
    if full < m:
        out[full] = values[full * factor :].mean()
    return out


@dataclass(frozen=True)
class PyramidLevel:
    """One resolution level of a pair's PAA pyramid.

    Attributes:
        factor: full-resolution samples aggregated per coarse cell.
        x: coarse first series (block means of the jittered original).
        y: coarse second series.
        base_n: length of the full-resolution pair the level was built
            from (needed to clip expanded footprints).
    """

    factor: int
    x: FloatArray
    y: FloatArray
    base_n: int

    @property
    def n(self) -> int:
        """Number of coarse cells at this level."""
        return int(self.x.size)


def build_level(pair: PairView, factor: int) -> PyramidLevel:
    """Downsample a (already jittered) pair into one coarse level.

    The sanctioned constructor of downsampled pairs (tycoslint TY008):
    both series pass through :func:`paa_downsample` with the same
    factor, so a coarse index means the same thing on both axes.
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    return PyramidLevel(
        factor=factor,
        x=paa_downsample(pair.x, factor),
        y=paa_downsample(pair.y, factor),
        base_n=pair.n,
    )


def build_pyramid(pair: PairView, factors: Sequence[int]) -> List[PyramidLevel]:
    """Build one :class:`PyramidLevel` per requested factor.

    Args:
        pair: the full-resolution pair (jitter already applied, so every
            level aggregates bit-identical base samples).
        factors: aggregation factors, typically increasing powers of two;
            duplicates and order are preserved as given.
    """
    return [build_level(pair, factor) for factor in factors]


def cell_span(index: int, factor: int, n: int) -> Tuple[int, int]:
    """Inclusive full-resolution sample range of coarse cell ``index``.

    Raises:
        ValueError: when the cell does not exist for a length-``n`` base.
    """
    if index < 0 or index >= coarse_length(n, factor):
        raise ValueError(f"cell {index} out of range for n={n}, factor={factor}")
    lo = index * factor
    hi = min(n, (index + 1) * factor) - 1
    return lo, hi


def footprint(window: TimeDelayWindow, factor: int, n: int) -> Tuple[int, int]:
    """Inclusive full-resolution X interval a coarse window's cells cover.

    By the pyramid containment lemma, the footprint of the coarse image
    of any full-resolution window contains that window's X interval.
    """
    lo, _ = cell_span(window.start, factor, n)
    _, hi = cell_span(window.end, factor, n)
    return lo, hi


def delay_band(
    coarse_delay: int, factor: int, td_max: int, margin: int = 0
) -> Tuple[int, int]:
    """Full-resolution delays whose coarse image is ``coarse_delay``.

    A full-resolution delay ``tau`` shifts the Y interval by ``tau``
    samples, which at factor ``f`` appears as a coarse shift of
    ``tau / f`` -- any coarse delay ``c`` with ``|c * f - tau| <= f - 1``
    is a faithful image.  The inverse is therefore the inclusive band
    ``[c * f - (f - 1), c * f + (f - 1)]``, widened by ``margin`` for
    coarse-search slack and clipped to the feasible ``[-td_max, td_max]``.

    Returns:
        ``(delay_lo, delay_hi)``; always non-empty for a feasible coarse
        delay (``|c| <= ceil(td_max / f)``), because clipping can at most
        pin the band to an endpoint of the feasible range.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    center = coarse_delay * factor
    lo = max(-td_max, center - (factor - 1) - margin)
    hi = min(td_max, center + (factor - 1) + margin)
    if lo > hi:
        raise ValueError(
            f"coarse delay {coarse_delay} at factor {factor} maps outside "
            f"|tau| <= {td_max}"
        )
    return lo, hi


@dataclass(frozen=True)
class RefinementCell:
    """A full-resolution search region distilled from one coarse window.

    Attributes:
        lo: first full-resolution index of the region (inclusive).
        hi: end of the region (exclusive, matching
            :data:`repro.core.segmentation.Span` convention).
        delay_lo: smallest full-resolution delay worth probing.
        delay_hi: largest full-resolution delay worth probing.
    """

    lo: int
    hi: int
    delay_lo: int
    delay_hi: int

    @property
    def span(self) -> Tuple[int, int]:
        """The region as a half-open ``(lo, hi)`` span."""
        return (self.lo, self.hi)

    def merge(self, other: "RefinementCell") -> "RefinementCell":
        """Union of two overlapping cells (region and delay band)."""
        return RefinementCell(
            lo=min(self.lo, other.lo),
            hi=max(self.hi, other.hi),
            delay_lo=min(self.delay_lo, other.delay_lo),
            delay_hi=max(self.delay_hi, other.delay_hi),
        )


def refinement_cell(
    window: TimeDelayWindow,
    factor: int,
    n: int,
    td_max: int,
    margin: int,
) -> RefinementCell:
    """The full-resolution ``(region, delay band)`` cell of a coarse hit.

    The region is the coarse window's exact :func:`footprint` expanded by
    ``margin`` samples on each side (clipped to ``[0, n)``); the delay
    band is :func:`delay_band` of the coarse delay with a slack of
    ``ceil(margin / factor)`` coarse-search steps.  With any
    ``margin >= 0`` the cell contains every full-resolution window whose
    coarse image is the given window (the pyramid containment lemma);
    the margin additionally absorbs the coarse LAHC settling a few cells
    or delay steps away from the true optimum.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    foot_lo, foot_hi = footprint(window, factor, n)
    lo = max(0, foot_lo - margin)
    hi = min(n, foot_hi + 1 + margin)
    slack = factor * math.ceil(margin / factor) if margin else 0
    d_lo, d_hi = delay_band(window.delay, factor, td_max, margin=slack)
    return RefinementCell(lo=lo, hi=hi, delay_lo=d_lo, delay_hi=d_hi)


def coarse_config(config: TycosConfig, factor: int) -> TycosConfig:
    """The search configuration of the coarse pre-pass at ``factor``.

    Window-geometry bounds scale down by the factor (floored so the KSG
    estimator stays defined: coarse ``s_min`` never drops below
    ``k + 2``), the delay bound scales to ``ceil(td_max / factor)`` so
    every feasible full-resolution delay keeps a coarse image, and the
    acceptance threshold relaxes to
    ``sigma * coarse_sigma_ratio`` because block-mean aggregation can
    only dilute mutual information (paper Theorem 6.1 applied to the
    averaging mixture) -- the coarse pass must locate structure, not
    grade it.  Jitter is zeroed (the level was built from the already
    jittered pair) and the significance gate is disabled (the
    full-resolution refinement re-applies it).
    """
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return config
    # Floor the coarse minimal window: the KSG noise floor on tiny
    # windows (< ~12 samples) sits above any usable relaxed threshold,
    # so letting s_min/factor collapse to k+2 would turn the locator
    # into a firehose of spurious cells.  Structure shorter than
    # ``_S_MIN_FLOOR * factor`` full-resolution samples is below this
    # pyramid level's resolution -- use a smaller factor for it.
    s_min_c = max(config.k + 2, min(_S_MIN_FLOOR, config.s_min), -(-config.s_min // factor))
    s_max_c = max(s_min_c, -(-config.s_max // factor) + 1)
    td_max_c = -(-config.td_max // factor)
    step = config.init_delay_step
    band_c = None
    if config.delay_band is not None:
        # Outward-rounded coarse image of the user's band: every full-
        # resolution delay tau in [lo, hi] has all its coarse images c
        # with |c * factor - tau| <= factor - 1 inside [lo_c, hi_c].
        lo, hi = config.delay_band
        band_c = (
            max(-td_max_c, (lo - factor + 1) // factor),
            min(td_max_c, -(-(hi + factor - 1) // factor)),
        )
    return config.scaled(
        sigma=config.sigma * config.coarse_sigma_ratio,
        s_min=s_min_c,
        s_max=s_max_c,
        td_max=td_max_c,
        jitter=0.0,
        significance_permutations=0,
        init_delay_step=None if step is None else max(1, -(-step // factor)),
        refine_margin=None,
        delay_band=band_c,
    )
