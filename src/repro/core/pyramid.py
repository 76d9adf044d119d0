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
    2. The coarse delay ``c = round(tau / f)`` is a faithful image of
       ``tau`` (``|c * f - tau| <= f - 1``) inside the coarse pass's
       delay bound ``ceil(td_max / f)`` (:func:`coarse_config`).

    *Proof.* (1) ``(t_s // f) * f <= t_s`` and
    ``t_e < (t_e // f + 1) * f``, by the definition of floor division.
    (2) ``|c * f - tau| <= f / 2`` and
    ``|c| <= round(td_max / f) <= ceil(td_max / f)``. ∎

Therefore a refinement cell built from the coarse image of ``w`` with
any non-negative margin (:func:`refinement_cell`) contains ``w``'s X
interval outright; the margin only buys slack for the coarse *search*
locating the image inexactly.  The refinement searches every delay in
``[-td_max, td_max]``, so a cell carries no delay range of its own.
The lemma is property-tested in ``tests/core/test_pyramid.py`` across
factors and lengths not divisible by the factor, mirroring the segment
containment lemma of :mod:`repro.core.segmentation`.

Downsampled pairs must be constructed **only** through this module
(:func:`build_level` / :func:`paa_downsample`); hand-rolled
reshape-and-mean pooling elsewhere is rejected by tycoslint rule TY008,
because an off-by-one in the pooling silently breaks every coordinate
mapping above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro._types import FloatArray
from repro.core.config import TycosConfig
from repro.core.segmentation import Span
from repro.core.window import PairView, TimeDelayWindow

__all__ = [
    "coarse_length",
    "paa_downsample",
    "PyramidLevel",
    "build_level",
    "cell_span",
    "footprint",
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
    """

    factor: int
    x: FloatArray
    y: FloatArray

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
    )


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


def refinement_cell(window: TimeDelayWindow, factor: int, n: int, margin: int) -> Span:
    """The full-resolution search region of a coarse hit.

    The coarse window's exact :func:`footprint` expanded by ``margin``
    samples on each side and clipped to ``[0, n)``, as a half-open span.
    With any ``margin >= 0`` it contains the X interval of every
    full-resolution window whose coarse image is the given window (the
    pyramid containment lemma); the margin additionally absorbs the
    coarse LAHC settling a few cells away from the true optimum.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    foot_lo, foot_hi = footprint(window, factor, n)
    return max(0, foot_lo - margin), min(n, foot_hi + 1 + margin)


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
    return config.scaled(
        sigma=config.sigma * config.coarse_sigma_ratio,
        s_min=s_min_c,
        s_max=s_max_c,
        td_max=td_max_c,
        jitter=0.0,
        significance_permutations=0,
        init_delay_step=None if step is None else max(1, -(-step // factor)),
    )
