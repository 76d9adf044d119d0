"""Timeline segmentation for intra-pair parallel search.

The paper scales TYCOS to *big* series, but a single long pair still runs
one sequential restart loop.  This module supplies the geometry that lets
one pair be sharded across cores: ``[0, n)`` is covered by ``n_segments``
overlapping spans, an independent restart loop runs per span, and the
results are stitched (the ``segments=K`` plan of
:mod:`repro.analysis.planner`).

The correctness of the sharding rests on one fact, the **containment
lemma**:

    Let the spans be ``S_i = [i * stride, i * stride + stride + L)``
    (clipped to ``[0, n)``) with ``stride >= 1`` and overlap ``L``.  Then
    every interval ``[a, b] ⊆ [0, n)`` of length ``b - a + 1 <= L`` is
    fully contained in at least one span.

    *Proof.*  Pick the largest ``i`` with ``i * stride <= a`` (it exists:
    ``i = 0`` qualifies).  If ``S_i`` is clipped at ``n`` it ends at ``n``
    and contains ``[a, b]`` outright.  Otherwise a later span starts at
    ``(i + 1) * stride > a``, so ``a >= i * stride`` and
    ``b <= a + L - 1 < i * stride + stride + L``, i.e. ``[a, b] ⊆ S_i``. ∎

A feasible time delay window ``([t_s, t_e], tau)`` touches the series
only inside its *footprint* -- the union of its X interval and its
shifted Y interval -- whose length is at most
``(t_e - t_s + 1) + |tau| <= s_max + td_max``.  Choosing the overlap
``L = s_max + td_max + margin`` (:meth:`repro.core.config.TycosConfig.
segment_overlap`) therefore guarantees that **every feasible window is
fully contained in at least one span**, so a per-span search sees exactly
the same samples for it as a whole-series search would.  The margin adds
context past the footprint (noise probes and LAHC rings reach slightly
beyond a window); it is not needed for containment itself.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

__all__ = ["segment_spans", "merge_spans", "overlap_zones", "span_containing"]

#: A half-open ``[lo, hi)`` index span of the timeline.
Span = Tuple[int, int]


def segment_spans(n: int, n_segments: int, overlap: int) -> List[Span]:
    """Cover ``[0, n)`` with up to ``n_segments`` overlapping spans.

    Consecutive spans overlap by exactly ``overlap`` samples (less only at
    the clipped tail), so by the containment lemma above every interval of
    length at most ``overlap`` -- in particular every feasible window
    footprint when ``overlap >= s_max + td_max`` -- lies fully inside at
    least one span.

    Args:
        n: series length.
        n_segments: requested number of spans (the result may hold fewer
            when the series is too short to support that many distinct
            spans; it never holds more).
        overlap: samples shared by consecutive spans; must be >= 1.

    Returns:
        Half-open ``(lo, hi)`` spans, sorted, first starting at 0, last
        ending at ``n``, consecutive spans overlapping by >= ``overlap``
        (when there are at least two).

    Raises:
        ValueError: on a non-positive length, segment count, or overlap.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    if overlap < 1:
        raise ValueError(f"overlap must be >= 1, got {overlap}")
    if n_segments == 1 or n <= overlap:
        return [(0, n)]
    stride = math.ceil((n - overlap) / n_segments)
    spans: List[Span] = []
    for i in range(n_segments):
        lo = i * stride
        if lo >= n:
            break
        hi = min(n, lo + stride + overlap)
        spans.append((lo, hi))
        if hi == n:
            break
    return spans


def merge_spans(spans: Iterable[Span]) -> List[Span]:
    """Sort spans and coalesce every overlapping or touching run into one."""
    merged: List[Span] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def overlap_zones(spans: List[Span]) -> List[Span]:
    """The pairwise intersections of a span cover, merged and sorted.

    A window found by two different segments must have its X interval
    inside one of these zones (two spans only share samples there), so the
    stitcher restricts its cross-segment dedupe/rescore work to windows
    intersecting a zone.
    """
    raw: List[Span] = []
    for i, (lo_i, hi_i) in enumerate(spans):
        for lo_j, hi_j in spans[i + 1 :]:
            lo, hi = max(lo_i, lo_j), min(hi_i, hi_j)
            if lo < hi:
                raw.append((lo, hi))
    return merge_spans(raw)


def span_containing(spans: List[Span], lo: int, hi: int) -> int:
    """Index of the first span fully containing ``[lo, hi]``, or ``-1``.

    ``hi`` is inclusive, matching window endpoints.  Used by the
    containment-lemma tests: for every feasible window footprint the
    answer must be a valid index.
    """
    for i, (span_lo, span_hi) in enumerate(spans):
        if span_lo <= lo and hi < span_hi:
            return i
    return -1
