"""Exact brute-force baseline (paper Section 5.1, Lemma 2; Section 8.4).

Enumerates every feasible window, scores it, and returns those above the
correlation threshold.  Used as the accuracy yardstick for TYCOS_L (Table
4) and as the runtime baseline of Fig. 10.

Even the brute force benefits from the Section-7 engine: for a fixed
(start, delay) the end index grows one step at a time, so each new window
is a single point insertion into the sliding KSG engine instead of a fresh
O(m^2) search.  The result remains *exact* -- every feasible window is
still evaluated -- only redundant computation is shared, mirroring how the
paper's C++ brute force is a tight loop rather than a naive recompute.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.core.config import TycosConfig
from repro.core.results import WindowResult, merge_overlapping
from repro.core.thresholds import BatchScorer
from repro.core.tycos import SearchStats, TycosResult
from repro.core.window import PairView, TimeDelayWindow
from repro.mi.entropy import binned_joint_entropy
from repro.mi.incremental import SlidingKSG
from repro.mi.ksg import KSGEstimator
from repro.mi.normalized import normalize_value

__all__ = ["brute_force_search"]


def brute_force_search(
    x: np.ndarray,
    y: np.ndarray,
    config: TycosConfig,
    use_incremental: bool = True,
    aggregate: bool = True,
) -> TycosResult:
    """Exhaustively find every window scoring at least ``config.sigma``.

    Args:
        x: first time series.
        y: second time series.
        config: search parameters (sigma, size and delay bounds, k ...).
        use_incremental: share k-NN work across windows via the sliding
            engine; turning it off recomputes every window from scratch
            (only useful for the Fig.-10 runtime comparison).
        aggregate: merge overlapping above-threshold windows into maximal
            windows, as the paper does before grading accuracy (8.4 B).

    Returns:
        A :class:`TycosResult`; when ``aggregate`` the windows are the
        merged maximal ones, rescored on their merged extent.
    """
    started = time.perf_counter()
    pair = PairView(x, y, jitter=config.jitter, seed=config.seed)
    n = pair.n
    stats = SearchStats()
    raw: List[WindowResult] = []
    estimator = KSGEstimator(k=config.k)

    for delay in range(-config.td_max, config.td_max + 1):
        start_lo = max(0, -delay)
        start_hi = n - config.s_min  # inclusive bound on start
        for start in range(start_lo, start_hi + 1):
            max_end = min(n - 1, n - 1 - delay, start + config.s_max - 1)
            if max_end - start + 1 < config.s_min:
                continue
            if use_incremental:
                engine = SlidingKSG(k=config.k)
                first_end = start + config.s_min - 1
                window = TimeDelayWindow(start, first_end, delay)
                xw, yw = pair.extract(window)
                engine.reset(xw, yw, ids=window.x_indices())
                raw.extend(_evaluate(engine.mi(), pair, window, config, stats))
                for end in range(first_end + 1, max_end + 1):
                    engine.add(end, pair.x[end], pair.y[end + delay])
                    window = TimeDelayWindow(start, end, delay)
                    raw.extend(_evaluate(engine.mi(), pair, window, config, stats))
            else:
                for end in range(start + config.s_min - 1, max_end + 1):
                    window = TimeDelayWindow(start, end, delay)
                    xw, yw = pair.extract(window)
                    raw.extend(_evaluate(estimator.mi(xw, yw), pair, window, config, stats))

    if aggregate and raw:
        merged = merge_overlapping([r.window for r in raw], n=n)
        scorer = BatchScorer(pair, config)
        out: List[WindowResult] = []
        for w in merged:
            score = scorer.score(w)
            out.append(WindowResult(window=w, mi=score.mi, nmi=score.nmi))
        windows = out
    else:
        windows = sorted(raw, key=lambda r: r.window.key())
    stats.runtime_seconds = time.perf_counter() - started
    return TycosResult(windows=windows, stats=stats)


def _evaluate(
    mi: float,
    pair: PairView,
    window: TimeDelayWindow,
    config: TycosConfig,
    stats: SearchStats,
) -> List[WindowResult]:
    """Score one enumerated window; returns [result] when above sigma."""
    stats.windows_evaluated += 1
    xw, yw = pair.extract(window)
    nmi = normalize_value(mi, binned_joint_entropy(xw, yw))
    value = nmi if config.use_normalized else mi
    if value >= config.sigma:
        return [WindowResult(window=window, mi=mi, nmi=nmi)]
    return []
