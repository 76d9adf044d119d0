"""Window scoring: raw MI, normalized MI and adaptive thresholds.

Two interchangeable evaluators turn a :class:`TimeDelayWindow` into a
score:

* :class:`BatchScorer` -- runs the KSG estimator from scratch per window
  (what TYCOS_L / TYCOS_LN use).
* :class:`IncrementalScorer` -- keeps a :class:`repro.mi.SlidingKSG` engine
  warm and evaluates each window as a diff against the previously evaluated
  one (Section 7; what TYCOS_LM / TYCOS_LMN use).

Both memoize by window identity, because LAHC revisits windows across
neighborhood expansions.  The module also hosts :class:`TopKFilter`, the
Section 6.3.2 alternative to a fixed sigma.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import contracts
from repro._types import FloatArray, WindowKey
from repro.core.config import TycosConfig
from repro.core.window import PairView, TimeDelayWindow
from repro.mi.entropy import binned_joint_entropy
from repro.mi.ksg import KSGEstimator
from repro.mi.incremental import SlidingKSG
from repro.mi.neighbors import PairDistanceWorkspace
from repro.mi.normalized import normalize_ratio, normalize_value

__all__ = ["WindowScore", "BatchScorer", "IncrementalScorer", "TopKFilter", "make_scorer"]

#: Widest union span (samples) a single shared distance workspace may
#: cover; wider same-delay clusters are split, because the O(u^2) union
#: broadcast must stay comparable to the windows it amortizes.
_UNION_SPAN_LIMIT = 2048


@dataclass(frozen=True)
class WindowScore:
    """MI readings of one window.

    Attributes:
        mi: raw KSG mutual information (nats).
        nmi: normalized MI, Eq. (18), clamped to [0, 1].
        ratio: the unclamped ``I_w / H_w`` used as the search objective
            (see :func:`repro.mi.normalized.normalize_ratio`).
    """

    mi: float
    nmi: float
    ratio: float


class BatchScorer:
    """Scores windows by running the KSG estimator from scratch each time.

    The memo table is a capped LRU (``config.cache_capacity``): long
    multi-restart searches revisit mostly recent windows, so bounding the
    table costs no meaningful hit rate while keeping memory flat.

    Attributes:
        evaluations: number of windows whose MI was actually computed.
        cache_hits: number of scores served from the memo table.
        workspace_builds: number of shared distance workspaces constructed
            for batched clusters.
        workspace_hits: number of clusters served from the per-delay
            workspace LRU (``config.workspace_cache_size``).
    """

    def __init__(self, pair: PairView, config: TycosConfig) -> None:
        self._pair = pair
        self._config = config
        self._estimator = KSGEstimator(k=config.k, use_digamma_table=config.use_digamma_table)
        self._cache: "OrderedDict[WindowKey, WindowScore]" = OrderedDict()
        self._cache_capacity = config.cache_capacity
        # Per-delay workspace LRU: delay -> (span_lo, span_hi, workspace).
        # LAHC trajectories revisit the same delay across iterations, so a
        # cluster whose span fits inside a cached union reuses the O(u^2)
        # distance broadcasts (principal submatrices are exact, so the
        # containing span changes nothing about any window's geometry).
        self._workspaces: "OrderedDict[int, Tuple[int, int, PairDistanceWorkspace]]" = (
            OrderedDict()
        )
        self.evaluations = 0
        self.cache_hits = 0
        self.workspace_builds = 0
        self.workspace_hits = 0

    @property
    def estimator(self) -> KSGEstimator:
        """The configured KSG estimator (shared digamma table included).

        Exposed so callers needing a raw MI outside the window-score path
        -- e.g. the permutation significance test -- reuse the scorer's
        estimator instead of constructing a cold one per window.
        """
        return self._estimator

    def score(self, window: TimeDelayWindow) -> WindowScore:
        """MI and normalized MI of a window (memoized)."""
        hit = self._cache_get(window.key())
        if hit is not None:
            self.cache_hits += 1
            return hit
        x, y = self._pair.extract(window)
        mi = self._batch_mi(window, x, y)
        return self._finish(window, mi, x, y)

    def score_many(self, windows: Sequence[TimeDelayWindow]) -> List[WindowScore]:
        """Scores for many windows in one call, batching same-delay groups.

        Windows that share a delay (e.g. the delta-neighbors of one LAHC
        ring) draw their sample pairs from one short union sub-series, so
        their k-NN geometry is computed through a single
        :class:`~repro.mi.neighbors.PairDistanceWorkspace` -- one
        ``O(u^2)`` pairwise-distance broadcast for the whole group instead
        of one per window.  Scores are *exactly* the ones :meth:`score`
        would produce (same floats, same memoization); only the amount of
        redundant kernel work changes.  Windows the batch kernel cannot
        serve (cache hits, non-bruteforce backends, or -- in the
        incremental subclass -- on-trajectory engine evaluations) fall
        back to :meth:`score` in input order.
        """
        out: List[Optional[WindowScore]] = [None] * len(windows)
        grouped: Dict[int, List[int]] = {}
        for i, w in enumerate(windows):
            hit = self._cache_get(w.key())
            if hit is not None:
                self.cache_hits += 1
                out[i] = hit
            elif self._batchable(w):
                grouped.setdefault(w.delay, []).append(i)
            else:
                out[i] = self.score(w)
        for positions in grouped.values():
            for cluster in self._span_clusters(windows, positions):
                if len(cluster) == 1:
                    out[cluster[0]] = self.score(windows[cluster[0]])
                else:
                    self._score_cluster(windows, cluster, out)
        return [s for s in out if s is not None]

    def value(self, window: TimeDelayWindow) -> float:
        """The scalar the search maximizes (unclamped ratio or raw MI)."""
        score = self.score(window)
        return score.ratio if self._config.use_normalized else score.mi

    def value_many(self, windows: Sequence[TimeDelayWindow]) -> List[float]:
        """Objective values of many windows via one batched scoring pass.

        Equivalent to ``[self.value(w) for w in windows]`` -- same floats,
        same cache and stats bookkeeping -- but same-delay groups share one
        distance workspace (see :meth:`score_many`).
        """
        scores = self.score_many(windows)
        if self._config.use_normalized:
            return [s.ratio for s in scores]
        return [s.mi for s in scores]

    def clear_cache(self) -> None:
        """Drop the memo and workspace tables (between independent restarts)."""
        self._cache.clear()
        self._workspaces.clear()

    # -- memo table (capped LRU) --------------------------------------- #

    def _cache_get(self, key: WindowKey) -> Optional[WindowScore]:
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
        return hit

    def _cache_put(self, key: WindowKey, score: WindowScore) -> None:
        self._cache[key] = score
        self._cache.move_to_end(key)
        if len(self._cache) > self._cache_capacity:
            self._cache.popitem(last=False)

    # -- batched scoring ------------------------------------------------ #

    def _batchable(self, window: TimeDelayWindow) -> bool:
        """Can this window's geometry come from a shared workspace?

        Requires the brute-force k-NN backend (the batch kernel replicates
        exactly that math) and in-bounds sample ranges (out-of-bounds
        windows must keep raising through the scalar path).
        """
        n = self._pair.n
        return (
            self._estimator.resolved_backend(window.size) == "bruteforce"
            and 0 <= window.start
            and window.end < n
            and 0 <= window.y_start
            and window.y_end < n
        )

    @staticmethod
    def _span_clusters(
        windows: Sequence[TimeDelayWindow], positions: List[int]
    ) -> List[List[int]]:
        """Split same-delay windows into overlapping-span clusters.

        Windows that do not overlap (or would stretch the union past
        ``_UNION_SPAN_LIMIT``) gain nothing from a shared workspace, so
        each cluster covers one contiguous stretch of the series.
        """
        ordered = sorted(positions, key=lambda i: (windows[i].start, windows[i].end))
        clusters: List[List[int]] = []
        lo = hi = 0
        for i in ordered:
            w = windows[i]
            if (
                clusters
                and w.start <= hi + 1
                and max(hi, w.end) - lo + 1 <= _UNION_SPAN_LIMIT
            ):
                clusters[-1].append(i)
                hi = max(hi, w.end)
            else:
                clusters.append([i])
                lo, hi = w.start, w.end
        return clusters

    def _batch_mi(self, window: TimeDelayWindow, xw: FloatArray, yw: FloatArray) -> float:
        """Batch-path MI of one window (already extracted as ``xw``/``yw``).

        Served through the cached per-delay workspace when a cached union
        span contains the window -- the principal submatrix is exactly the
        brute-force geometry, so the floats are identical to a from-scratch
        estimate -- and by the plain estimator otherwise.  One-off scalar
        evaluations (single-window clusters, noise probes) thereby reuse
        the ring's O(u^2) broadcasts instead of paying O(m^2) each.
        """
        if (
            self._config.workspace_cache_size > 0
            and self._estimator.resolved_backend(window.size) == "bruteforce"
        ):
            entry = self._workspaces.get(window.delay)
            if entry is not None:
                lo, hi, workspace = entry
                if lo <= window.start and window.end <= hi:
                    self._workspaces.move_to_end(window.delay)
                    self.workspace_hits += 1
                    k = self._estimator.effective_k(window.size)
                    offset = window.start - lo
                    knn = workspace.knn(offset, window.size, k)
                    table = (
                        workspace.digamma_table()
                        if self._config.use_digamma_table
                        else None
                    )
                    sorted_x = sorted_y = None
                    if self._config.use_sorted_marginals:
                        sorted_x, sorted_y = workspace.sorted_window(offset, window.size)
                    return self._estimator.mi_from_geometry(
                        xw,
                        yw,
                        knn,
                        k,
                        digamma_table=table,
                        sorted_x=sorted_x,
                        sorted_y=sorted_y,
                    )
        return self._estimator.mi(xw, yw)

    def _workspace_for(
        self, delay: int, lo: int, hi: int
    ) -> Tuple[int, PairDistanceWorkspace]:
        """A distance workspace covering ``[lo, hi]`` at ``delay``.

        Served from the per-delay LRU when a cached union span contains the
        requested one (every window submatrix is identical either way);
        otherwise built and cached.  Cached builds cover a *wider* span
        than requested: a LAHC ring drifts by at most ``delta`` per
        accepted move and the noise detector's concat probes extend a
        window by ``max(delta, s_min)`` samples, so padding the union by
        the probe reach plus a few moves of drift turns those follow-up
        evaluations into containment hits instead of rebuilds.  Returns
        the workspace with the series index its offset 0 maps to.
        """
        capacity = self._config.workspace_cache_size
        if capacity > 0:
            entry = self._workspaces.get(delay)
            if entry is not None:
                cached_lo, cached_hi, workspace = entry
                if cached_lo <= lo and hi <= cached_hi:
                    self._workspaces.move_to_end(delay)
                    self.workspace_hits += 1
                    return cached_lo, workspace
            margin = max(self._config.delta, self._config.s_min) + 8 * self._config.delta
            room = _UNION_SPAN_LIMIT - (hi - lo + 1)
            if room > 0:
                margin = min(margin, room // 2)
                n = self._pair.n
                lo = max(0, -delay, lo - margin)
                hi = min(n - 1, n - 1 - delay, hi + margin)
        x = self._pair.x
        y = self._pair.y
        workspace = PairDistanceWorkspace(
            x[lo : hi + 1], y[lo + delay : hi + delay + 1]
        )
        self.workspace_builds += 1
        if capacity > 0:
            self._workspaces[delay] = (lo, hi, workspace)
            self._workspaces.move_to_end(delay)
            if len(self._workspaces) > capacity:
                self._workspaces.popitem(last=False)
        return lo, workspace

    def _score_cluster(
        self,
        windows: Sequence[TimeDelayWindow],
        cluster: List[int],
        out: List[Optional[WindowScore]],
    ) -> None:
        """Score one same-delay cluster through a shared workspace."""
        lo = min(windows[i].start for i in cluster)
        hi = max(windows[i].end for i in cluster)
        delay = windows[cluster[0]].delay
        base, workspace = self._workspace_for(delay, lo, hi)
        table = workspace.digamma_table() if self._config.use_digamma_table else None
        use_sorted = self._config.use_sorted_marginals
        px = self._pair.x
        py = self._pair.y
        base_k = self._estimator.k
        mi_from_geometry = self._estimator.mi_from_geometry
        for i in cluster:
            w = windows[i]
            hit = self._cache_get(w.key())
            if hit is not None:
                # Duplicate window inside one batch: second occurrence is a
                # cache hit, exactly as in a scalar evaluation sequence.
                self.cache_hits += 1
                out[i] = hit
                continue
            size = w.end - w.start + 1
            k = base_k if size > base_k else size - 1  # == effective_k(size)
            offset = w.start - base
            knn = workspace.knn(offset, size, k)
            sorted_x = sorted_y = None
            if use_sorted:
                sorted_x, sorted_y = workspace.sorted_window(offset, size)
            # _batchable() already verified the bounds extract() re-checks.
            xw = px[w.start : w.end + 1]
            yw = py[w.start + delay : w.end + delay + 1]
            mi = mi_from_geometry(
                xw, yw, knn, k, digamma_table=table, sorted_x=sorted_x, sorted_y=sorted_y
            )
            out[i] = self._finish(w, mi, xw, yw, sorted_x=sorted_x, sorted_y=sorted_y)

    def _finish(
        self,
        window: TimeDelayWindow,
        mi: float,
        xw: FloatArray,
        yw: FloatArray,
        sorted_x: Optional[FloatArray] = None,
        sorted_y: Optional[FloatArray] = None,
    ) -> WindowScore:
        """Normalize, contract-check, memoize and count one evaluation.

        When the window's sorted projections are already in hand, their end
        elements are handed to the entropy binning as the (exact) min/max,
        skipping four reductions per window.
        """
        if sorted_x is not None and sorted_y is not None:
            entropy = binned_joint_entropy(
                xw,
                yw,
                x_bounds=(sorted_x[0], sorted_x[-1]),
                y_bounds=(sorted_y[0], sorted_y[-1]),
            )
        else:
            entropy = binned_joint_entropy(xw, yw)
        score = WindowScore(
            mi=mi, nmi=normalize_value(mi, entropy), ratio=normalize_ratio(mi, entropy)
        )
        if contracts.checks_enabled():
            where = f"{type(self).__name__}.score"
            contracts.check_mi_finite(score.mi, where=where)
            contracts.check_nmi_range(score.nmi, where=where)
        self._cache_put(window.key(), score)
        self.evaluations += 1
        return score


class IncrementalScorer(BatchScorer):
    """Scores windows by diffing against the last evaluated window.

    Windows produced during a LAHC ascent overlap heavily, so instead of a
    fresh O(m^2) neighbor search per window, a :class:`SlidingKSG` engine
    is mutated by the index delta between consecutive evaluations (Lemmas
    3-6).  A delay change re-pairs every sample, which forces a reset.

    The scorer is a hybrid: below ``min_engine_size`` samples the batch
    estimator's single vectorized kernel beats any per-point bookkeeping,
    so small windows take the batch path outright and the engine serves
    only the window sizes where the Section-7 reuse genuinely pays.
    """

    #: Below this window size the O(m^2) batch kernel is cheaper than
    #: engine maintenance (measured crossover of the two Python paths).
    min_engine_size = 96

    def __init__(self, pair: PairView, config: TycosConfig) -> None:
        super().__init__(pair, config)
        self._engine = SlidingKSG(
            k=config.k,
            use_digamma_table=config.use_digamma_table,
            use_sorted_marginals=config.use_sorted_marginals,
        )
        self._base: Optional[TimeDelayWindow] = None
        self._trajectory_delay: Optional[int] = None

    @property
    def engine(self) -> SlidingKSG:
        """The underlying sliding engine (exposed for stats/ablations)."""
        return self._engine

    def follow_delay(self, delay: int) -> None:
        """Pin the engine to the search trajectory's current delay.

        The driver calls this whenever the accepted solution (re)settles on
        a delay.  Only windows at this delay are evaluated through the
        sliding engine; a neighborhood ring probes dozens of other delays
        exactly once each, and paying an engine rebuild for a one-off probe
        costs more than the batch estimate it would save.
        """
        self._trajectory_delay = delay

    def _batchable(self, window: TimeDelayWindow) -> bool:
        """Batch only the windows :meth:`score` serves via the batch path.

        On-trajectory windows of engine size must keep flowing through
        :meth:`score` one at a time, in evaluation order, because they
        mutate the sliding engine (Section 7 diffs).  Off-trajectory
        probes and sub-engine-size windows are pure batch estimates, so
        the shared workspace may compute them in any grouping.
        """
        if not super()._batchable(window):
            return False
        return window.size < self.min_engine_size or (
            self._trajectory_delay is not None and window.delay != self._trajectory_delay
        )

    def score(self, window: TimeDelayWindow) -> WindowScore:
        hit = self._cache_get(window.key())
        if hit is not None:
            self.cache_hits += 1
            return hit
        if window.size < self.min_engine_size or (
            self._trajectory_delay is not None and window.delay != self._trajectory_delay
        ):
            # Small window, or an off-trajectory delay probe: batch path.
            xw, yw = self._pair.extract(window)
            mi = self._batch_mi(window, xw, yw)
            return self._finish(window, mi, xw, yw)
        base = self._base
        x = self._pair.x
        y = self._pair.y
        if base is not None and base.delay == window.delay:
            diff = self._diff_cost(base, window)
            # Engine repair costs ~O(diff * m) with Python constants; the
            # batch estimate costs O(m^2) in one numpy kernel.  The engine
            # wins only while the diff stays well below m.
            if diff > max(4, window.size // 8) and diff < window.size:
                # Large one-off diff (e.g. the noise detector's concat
                # probes): repairing the engine would cost more than a
                # batch estimate, and the engine must stay anchored at the
                # current solution for the ring neighbors that follow.
                xw, yw = self._pair.extract(window)
                return self._finish(window, self._batch_mi(window, xw, yw), xw, yw)
        if (
            base is None
            or base.delay != window.delay
            or self._diff_cost(base, window) >= window.size
        ):
            xw, yw = self._pair.extract(window)
            self._engine.reset(xw, yw, ids=window.x_indices())
        else:
            # Exact delta ranges -- never touch the shared bulk of the two
            # windows.  Shrinks first (cheaper neighbor invalidation).
            delay = window.delay
            for lo, hi in (
                (base.start, min(base.end, window.start - 1)),   # left trim
                (max(base.start, window.end + 1), base.end),     # right trim
            ):
                for i in range(lo, hi + 1):
                    self._engine.remove(i)
            for lo, hi in (
                (window.start, min(window.end, base.start - 1)),  # left grow
                (max(window.start, base.end + 1), window.end),    # right grow
            ):
                for i in range(lo, hi + 1):
                    self._engine.add(i, x[i], y[i + delay])
        self._base = window
        mi = self._engine.mi()
        xw, yw = self._pair.extract(window)
        return self._finish(window, mi, xw, yw)

    @staticmethod
    def _diff_cost(base: TimeDelayWindow, window: TimeDelayWindow) -> int:
        """Number of point insertions + removals to morph base into window."""
        inter_lo = max(base.start, window.start)
        inter_hi = min(base.end, window.end)
        inter = max(0, inter_hi - inter_lo + 1)
        return (base.size - inter) + (window.size - inter)


def make_scorer(pair: PairView, config: TycosConfig, incremental: bool) -> BatchScorer:
    """Factory: pick the scorer matching the TYCOS variant."""
    if incremental:
        return IncrementalScorer(pair, config)
    return BatchScorer(pair, config)


class TopKFilter:
    """Adaptive correlation threshold via a top-K list (Section 6.3.2).

    Maintains the K highest-scoring windows seen so far; the effective
    sigma is the smallest score in the list once it is full, so the search
    progressively tightens its own acceptance bar.
    """

    def __init__(self, capacity: int, initial_sigma: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._heap: List[Tuple[float, WindowKey, TimeDelayWindow]] = []
        self._initial_sigma = initial_sigma

    @property
    def sigma(self) -> float:
        """Current effective threshold."""
        if len(self._heap) < self.capacity:
            return self._initial_sigma
        return self._heap[0][0]

    def offer(self, window: TimeDelayWindow, value: float) -> bool:
        """Consider a window; returns True when it enters the top-K list."""
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, (value, window.key(), window))
            return True
        if value > self._heap[0][0]:
            heapq.heapreplace(self._heap, (value, window.key(), window))
            return True
        return False

    def windows(self) -> List[Tuple[TimeDelayWindow, float]]:
        """The current top-K windows, best first."""
        return [(w, v) for v, _, w in sorted(self._heap, reverse=True)]

    def __len__(self) -> int:
        return len(self._heap)
