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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import contracts
from repro._types import FloatArray, IntArray, WindowKey
from repro.core.config import TycosConfig
from repro.core.window import PairView, TimeDelayWindow
from repro.mi.entropy import binned_joint_entropy
from repro.mi.ksg import KSGEstimator
from repro.mi.incremental import SlidingKSG
from repro.mi.normalized import normalize_ratio, normalize_ratios, normalize_value
from repro.mi.stacked import binned_joint_entropy_many, gather_rows, ksg_mi_many

__all__ = ["WindowScore", "BatchScorer", "IncrementalScorer", "TopKFilter", "make_scorer"]

#: A memo entry: the ``(mi, nmi, ratio)`` fields of a :class:`WindowScore`.
ScoreTuple = Tuple[float, float, float]

#: Entries a scorer's memo table holds before evicting the least recent.
CACHE_CAPACITY = 100_000


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

    The memo table is an LRU capped at :data:`CACHE_CAPACITY` plain
    ``(mi, nmi, ratio)`` tuples, which :meth:`score` wraps in a
    :class:`WindowScore` on the way out: long multi-restart searches
    revisit mostly recent windows, so bounding the table costs no
    meaningful hit rate while keeping memory flat.

    :meth:`score` estimates one window at a time (the scalar reference);
    :meth:`value_many` scores a whole window set in one pass of the
    stacked kernels of :mod:`repro.mi.stacked`, with identical floats and
    bookkeeping.

    Attributes:
        evaluations: number of windows whose MI was actually computed.
        cache_hits: number of scores served from the memo table.
    """

    def __init__(self, pair: PairView, config: TycosConfig) -> None:
        self._pair = pair
        self._config = config
        self._estimator = KSGEstimator(k=config.k)
        self._cache: "OrderedDict[WindowKey, ScoreTuple]" = OrderedDict()
        self._memo_capacity = CACHE_CAPACITY
        self.evaluations = 0
        self.cache_hits = 0

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
            return WindowScore(*hit)
        return self._evaluate(window)

    def value(self, window: TimeDelayWindow) -> float:
        """The scalar the search maximizes (unclamped ratio or raw MI)."""
        score = self.score(window)
        return score.ratio if self._config.use_normalized else score.mi

    def value_many(self, starts: IntArray, ends: IntArray, delays: IntArray) -> FloatArray:
        """Objective values of many windows, scored in one stacked pass.

        Window ``i`` is ``TimeDelayWindow(starts[i], ends[i], delays[i])``,
        and ``values[i]`` is bit-identical to its :meth:`value`.  The memo
        ends up with the same entries, in the same LRU order, and the
        counters with the same counts as calling :meth:`value` on each
        window in input order.

        A first pass only peeks at the memo.  The uncached windows the
        stacked kernels can serve (see :meth:`_batch_mask`) are sorted by
        size, padded to the largest and scored by one
        :func:`~repro.mi.stacked.ksg_mi_many` and one
        :func:`~repro.mi.stacked.binned_joint_entropy_many` call, then
        normalized as arrays.  One walk in input order then stores each
        such new window and serves each memo hit, a repeat inside the
        batch included, as plain score tuples.  Everything else goes
        through :meth:`value` in that walk: windows outside the series
        (which raise there), on-trajectory engine evaluations in the
        incremental subclass, and hits evicted since the peek.
        """
        starts, ends, delays = (np.asarray(a, dtype=np.int64) for a in (starts, ends, delays))
        stackable = self._batch_mask(starts, ends, delays).tolist()
        keys: List[WindowKey] = list(zip(starts.tolist(), ends.tolist(), delays.tolist()))
        cache = self._cache
        fresh: Dict[WindowKey, int] = {}
        for i, key in enumerate(keys):
            if stackable[i] and key not in cache and key not in fresh:
                fresh[key] = i
        scores: Dict[WindowKey, ScoreTuple] = {}
        if fresh:
            positions = np.fromiter(fresh.values(), dtype=np.intp, count=len(fresh))
            mi, entropy = self._stacked(starts[positions], ends[positions], delays[positions])
            nmi, ratio = normalize_ratios(mi, entropy)
            scores = dict(zip(fresh, zip(mi.tolist(), nmi.tolist(), ratio.tolist())))
        field = 2 if self._config.use_normalized else 0  # ratio or mi
        take, get, refresh, store = scores.pop, cache.get, cache.move_to_end, self._store
        values: List[float] = []
        hits = 0
        for key in keys:
            score = take(key, None)
            if score is not None:
                store(key, score)
            else:
                score = get(key)
                if score is None:
                    self.cache_hits += hits
                    hits = 0
                    values.append(self.value(TimeDelayWindow(*key)))
                    continue
                refresh(key)
                hits += 1
            values.append(score[field])
        self.cache_hits += hits
        return np.array(values, dtype=np.float64)

    # -- memo table (capped LRU) --------------------------------------- #

    def _cache_get(self, key: WindowKey) -> Optional[ScoreTuple]:
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
        return hit

    def _store(self, key: WindowKey, score: ScoreTuple) -> None:
        """Contract-check, memoize and count one newly evaluated window.

        The one memo write path: ``key`` is not in the memo, so it lands
        at the most-recent end, and the least recent entry goes once the
        memo outgrows its capacity.
        """
        if contracts.checks_enabled():
            where = f"{type(self).__name__}.score"
            contracts.check_mi_finite(score[0], where=where)
            contracts.check_nmi_range(score[1], where=where)
        cache = self._cache
        cache[key] = score
        if len(cache) > self._memo_capacity:
            cache.popitem(last=False)
        self.evaluations += 1

    # -- stacked scoring ------------------------------------------------ #

    def _batch_mask(self, starts: IntArray, ends: IntArray, delays: IntArray) -> np.ndarray:
        """Which windows the stacked kernels score (the rest go through :meth:`score`).

        Requires in-bounds sample ranges (out-of-bounds windows must keep
        raising through the scalar path).
        """
        n = self._pair.n
        mask = (starts >= 0) & (ends >= starts) & (ends < n)
        mask &= (starts + delays >= 0) & (ends + delays < n)
        return mask

    def _stacked(
        self, starts: IntArray, ends: IntArray, delays: IntArray
    ) -> Tuple[FloatArray, FloatArray]:
        """``(mi, entropy)`` of in-bounds windows, in one padded kernel pass."""
        sizes = ends - starts + 1
        order = np.argsort(sizes, kind="stable")
        # _batch_mask() already verified the bounds extract() checks.
        rows = gather_rows(self._pair.x, self._pair.y, starts[order], delays[order], sizes[order])
        estimator = self._estimator
        mi = np.empty(sizes.size)
        entropy = np.empty(sizes.size)
        mi[order] = ksg_mi_many(rows, estimator.k, sizes[order])
        entropy[order] = binned_joint_entropy_many(rows, sizes[order])
        return mi, entropy

    def _evaluate(self, window: TimeDelayWindow) -> WindowScore:
        """Estimate one window from scratch (the scalar reference path)."""
        x, y = self._pair.extract(window)
        return self._finish(window, self._estimator.mi(x, y), binned_joint_entropy(x, y))

    def _finish(self, window: TimeDelayWindow, mi: float, entropy: float) -> WindowScore:
        """Normalize, contract-check, memoize and count one evaluation."""
        score = (mi, normalize_value(mi, entropy), normalize_ratio(mi, entropy))
        self._store(window.key(), score)
        return WindowScore(*score)


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
        self._engine = SlidingKSG(k=config.k)
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

    def _batch_mask(self, starts: IntArray, ends: IntArray, delays: IntArray) -> np.ndarray:
        """Batch only the windows :meth:`score` serves via the batch path.

        On-trajectory windows of engine size must keep flowing through
        :meth:`score` one at a time, in evaluation order, because they
        mutate the sliding engine (Section 7 diffs).  Off-trajectory
        probes and sub-engine-size windows are pure batch estimates, so
        the stacked kernels may compute them in any grouping.
        """
        off_engine = ends - starts + 1 < self.min_engine_size
        if self._trajectory_delay is not None:
            off_engine |= delays != self._trajectory_delay
        return super()._batch_mask(starts, ends, delays) & off_engine

    def score(self, window: TimeDelayWindow) -> WindowScore:
        hit = self._cache_get(window.key())
        if hit is not None:
            self.cache_hits += 1
            return WindowScore(*hit)
        if window.size < self.min_engine_size or (
            self._trajectory_delay is not None and window.delay != self._trajectory_delay
        ):
            # Small window, or an off-trajectory delay probe: batch path.
            return self._evaluate(window)
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
                return self._evaluate(window)
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
        return self._finish(window, mi, binned_joint_entropy(xw, yw))

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
