"""TYCOS: the Time delaY COrrelation Search (paper Sections 5-7).

The four variants evaluated in the paper are all served by one driver with
two switches:

===========  ==========  ===============
Variant      noise theory  incremental MI
===========  ==========  ===============
TYCOS_L      off          off
TYCOS_LN     on           off
TYCOS_LM     off          on
TYCOS_LMN    on           on
===========  ==========  ===============

The driver implements Algorithms 1 and 2: starting from an initial window
(leading-noise-pruned for the N variants), a LAHC ascent maximizes the
window score over delta-neighborhoods that grow while the search idles;
the local optimum is accepted into the result set when it clears sigma;
then the search restarts on the remaining data until the pair is scanned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import contracts
from repro._types import AnyArray
from repro.core.config import TycosConfig
from repro.core.lahc import LateAcceptanceHillClimbing
from repro.core.neighborhood import neighborhood
from repro.core.noise import (
    NoiseDetector,
    best_block_over_delays,
    find_initial_window,
    first_best,
)
from repro.core.results import ResultSet, WindowResult
from repro.core.thresholds import BatchScorer, IncrementalScorer, TopKFilter, make_scorer
from repro.core.window import PairView, TimeDelayWindow

__all__ = [
    "SearchStats",
    "TycosResult",
    "Tycos",
    "tycos_l",
    "tycos_ln",
    "tycos_lm",
    "tycos_lmn",
]


@dataclass
class SearchStats:
    """Instrumentation of one search run.

    Attributes:
        windows_evaluated: windows whose MI was actually computed.
        cache_hits: window scores served from the memo table.
        restarts: number of LAHC ascents launched.
        lahc_iterations: total acceptance rounds across ascents.
        accepted_moves: total accepted LAHC moves.
        noise_prunes: direction blocks issued by the noise detector.
        mi_full_searches: from-scratch k-NN searches in the sliding engine
            (incremental variants only).
        mi_incremental_updates: constant-time neighbor-set updates
            (incremental variants only).
        workspace_builds: always 0.  Scoring no longer builds shared
            distance workspaces (see :meth:`BatchScorer.value_many`); the
            field stays because the benchmark's layer trace
            (``perfbench/spans.py``) reads it.
        workspace_hits: always 0, kept for the same reason.
        segments: timeline segments the search ran over (0 for a classic
            unsegmented search, the span count for a ``segments=K`` plan;
            see :mod:`repro.analysis.planner`).
        stitch_dedups: duplicate windows dropped by the stitcher because
            two segments found the same window in an overlap zone.
        stitch_rescores: overlap-zone windows rescored on the whole
            series by the stitcher for cross-segment conflict resolution.
        coarse_windows_evaluated: windows scored on PAA-downsampled
            levels during the locate pass of a ``coarse=F`` plan
            (:mod:`repro.analysis.planner`); 0 for exhaustive search.
        refined_cells: full-resolution regions the refinement stage
            actually searched (after merging overlaps).
        cells_pruned: coarse timeline tiles the pre-pass ruled out, i.e.
            regions the exhaustive search would have scanned but the
            coarse-to-fine search never touched at full resolution.
        full_windows_evaluated: windows scored by the full-resolution
            estimator.  For exhaustive search this equals
            ``windows_evaluated``; for a ``coarse=F`` plan it is the
            quantity the pruning ratio is measured on.
        phase_seconds: wall-clock seconds per search phase, keyed by the
            canonical phase names of
            :class:`repro.analysis.planner.Phase` (``seeding`` /
            ``lahc`` / ``scoring`` / ``stitch`` / ``coarse`` /
            ``refine``), for ``tycos-search --profile``.  This module
            spells the names as literals because core must not import
            the analysis layer; the planner tests pin the spellings.
        plan: compact spec of the executed
            :class:`~repro.analysis.planner.SearchPlan` (``"plain"``,
            ``"segments=4"``, ``"coarse=8"``), recorded by the executor;
            empty for a direct ``_search_whole`` call.
        runtime_seconds: wall-clock time of the search.
    """

    windows_evaluated: int = 0
    cache_hits: int = 0
    restarts: int = 0
    lahc_iterations: int = 0
    accepted_moves: int = 0
    noise_prunes: int = 0
    mi_full_searches: int = 0
    mi_incremental_updates: int = 0
    workspace_builds: int = 0
    workspace_hits: int = 0
    segments: int = 0
    stitch_dedups: int = 0
    stitch_rescores: int = 0
    coarse_windows_evaluated: int = 0
    refined_cells: int = 0
    cells_pruned: int = 0
    full_windows_evaluated: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    plan: str = ""
    runtime_seconds: float = 0.0

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate wall-clock time into one named phase."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds


@dataclass
class TycosResult:
    """Windows found by a search plus run statistics."""

    windows: List[WindowResult] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)

    def __len__(self) -> int:
        return len(self.windows)

    def delays(self) -> List[int]:
        """Delays of all extracted windows."""
        return [r.window.delay for r in self.windows]

    def delay_range(self) -> Optional[Tuple[int, int]]:
        """(min, max) delay over extracted windows, or None when empty."""
        if not self.windows:
            return None
        ds = self.delays()
        return (min(ds), max(ds))


class Tycos:
    """Configurable TYCOS search engine.

    Window sets are scored through one :meth:`BatchScorer.value_many`
    call each, which pads windows of every size into one KSG pass: every
    delta-neighborhood ring, the seeding delay grid and the noise
    detector's growth probes.  The permutation test scores its
    shuffles through one :meth:`~repro.mi.ksg.KSGEstimator.mi_many` call.
    Both are bit-identical to scoring one window per call.

    Args:
        config: search parameters.
        use_noise: enable the Section-6 noise theory (the "N" in LN/LMN).
        use_incremental: enable the Section-7 incremental MI computation
            (the "M" in LM/LMN).
    """

    def __init__(
        self,
        config: TycosConfig,
        use_noise: bool = True,
        use_incremental: bool = True,
    ) -> None:
        self.config = config
        self.use_noise = use_noise
        self.use_incremental = use_incremental

    @property
    def name(self) -> str:
        """Paper-style variant name (TYCOS_L / _LN / _LM / _LMN)."""
        suffix = "L"
        if self.use_incremental:
            suffix += "M"
        if self.use_noise:
            suffix += "N"
        return f"TYCOS_{suffix}"

    # ------------------------------------------------------------------ #

    def search(self, x: AnyArray, y: AnyArray) -> TycosResult:
        """Find all correlated time delay windows of a pair (Algorithm 1/2).

        Runs the ``plain`` plan through
        :func:`repro.analysis.planner.execute_plan`; pass that function a
        :class:`~repro.analysis.planner.SearchPlan` to shard the timeline
        (``segments=K``) or locate coarsely first (``coarse=F``).

        Args:
            x: first time series.
            y: second time series (same length).

        Returns:
            A :class:`TycosResult` whose windows all score at least
            ``config.sigma`` and none of which contains another.
        """
        # Imported lazily: core stays importable without the analysis layer.
        from repro.analysis.planner import execute_plan

        return execute_plan(x, y, engine=self)

    def _search_whole(
        self,
        x: AnyArray,
        y: AnyArray,
        scan_hook: Optional[Callable[[int], Optional[int]]] = None,
    ) -> TycosResult:
        """One whole-series restart loop (the body of a plain :meth:`search`).

        ``scan_hook`` lets a caller *skip* restart positions: it receives
        each prospective scan position and returns the next allowed one
        (``None`` ends the scan).  The coarse-to-fine refinement uses it
        to jump over coarse-pruned regions while keeping every surviving
        restart bit-identical to the exhaustive search's -- see
        :mod:`repro.analysis.planner`.
        """
        accepted = ResultSet()

        def sigma_of(value: float) -> bool:
            return value >= self.config.sigma

        _, stats = self._run(x, y, "Tycos.search", sigma_of, accepted.insert, scan_hook)
        return TycosResult(windows=accepted.results(), stats=stats)

    def search_topk(self, x: AnyArray, y: AnyArray, k_top: int) -> TycosResult:
        """Top-K variant (Section 6.3.2): keep the K best windows found.

        The effective sigma starts at the first window's score and tightens
        as the top-K list fills, so no absolute threshold is needed.
        """
        topk = TopKFilter(capacity=k_top)

        def sigma_of(value: float) -> bool:
            return value > topk.sigma or len(topk) < k_top

        def accept(result: WindowResult, value: float) -> bool:
            return topk.offer(result.window, value)

        scorer, stats = self._run(x, y, "Tycos.search_topk", sigma_of, accept)
        windows = []
        for w, _ in topk.windows():
            score = scorer.score(w)
            windows.append(WindowResult(window=w, mi=score.mi, nmi=score.nmi))
        return TycosResult(windows=windows, stats=stats)

    # ------------------------------------------------------------------ #

    def _run(
        self,
        x: AnyArray,
        y: AnyArray,
        where: str,
        passes_threshold: Callable[[float], bool],
        accept: Callable[[WindowResult, float], bool],
        scan_hook: Optional[Callable[[int], Optional[int]]] = None,
    ) -> Tuple[BatchScorer, SearchStats]:
        """Set up one search of a pair, run its restart loop, count the work.

        The set-up and statistics shared by the fixed-sigma and top-K
        searches: the jittered pair, the scorer, the noise detector of a
        noise variant, and the :class:`SearchStats` read off the scorer,
        the detector and the sliding engine once :meth:`_drive` returns.
        ``where`` names the caller in contract-check messages.

        Returns:
            The scorer (its memo holds every score the search computed)
            and the run's statistics.
        """
        started = time.perf_counter()
        cfg = self.config
        pair = PairView(x, y, jitter=cfg.jitter, seed=cfg.seed)
        if contracts.checks_enabled():
            contracts.check_series_shape(pair.x, pair.y, where=where)
        scorer = make_scorer(pair, cfg, incremental=self.use_incremental)
        detector = self._detector(scorer, pair.n)
        stats = SearchStats()

        self._drive(pair, scorer, detector, stats, passes_threshold, accept, scan_hook)

        stats.windows_evaluated = scorer.evaluations
        stats.cache_hits = scorer.cache_hits
        stats.full_windows_evaluated = scorer.evaluations
        if detector is not None:
            stats.noise_prunes = detector.prunes
        if isinstance(scorer, IncrementalScorer):
            stats.mi_full_searches = scorer.engine.full_searches
            stats.mi_incremental_updates = scorer.engine.incremental_updates
        stats.runtime_seconds = time.perf_counter() - started
        return scorer, stats

    def _detector(self, scorer: BatchScorer, n: int) -> Optional[NoiseDetector]:
        """The Section-6.2.2 noise detector of a noise variant, else None."""
        if not self.use_noise:
            return None
        return NoiseDetector(scorer=scorer, config=self.config, n=n)

    def _drive(
        self,
        pair: PairView,
        scorer: BatchScorer,
        detector: Optional[NoiseDetector],
        stats: SearchStats,
        passes_threshold: Callable[[float], bool],
        accept: Callable[[WindowResult, float], bool],
        scan_hook: Optional[Callable[[int], Optional[int]]] = None,
    ) -> None:
        """The restart loop shared by the fixed-sigma and top-K searches.

        Each restart draws a fresh LAHC history generator seeded from
        ``(config.seed, scan_from)``, so an ascent is a pure function of
        its restart position and the pair: skipping some restarts (the
        multiscale refinement's ``scan_hook``) cannot perturb the ones
        that remain.  ``scan_hook`` maps each prospective scan position
        to the next allowed one (monotonically non-decreasing; ``None``
        stops the scan); ``None`` hook means scan everything.
        """
        cfg = self.config
        n = pair.n
        seed_base = cfg.seed & 0xFFFFFFFFFFFFFFFF
        scan_from = 0
        while True:
            if scan_hook is not None:
                jumped = scan_hook(scan_from)
                if jumped is None:
                    break
                if jumped < scan_from:
                    raise ValueError(
                        f"scan_hook must not move backwards: {scan_from} -> {jumped}"
                    )
                scan_from = jumped
            if scan_from + cfg.s_min - 1 >= n:
                break
            seed_started = time.perf_counter()
            w0 = self._initial_window(scorer, n, scan_from, detector)
            if w0 is None:
                stats.add_phase("seeding", time.perf_counter() - seed_started)
                break
            v0 = scorer.value(w0)
            stats.add_phase("seeding", time.perf_counter() - seed_started)
            if detector is not None:
                detector.reset()

            if isinstance(scorer, IncrementalScorer):
                scorer.follow_delay(w0.delay)
            last_seen: List[Optional[TimeDelayWindow]] = [None]

            def candidates(
                current: TimeDelayWindow, idle: int
            ) -> List[Tuple[TimeDelayWindow, float]]:
                if last_seen[0] != current:
                    if isinstance(scorer, IncrementalScorer):
                        scorer.follow_delay(current.delay)
                    if detector is not None:
                        detector.reset()
                        detector.inspect(current, scorer.value(current))
                    last_seen[0] = current
                blocked = frozenset(detector.blocked) if detector is not None else frozenset()
                starts, ends, delays = neighborhood(
                    current,
                    radius=1 + idle,
                    delta=cfg.delta,
                    n=n,
                    s_min=cfg.s_min,
                    s_max=cfg.s_max,
                    td_max=cfg.td_max,
                    blocked=blocked,
                )
                # The ring comes sorted by (delay, start, end), so the
                # incremental scorer's on-trajectory diffs chain between
                # adjacent windows instead of ping-ponging across the ring.
                score_started = time.perf_counter()
                values = scorer.value_many(starts, ends, delays)
                stats.add_phase("scoring", time.perf_counter() - score_started)
                if not values.size:
                    return []
                # LAHC moves to the ring's best neighbor (Algorithm 1 line
                # 8), the first maximum; only that one becomes a window.
                best = first_best(values)
                window = TimeDelayWindow(int(starts[best]), int(ends[best]), int(delays[best]))
                return [(window, float(values[best]))]

            lahc = LateAcceptanceHillClimbing(
                cfg.history_length,
                cfg.max_idle,
                np.random.default_rng([seed_base, scan_from]),
            )
            scoring_before = stats.phase_seconds.get("scoring", 0.0)
            ascent_started = time.perf_counter()
            ascent = lahc.search(w0, v0, candidates)
            ascent_wall = time.perf_counter() - ascent_started
            scored_during = stats.phase_seconds.get("scoring", 0.0) - scoring_before
            stats.add_phase("lahc", ascent_wall - scored_during)
            stats.restarts += 1
            stats.lahc_iterations += ascent.iterations
            stats.accepted_moves += ascent.accepted_moves

            best, best_value = ascent.best, ascent.best_value
            if passes_threshold(best_value) and self._is_significant(pair, best, scorer):
                score = scorer.score(best)
                if contracts.checks_enabled():
                    contracts.check_window_feasible(
                        best, n=n, s_min=cfg.s_min, s_max=cfg.s_max,
                        td_max=cfg.td_max, where="Tycos accepted window",
                    )
                    contracts.check_mi_finite(score.mi, where="Tycos accepted window")
                    contracts.check_nmi_range(score.nmi, where="Tycos accepted window")
                accept(WindowResult(window=best, mi=score.mi, nmi=score.nmi), best_value)
                scan_from = max(scan_from + cfg.s_min, best.end + 1, w0.end + 1)
            else:
                scan_from = max(scan_from + cfg.s_min, w0.end + 1)

    def _is_significant(
        self, pair: PairView, window: TimeDelayWindow, scorer: BatchScorer
    ) -> bool:
        """Permutation test: the window's MI must beat every within-window
        shuffle of Y (disabled when ``significance_permutations`` is 0)."""
        b = self.config.significance_permutations
        if b == 0:
            return True
        xw, yw = pair.extract(window)
        # Reuse the scorer's estimator: it already carries the configured
        # k and the process-wide digamma table, so the permutation MIs
        # need no cold per-window estimator.
        estimator = scorer.estimator
        observed = scorer.score(window).mi
        rng = np.random.default_rng(self.config.seed + window.start)
        # All shuffles scored in one stacked pass; rows are bit-identical
        # to scoring each shuffle alone.
        shuffled = np.stack([rng.permutation(yw) for _ in range(b)])
        nulls = estimator.mi_many(np.broadcast_to(xw, shuffled.shape), shuffled)
        return not bool((nulls >= observed).any())

    def _initial_window(
        self,
        scorer: BatchScorer,
        n: int,
        scan_from: int,
        detector: Optional[NoiseDetector],
    ) -> Optional[TimeDelayWindow]:
        cfg = self.config
        if detector is not None:
            return find_initial_window(scorer, cfg, n, scan_from)
        # Plain variants seed with the best minimal window at scan_from.
        probed = best_block_over_delays(scorer, cfg, n, scan_from)
        return None if probed is None else probed[0]


# Variant factories matching the paper's naming -------------------------- #


def tycos_l(config: TycosConfig) -> Tycos:
    """Plain LAHC search (Section 5.2)."""
    return Tycos(config, use_noise=False, use_incremental=False)


def tycos_ln(config: TycosConfig) -> Tycos:
    """LAHC + noise theory (Section 6)."""
    return Tycos(config, use_noise=True, use_incremental=False)


def tycos_lm(config: TycosConfig) -> Tycos:
    """LAHC + efficient incremental MI computation (Section 7)."""
    return Tycos(config, use_noise=False, use_incremental=True)


def tycos_lmn(config: TycosConfig) -> Tycos:
    """LAHC + noise theory + incremental MI (the full system)."""
    return Tycos(config, use_noise=True, use_incremental=True)
