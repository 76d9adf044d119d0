"""The execution planner: how one pair is searched.

A :class:`SearchPlan` is a small frozen record, ``SearchPlan(segments,
coarse)``, of which at most one field exceeds 1, so a plan has exactly
three shapes:

==============  =============================================  ============
spec            meaning                                        phases
==============  =============================================  ============
``plain``       the whole-series LAHC restart loop (paper      --
                Algorithms 1/2), what ``Tycos.search`` runs
``segments=K``  K overlapping timeline spans searched          ``stitch``
                independently, then stitched
``coarse=F``    locate on a 1/F PAA level, then refine the     ``coarse``,
                surviving cells exactly at full resolution     ``refine``
==============  =============================================  ============

:func:`execute_plan` runs a plan through one of two flat stage
functions.  The stages do not compose: neither composed ordering was
measured to win, so the record cannot spell one.

**The segment split.**  A pairwise pool cannot help one long pair; the
split shards the pair itself.  ``[0, n)`` is covered by up to K spans
overlapping by :meth:`~repro.core.config.TycosConfig.segment_overlap`
samples, so every feasible window's footprint lies whole inside at least
one span (the containment lemma of :mod:`repro.core.segmentation`) and
no window is lost to a boundary.  Determinism is the design centre:

* Jitter is applied **once**, to the whole pair, before slicing; every
  span searches a slice of the same jittered arrays with a jitter-free
  engine, so a window seen by two spans sees bit-identical samples.
* The stitcher runs on span-ordered results: exact duplicates from
  overlap zones drop first-span-wins, every surviving overlap-zone
  window is **rescored on the whole series** by one shared scorer, and
  cross-span conflicts resolve through
  :class:`~repro.core.results.ResultSet` in fixed ``(score, start,
  delay)`` priority.
* The sequential path (``n_jobs=1``) is the reference stitcher that
  defines the semantics; the process-pool path ships the jittered pair
  once through shared memory and reproduces it bit-exactly for every
  worker count.

Segmenting changes which restarts are attempted (each span rescans from
its own start), so ``segments=K`` may legitimately return different
windows than ``plain``; what never changes is the parallel/sequential
equality at a fixed K.

**The coarse locate.**  The cost of a search is how many
full-resolution KSG estimates it makes, and the paper's multi-scale
procedure cuts that count by locating coarsely and refining exactly:

1. The jittered pair is PAA-downsampled by F (:mod:`repro.core.pyramid`)
   and the unchanged restart loop runs on that level under a relaxed
   threshold, ``sigma * coarse_sigma_ratio`` (block means dilute MI, so
   the locate pass under-bids to avoid false dismissals).
2. Each coarse hit maps exactly -- the pyramid containment lemma -- to a
   full-resolution region (:func:`~repro.core.pyramid.refinement_cell`),
   widened by ``config.refinement_margin()`` to absorb coarse positioning
   error; overlapping regions merge.  Then the **plain full-resolution
   search itself** runs over the whole pair, every delay included, with
   one change: restart positions outside every region are skipped, the
   scan jumping to the next region in whole ``s_min`` strides.

*Why the surviving windows are bit-identical to exhaustive search.*
The refinement is the plain search minus some restarts.  Every restart
is a pure function of its scan position -- the seed probe, the noise
walk, the LAHC history generator (seeded from ``(config.seed,
scan_from)``) and every score come from the same whole-pair scorer the
exhaustive search uses.  For the plain-seeded variants a restart in a
quiet region advances the scan by exactly ``s_min``, so the scan phase
(``scan_from mod s_min``) is invariant across a pruned gap and the
phase-preserving jump lands on precisely the positions the exhaustive
search would reach.  The two searches then differ only where the coarse
pass dismissed a region outright, which the relaxed threshold and the
margin (one maximal window footprint by default) exist to make rare.
``stats.cells_pruned`` counts the maximal-footprint tiles never touched
at full resolution, and ``stats.full_windows_evaluated`` is the count
the pruning is measured on.

**Auto-selection.**  :func:`auto_plan` returns ``plain`` when the
series has no viable coarse level and ``coarse=8`` otherwise (GUIDE
section 14).  The cascade (:mod:`repro.analysis.cascade`) calls it on
its stage-3 survivors.

**Phases.**  :class:`Phase` is the one registry of phase names for both
timing ledgers (``SearchStats.phase_seconds`` and
``PairwiseReport.phase_seconds``); renderers order their output through
:func:`ordered_phases`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._types import AnyArray, FloatArray, WindowKey
from repro.analysis.parallel import effective_workers, pooled_map, worker_state
from repro.core.config import TycosConfig
from repro.core.pyramid import build_level, coarse_config, coarse_length, refinement_cell
from repro.core.results import ResultSet, WindowResult
from repro.core.segmentation import Span, merge_spans, overlap_zones, segment_spans
from repro.core.thresholds import BatchScorer
from repro.core.tycos import SearchStats, Tycos, TycosResult
from repro.core.window import PairView, TimeDelayWindow

__all__ = [
    "Phase",
    "ordered_phases",
    "SearchPlan",
    "parse_plan_spec",
    "auto_plan",
    "execute_plan",
    "explain_plan",
]


class Phase(str, Enum):
    """Canonical phase names of both timing ledgers.

    Declaration order is the canonical display order: stage walls first
    (``coarse`` / ``refine`` contain the restart-loop time of their
    stage, so rows are a profile, not a partition), then the
    restart-loop breakdown, then the segment stitch, then the
    scan-level phases of a cascade report.  ``SearchStats.add_phase``
    writers in :mod:`repro.core.tycos` spell these values as literals
    (core must not import the analysis layer); the planner tests assert
    every recorded phase resolves to a member of this enum.
    """

    COARSE = "coarse"
    REFINE = "refine"
    SEEDING = "seeding"
    LAHC = "lahc"
    SCORING = "scoring"
    STITCH = "stitch"
    SCREEN = "screen"
    SEARCH = "search"


def ordered_phases(phase_seconds: Dict[str, float]) -> List[str]:
    """The ledger's phase names in canonical order.

    Known phases come first, in :class:`Phase` declaration order;
    unknown names (there should be none -- the planner tests enforce
    it) follow alphabetically so a stray phase is rendered rather than
    dropped.
    """
    canon = [p.value for p in Phase if p.value in phase_seconds]
    return canon + sorted(p for p in phase_seconds if p not in set(canon))


# --------------------------------------------------------------------- #
# The plan


@dataclass(frozen=True)
class SearchPlan:
    """How one pair is searched: ``plain``, ``segments=K`` or ``coarse=F``.

    Attributes:
        segments: overlapping timeline spans searched independently and
            stitched (>= 1; 1 is the plain search).  A series too short
            for that many distinct spans runs fewer; ``stats.segments``
            records the actual count.
        coarse: PAA samples per cell of the level the locate pass runs
            on (>= 1; 1 is the plain search).
        reason: why this plan was chosen -- free text set by
            :func:`auto_plan` and printed by ``--explain-plan``.

    Raises:
        ValueError: on a count below 1, or when both ``segments`` and
            ``coarse`` exceed 1.
    """

    segments: int = 1
    coarse: int = 1
    reason: str = ""

    def __post_init__(self) -> None:
        if self.segments < 1:
            raise ValueError(f"SearchPlan.segments must be >= 1, got {self.segments}")
        if self.coarse < 1:
            raise ValueError(f"SearchPlan.coarse must be >= 1, got {self.coarse}")
        if self.segments > 1 and self.coarse > 1:
            raise ValueError(
                f"SearchPlan(segments={self.segments}, coarse={self.coarse}): at "
                "most one of segments and coarse may exceed 1"
            )

    def spec(self) -> str:
        """The CLI spelling: ``plain``, ``segments=K`` or ``coarse=F``."""
        if self.coarse > 1:
            return f"coarse={self.coarse}"
        if self.segments > 1:
            return f"segments={self.segments}"
        return "plain"


def parse_plan_spec(spec: str) -> SearchPlan:
    """Parse the CLI plan spelling (the inverse of :meth:`SearchPlan.spec`).

    ``plain`` (or an empty string), ``segments=K`` or ``coarse=F``.
    ``auto`` is *not* handled here -- it needs the workload shape, so
    the CLIs call :func:`auto_plan` for it.

    Raises:
        ValueError: on an unknown, malformed or duplicate token, or on
            both ``segments`` and ``coarse`` above 1.
    """
    text = spec.strip().lower()
    if text in ("", "plain"):
        return SearchPlan()
    counts: Dict[str, int] = {}
    for token in text.split(","):
        token = token.strip()
        key, _, value = token.partition("=")
        try:
            number = int(value)
        except ValueError:
            raise ValueError(
                f"bad plan token {token!r} in {spec!r}: want segments=K or coarse=F"
            ) from None
        if key not in ("segments", "coarse"):
            raise ValueError(
                f"unknown plan token {token!r} in {spec!r}: want plain, "
                "segments=K or coarse=F"
            )
        if key in counts:
            raise ValueError(f"duplicate {key}= token in plan spec {spec!r}")
        counts[key] = number
    return SearchPlan(segments=counts.get("segments", 1), coarse=counts.get("coarse", 1))


# --------------------------------------------------------------------- #
# Auto-selection


#: PAA factor of auto-selected coarse plans; 8 is the tracked
#: benchmark's factor, deep enough to prune and shallow enough to keep
#: coarse windows scorable.
_AUTO_COARSE_FACTOR = 8


def _coarse_viable(series_len: int, factor: int, config: TycosConfig) -> bool:
    """Whether a 1/``factor`` level of this series can locate anything.

    Mirrors the executor's degenerate-level guard (a coarse level must
    fit two coarse minimal windows) and additionally requires a timeline
    long enough that pruning has something to prune: at least four
    maximal-footprint tiles, the unit ``stats.cells_pruned`` counts.
    """
    if series_len < 1:
        return False
    c_cfg = coarse_config(config, factor)
    if coarse_length(series_len, factor) < 2 * c_cfg.s_min:
        return False
    tile = max(1, config.s_max + config.td_max)
    return series_len >= 4 * tile


def auto_plan(
    series_len: int,
    n_pairs: int,
    n_cores: int,
    config: TycosConfig,
) -> SearchPlan:
    """Pick a plan from the workload shape (GUIDE section 14 table).

    1. **No viable coarse level -> plain.**  When the 1/8 level cannot
       fit two coarse minimal windows, or the timeline is under four
       maximal-footprint tiles, the locate pass has nothing to locate.
    2. **Otherwise -> coarse=8.**

    ``n_pairs`` and ``n_cores`` do not affect the choice: the only rule
    that read them sharded the timeline when cores outnumbered pairs,
    and no measurement showed that shape winning.  They stay in the
    signature because the callers (``scan_pairs``, ``cascade_scan``,
    the CLIs and the benchmark workloads) pass the workload shape, which
    choosing the factor from measured layer timings will need.

    Args:
        series_len: samples per series.
        n_pairs: pairs the plan will be applied to (unused).
        n_cores: cores available to the scan (unused).
        config: search parameters (the geometry of the viability check).

    Returns:
        A plan whose ``reason`` states which rule fired.
    """
    factor = _AUTO_COARSE_FACTOR
    if not _coarse_viable(series_len, factor, config):
        return SearchPlan(
            reason=(
                f"series of {series_len} samples has no viable 1/{factor} "
                "coarse level to locate on; searching exhaustively"
            )
        )
    return SearchPlan(
        coarse=factor,
        reason=(
            f"series of {series_len} samples has a viable 1/{factor} coarse "
            "level: locate on it, then refine the surviving cells at full "
            "resolution"
        ),
    )


# --------------------------------------------------------------------- #
# Execution


def _jitter_free(engine: Tycos, config: Optional[TycosConfig] = None) -> Tycos:
    """``engine``'s variant over ``config`` (default: its own) with jitter off.

    Every stage applies jitter once, to the whole pair, before slicing or
    aggregating it; the engines it hands the slices, the coarse level or
    the refinement must not jitter again.  The variant flags and the
    significance gate are inherited unchanged.
    """
    cfg = engine.config if config is None else config
    return Tycos(
        cfg.scaled(jitter=0.0),
        use_noise=engine.use_noise,
        use_incremental=engine.use_incremental,
    )


def _span_task(span: Span) -> TycosResult:
    """Worker task: search one ``[lo, hi)`` span of the jittered pair.

    The jittered pair and the span engine arrive through the
    :func:`repro.analysis.parallel.pooled_map` transport; this module
    owns no pool or shared-memory lifecycle of its own (tycoslint
    TY101/TY102).
    """
    lo, hi = span
    state = worker_state()
    series: Dict[str, FloatArray] = state["series"]
    engine: Tycos = state["engine"]
    return engine._search_whole(series["x"][lo:hi], series["y"][lo:hi])


def _stitch(
    engine: Tycos,
    pair: PairView,
    spans: Sequence[Span],
    per_segment: Sequence[TycosResult],
    started: float,
) -> TycosResult:
    """Merge per-span results into one deterministic global result.

    Windows are translated to global coordinates in span order; exact
    duplicates (the same window found by two spans sharing an overlap
    zone) are dropped first-span-wins.  Windows whose X interval touches
    an overlap zone -- the only ones that can duplicate or conflict
    across spans, since two spans share no other samples -- are rescored
    on the whole series by one shared scorer, so their reported scores
    and their conflict-resolution values are independent of which span
    found them; the survivors enter the result set in fixed
    ``(score, start, delay)`` priority through
    :meth:`~repro.core.results.ResultSet.insert_prioritized`.  Interior
    windows cannot conflict cross-span (their X interval lies in exactly
    one span, and within-span conflicts were already resolved), so they
    are inserted as-is.
    """
    stitch_started = time.perf_counter()
    stats = SearchStats(segments=len(spans))
    for seg in per_segment:
        s = seg.stats
        stats.windows_evaluated += s.windows_evaluated
        stats.cache_hits += s.cache_hits
        stats.restarts += s.restarts
        stats.lahc_iterations += s.lahc_iterations
        stats.accepted_moves += s.accepted_moves
        stats.noise_prunes += s.noise_prunes
        stats.mi_full_searches += s.mi_full_searches
        stats.mi_incremental_updates += s.mi_incremental_updates
        stats.full_windows_evaluated += s.full_windows_evaluated
        for phase, seconds in s.phase_seconds.items():
            stats.add_phase(phase, seconds)

    candidates: Dict[WindowKey, WindowResult] = {}
    for (lo, _hi), seg in zip(spans, per_segment):
        for r in seg.windows:
            w = r.window
            global_window = TimeDelayWindow(
                start=w.start + lo, end=w.end + lo, delay=w.delay
            )
            key = global_window.key()
            if key in candidates:
                stats.stitch_dedups += 1
                continue
            candidates[key] = WindowResult(window=global_window, mi=r.mi, nmi=r.nmi)

    zones = overlap_zones(list(spans))

    def touches_zone(w: TimeDelayWindow) -> bool:
        return any(w.start < z_hi and w.end >= z_lo for z_lo, z_hi in zones)

    accepted = ResultSet()
    boundary: List[WindowResult] = []
    for r in candidates.values():
        if touches_zone(r.window):
            boundary.append(r)
        else:
            accepted.insert(r)
    if boundary:
        rescorer = BatchScorer(pair, engine.config)
        scored: List[Tuple[WindowResult, float]] = []
        for r in boundary:
            score = rescorer.score(r.window)
            value = score.ratio if engine.config.use_normalized else score.mi
            stats.stitch_rescores += 1
            scored.append(
                (WindowResult(window=r.window, mi=score.mi, nmi=score.nmi), value)
            )
        stats.windows_evaluated += rescorer.evaluations
        stats.full_windows_evaluated += rescorer.evaluations
        accepted.insert_prioritized(scored)

    stats.add_phase(Phase.STITCH.value, time.perf_counter() - stitch_started)
    stats.runtime_seconds = time.perf_counter() - started
    return TycosResult(windows=accepted.results(), stats=stats)


def _segmented_search(
    engine: Tycos,
    x: AnyArray,
    y: AnyArray,
    n_segments: int,
    n_jobs: int,
) -> TycosResult:
    """The segment split: search every span, in-process or pooled, then stitch."""
    cfg = engine.config
    started = time.perf_counter()
    pair = PairView(x, y, jitter=cfg.jitter, seed=cfg.seed)
    spans = segment_spans(pair.n, n_segments, cfg.segment_overlap())
    span_engine = _jitter_free(engine)
    workers = effective_workers(n_jobs, len(spans))
    if workers == 1:
        per_segment = [
            span_engine._search_whole(pair.x[lo:hi], pair.y[lo:hi]) for lo, hi in spans
        ]
    else:
        per_segment = pooled_map(
            _span_task,
            spans,
            workers=workers,
            series={"x": pair.x, "y": pair.y},
            extra_state={"engine": span_engine},
        )
    return _stitch(engine, pair, spans, per_segment, started)


def _cell_scan_hook(cells: Sequence[Span], s_min: int) -> Callable[[int], Optional[int]]:
    """The restart filter of the restricted scan.

    Maps each prospective scan position to the next allowed one: inside
    a cell (a half-open refinement region) the position passes through
    untouched; in a pruned gap the scan jumps forward in whole ``s_min``
    strides -- the exact strides the exhaustive search's failed restarts
    would take -- until it lands in a cell again, so the restart phase
    (``scan_from mod s_min``) is preserved across every gap.  ``None``
    past the last cell ends the scan.
    """
    ordered = sorted(cells)

    def hook(scan_from: int) -> Optional[int]:
        for lo, hi in ordered:
            if scan_from >= hi:
                continue
            if scan_from >= lo:
                return scan_from
            strides = -(-(lo - scan_from) // s_min)
            scan_from += strides * s_min
            if scan_from < hi:
                return scan_from
            # The phase-aligned entry overshot this (tiny) cell; keep the
            # advanced position and try the next cell.
        return None

    return hook


def _pruning_accounts(merged: Sequence[Span], n: int, config: TycosConfig) -> Tuple[int, int]:
    """(refined, pruned) counts over maximal-footprint timeline tiles.

    The timeline is measured in tiles of ``s_max + td_max`` samples (one
    maximal window footprint).  A tile intersecting no refinement cell
    was pruned: the exhaustive search would have scanned it, the
    coarse-to-fine search never touches it at full resolution.
    """
    tile = max(1, config.s_max + config.td_max)
    total = max(1, -(-n // tile))
    covered = set()
    for lo, hi in merged:
        first = lo // tile
        last = min(total - 1, (max(lo, hi - 1)) // tile)
        covered.update(range(first, last + 1))
    return len(merged), total - len(covered)


def _coarse_search(engine: Tycos, x: AnyArray, y: AnyArray, factor: int) -> TycosResult:
    """The coarse locate: search the 1/``factor`` level, then refine exactly."""
    cfg = engine.config
    started = time.perf_counter()
    pair = PairView(x, y, jitter=cfg.jitter, seed=cfg.seed)
    n = pair.n
    c_cfg = coarse_config(cfg, factor)
    level = build_level(pair, factor)
    refine_engine = _jitter_free(engine)
    if level.n < 2 * c_cfg.s_min:
        # A coarse level that cannot even fit two minimal windows cannot
        # locate anything: nothing to prune, search exhaustively.
        result = refine_engine._search_whole(pair.x, pair.y)
        result.stats.runtime_seconds = time.perf_counter() - started
        return result

    coarse_started = time.perf_counter()
    coarse = _jitter_free(engine, c_cfg)._search_whole(level.x, level.y)
    coarse_seconds = time.perf_counter() - coarse_started

    # Merging stops two near-identical coarse hits from keeping the scan
    # in the same stretch of timeline twice.
    margin = cfg.refinement_margin()
    merged = merge_spans(refinement_cell(r.window, factor, n, margin) for r in coarse.windows)
    refine_started = time.perf_counter()
    refined = refine_engine._search_whole(
        pair.x, pair.y, scan_hook=_cell_scan_hook(merged, cfg.s_min)
    )
    refine_seconds = time.perf_counter() - refine_started

    # The refinement's stats already describe all full-resolution work
    # (its scorer saw every probe); layer the coarse ledger on top.
    stats = refined.stats
    stats.coarse_windows_evaluated = coarse.stats.windows_evaluated
    stats.windows_evaluated += coarse.stats.windows_evaluated
    stats.refined_cells, stats.cells_pruned = _pruning_accounts(merged, n, cfg)
    stats.add_phase(Phase.COARSE.value, coarse_seconds)
    stats.add_phase(Phase.REFINE.value, refine_seconds)
    stats.runtime_seconds = time.perf_counter() - started
    return TycosResult(windows=refined.windows, stats=stats)


def execute_plan(
    x: AnyArray,
    y: AnyArray,
    config: Optional[TycosConfig] = None,
    *,
    engine: Optional[Tycos] = None,
    plan: Optional[SearchPlan] = None,
    n_jobs: int = 1,
) -> TycosResult:
    """Search one pair the way ``plan`` says.

    Args:
        x: first time series.
        y: second time series (same length).
        config: search parameters (ignored when ``engine`` is given).
        engine: optional preconfigured engine whose variant flags every
            stage inherits (default: TYCOS_LMN over ``config``).
        plan: the plan to run (default: ``plain``).
        n_jobs: worker processes for the spans of a ``segments=K`` plan
            (``-1``: all cores), capped at the host's cores and at the
            span count.  1 runs the sequential reference stitcher; any
            other count returns a bit-identical result.  The other
            shapes are sequential: the coarse refinement's restart phase
            chains through the timeline, which is what makes it
            reproduce the exhaustive restart sequence.

    Returns:
        A :class:`~repro.core.tycos.TycosResult`; ``stats.plan`` records
        the plan's spec and ``stats.phase_seconds`` its stage walls
        under the canonical :class:`Phase` names.

    Raises:
        ValueError: when neither ``config`` nor ``engine`` is given.
    """
    if engine is None:
        if config is None:
            raise ValueError("execute_plan needs a config or an engine")
        engine = Tycos(config)
    if plan is None:
        plan = SearchPlan()
    if plan.coarse > 1:
        result = _coarse_search(engine, x, y, plan.coarse)
    elif plan.segments > 1:
        result = _segmented_search(engine, x, y, plan.segments, n_jobs)
    else:
        result = engine._search_whole(x, y)
    result.stats.plan = plan.spec()
    return result


# --------------------------------------------------------------------- #
# Explanation


def explain_plan(plan: SearchPlan, config: TycosConfig) -> str:
    """Render a plan for ``--explain-plan``: its steps, parameters and reason.

    Resolves the config-relative parameters (segment overlap, coarse
    sigma, refinement margin) so the output states what would actually
    run, without running it.
    """
    steps = ["scan: LAHC restart loop (seed/noise-walk/ascent per restart)"]
    if plan.coarse > 1:
        c_cfg = coarse_config(config, plan.coarse)
        steps.insert(
            0,
            f"coarsen: locate structure at 1/{plan.coarse} resolution "
            f"(relaxed sigma {c_cfg.sigma:g})",
        )
        steps.append(
            "rescore: refine surviving coarse cells at full resolution "
            f"(margin {config.refinement_margin()} samples)"
        )
    elif plan.segments > 1:
        steps.insert(
            0,
            f"segment: shard the timeline into {plan.segments} spans "
            f"overlapping by {config.segment_overlap()} samples",
        )
        steps.append(
            "stitch: dedupe overlap zones first-span-wins, rescore "
            "boundary windows on the whole series"
        )
    lines = [f"plan: {plan.spec()}"]
    lines.extend(f"  {index}. {step}" for index, step in enumerate(steps, start=1))
    if plan.reason:
        lines.append(f"reason: {plan.reason}")
    return "\n".join(lines)
