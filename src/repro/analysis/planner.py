"""The execution planner: one search, composable strategies.

The paper's speedups (Sections 5-7) come from *stacking* techniques --
approximation, pruning, incremental rescoring -- but through PR 9 each
technique lived behind its own entry point with its own plumbing: plain
``Tycos.search``, the segmented stitcher, the coarse-to-fine pre-pass.
Their wins could not multiply, because no entry point could express
"coarse-to-fine *inside* each segment" or "multiscale refinement on the
cascade's survivors".  This module replaces that ad-hoc dispatch with an
explicit, serializable :class:`SearchPlan` -- a linearized tree of
stages -- and one executor that runs any well-formed composition.  The
legacy entry points (``Tycos.search``, ``search_segmented``,
``search_multiscale``) are now thin wrappers that build a plan and
execute it here, byte-identical to their pre-planner outputs.

**The stage grammar.**  A plan is a tuple of stages read left to right
as a balanced bracket sequence: *opening* stages (:class:`SegmentStage`,
:class:`CoarsenStage`) wrap everything to their right, a single
:class:`ScanStage` terminates the nest, and each opener is closed -- in
reverse order -- by its matching *closing* stage (:class:`StitchStage`
for a segment split, :class:`RescoreStage` for a coarsen):

========================================  =================================
plan (outermost first)                    meaning
========================================  =================================
``Scan``                                  plain whole-series restart loop
``Segment(k) Scan Stitch``                k overlapping spans, stitched
``Coarsen(f) Scan Rescore``               locate on a 1/f PAA level, then
                                          refine at full resolution
``Coarsen(f) Segment(k) Scan              multiscale whose *coarse* pass
Stitch Rescore``                          is segmented (the legacy
                                          ``coarse_factor + n_segments``)
``Segment(k) Coarsen(f) Scan              coarse-to-fine **inside** each
Rescore Stitch``                          segment (new composition)
========================================  =================================

Each opener may appear at most once, so the executor supports exactly
the compositions whose determinism story is understood; anything else is
rejected by :meth:`SearchPlan.validate` with a message naming the rule
it broke.  Execution preserves every invariant the single strategies
established: jitter is applied once by the outermost stage that sees the
raw pair, inner stages run jitter-zero engines over slices or levels of
the same samples, the stitch is first-span-wins with whole-series
rescoring, and coarse refinement replays the exhaustive restart sequence
over the surviving cells (:mod:`repro.analysis.multiscale` documents why
that is bit-exact).

**Serialization.**  Plans are plain frozen dataclasses: they pickle, and
:meth:`SearchPlan.to_json` / :meth:`SearchPlan.from_json` round-trip a
versioned JSON form -- the precondition for shipping plans to pool
workers today and to remote executors later.
:meth:`SearchPlan.fingerprint` hashes the canonical JSON so a report can
state *which* plan produced it (``PairwiseReport.metadata``).

**Auto-selection.**  :func:`auto_plan` picks a strategy from workload
shape -- series length, pair count, core count -- using the decision
table documented in GUIDE section 14.  The cascade
(:mod:`repro.analysis.cascade`) calls it on the prescreen's *survivors*,
which is how PR 5's evaluation pruning finally reaches the all-pairs
workload.

**Phases.**  :class:`Phase` is the one canonical registry of phase
names for both timing ledgers (``SearchStats.phase_seconds`` and
``PairwiseReport.phase_seconds``); renderers order their output through
:func:`ordered_phases` so two ledgers never disagree on spelling or
order again.

Plan construction is confined to this module by tycoslint rule TY117:
everything else builds plans through the builder functions
(:func:`plain_plan` / :func:`segmented_plan` / :func:`multiscale_plan` /
:func:`composed_plan` / :func:`auto_plan` / :func:`parse_plan_spec`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._types import AnyArray, FloatArray, WindowKey
from repro.analysis.parallel import effective_workers, pooled_map, worker_state
from repro.core.config import TycosConfig
from repro.core.pyramid import (
    RefinementCell,
    build_level,
    coarse_config,
    coarse_length,
    refinement_cell,
)
from repro.core.results import ResultSet, WindowResult
from repro.core.segmentation import Span, overlap_zones, segment_spans
from repro.core.thresholds import BatchScorer
from repro.core.tycos import SearchStats, Tycos, TycosResult
from repro.core.window import PairView, TimeDelayWindow

__all__ = [
    "Phase",
    "ordered_phases",
    "CoarsenStage",
    "SegmentStage",
    "ScanStage",
    "StitchStage",
    "RescoreStage",
    "Stage",
    "SearchPlan",
    "plain_plan",
    "segmented_plan",
    "multiscale_plan",
    "composed_plan",
    "plan_from_config",
    "parse_plan_spec",
    "auto_plan",
    "ExecutionContext",
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
# Stages and the plan


@dataclass(frozen=True)
class CoarsenStage:
    """Opening stage: run the rest of the plan on a 1/``factor`` PAA level.

    Closed by a :class:`RescoreStage`, which maps the coarse hits to
    full-resolution refinement cells and replays the exhaustive restart
    loop over them (:mod:`repro.analysis.multiscale`).

    Attributes:
        factor: full-resolution samples aggregated per coarse cell
            (>= 2; a factor of 1 is spelled as no Coarsen stage at all).
        refine_margin: full-resolution samples added around each coarse
            hit before refinement; ``None`` defers to
            ``config.refinement_margin()`` at execution time, keeping
            the plan config-relative.
    """

    factor: int
    refine_margin: Optional[int] = None

    def __post_init__(self) -> None:
        if self.factor < 2:
            raise ValueError(
                f"CoarsenStage.factor must be >= 2, got {self.factor} "
                "(a plan without a Coarsen stage is the factor-1 search)"
            )
        if self.refine_margin is not None and self.refine_margin < 0:
            raise ValueError(
                f"CoarsenStage.refine_margin must be >= 0, got {self.refine_margin}"
            )


@dataclass(frozen=True)
class SegmentStage:
    """Opening stage: shard the current timeline into overlapping spans.

    Closed by a :class:`StitchStage`.  The rest of the plan runs
    independently per span; ``n_segments=1`` is legal and runs the
    segment machinery over a single span (the sequential reference the
    stitcher tests pin).

    Attributes:
        n_segments: number of overlapping spans (>= 1).  A series too
            short for that many distinct spans runs fewer;
            ``stats.segments`` records the actual count.
    """

    n_segments: int

    def __post_init__(self) -> None:
        if self.n_segments < 1:
            raise ValueError(
                f"SegmentStage.n_segments must be >= 1, got {self.n_segments}"
            )


@dataclass(frozen=True)
class ScanStage:
    """Terminal stage: the plain LAHC restart loop over what it is given --
    the whole pair, one span's slice, or a coarse level."""


@dataclass(frozen=True)
class StitchStage:
    """Closing stage of a :class:`SegmentStage`: translate per-span windows
    to global coordinates, drop exact overlap-zone duplicates
    (first span wins), rescore boundary windows on the whole series, and
    resolve conflicts in fixed ``(score, start, delay)`` priority."""


@dataclass(frozen=True)
class RescoreStage:
    """Closing stage of a :class:`CoarsenStage`: map coarse hits to merged
    full-resolution refinement cells and run the restricted full-resolution
    scan over them, so every reported score is a full-resolution score."""


Stage = Union[CoarsenStage, SegmentStage, ScanStage, StitchStage, RescoreStage]

#: JSON tag of each stage class (and the parse table of :meth:`from_json`).
_STAGE_TAGS: Dict[type, str] = {
    CoarsenStage: "coarsen",
    SegmentStage: "segment",
    ScanStage: "scan",
    StitchStage: "stitch",
    RescoreStage: "rescore",
}

#: The closing stage class each opening stage requires.
_CLOSER_OF: Dict[type, type] = {
    CoarsenStage: RescoreStage,
    SegmentStage: StitchStage,
}


# Internal execution tree: the validated, nested form of a plan.  These
# are module-level dataclasses (not locals) so a plan node can ride the
# pool transport to segment workers.


@dataclass(frozen=True)
class _ScanNode:
    pass


@dataclass(frozen=True)
class _SegmentNode:
    n_segments: int
    inner: "_Node"


@dataclass(frozen=True)
class _CoarsenNode:
    factor: int
    refine_margin: Optional[int]
    inner: "_Node"


_Node = Union[_ScanNode, _SegmentNode, _CoarsenNode]


@dataclass(frozen=True)
class SearchPlan:
    """An explicit, serializable search strategy.

    Attributes:
        stages: the linearized stage sequence (outermost opener first;
            see the grammar table in the module docstring).
        reason: why this plan was chosen -- free text set by
            :func:`auto_plan` and surfaced by ``--explain-plan``; never
            part of the plan's identity (:meth:`fingerprint` ignores
            it).
    """

    stages: Tuple[Stage, ...]
    reason: str = ""

    # -- structure ----------------------------------------------------- #

    def root(self) -> _Node:
        """Parse the stage sequence into the nested execution tree.

        Raises:
            ValueError: when the sequence is not a balanced single-scan
                composition with each opener used at most once.
        """
        stages = list(self.stages)
        openers: List[Stage] = []
        seen: set = set()
        i = 0
        while i < len(stages) and isinstance(stages[i], (CoarsenStage, SegmentStage)):
            kind = type(stages[i])
            if kind in seen:
                raise ValueError(
                    f"invalid plan {self.spec()!r}: {_STAGE_TAGS[kind]} may "
                    "appear at most once"
                )
            seen.add(kind)
            openers.append(stages[i])
            i += 1
        if i >= len(stages) or not isinstance(stages[i], ScanStage):
            raise ValueError(
                f"invalid plan {self.spec()!r}: expected exactly one scan "
                "stage after the opening stages"
            )
        i += 1
        for opener in reversed(openers):
            closer = _CLOSER_OF[type(opener)]
            if i >= len(stages) or not isinstance(stages[i], closer):
                raise ValueError(
                    f"invalid plan {self.spec()!r}: {_STAGE_TAGS[type(opener)]} "
                    f"must be closed by {_STAGE_TAGS[closer]} (closers in "
                    "reverse opener order)"
                )
            i += 1
        if i != len(stages):
            raise ValueError(
                f"invalid plan {self.spec()!r}: trailing stages after the "
                "closers"
            )
        node: _Node = _ScanNode()
        for opener in reversed(openers):
            if isinstance(opener, SegmentStage):
                node = _SegmentNode(n_segments=opener.n_segments, inner=node)
            else:
                assert isinstance(opener, CoarsenStage)
                node = _CoarsenNode(
                    factor=opener.factor,
                    refine_margin=opener.refine_margin,
                    inner=node,
                )
        return node

    def validate(self) -> "SearchPlan":
        """Check the stage grammar; returns ``self`` for chaining."""
        self.root()
        return self

    # -- identity and rendering ---------------------------------------- #

    def spec(self) -> str:
        """Compact strategy spelling, outermost opener first.

        ``plain``, ``segments=4``, ``coarse=8``, ``coarse=8,segments=4``
        (segmented coarse pass), ``segments=4,coarse=8`` (coarse-to-fine
        inside each segment).  The spec is the CLI/round-trip shorthand
        (:func:`parse_plan_spec`); an explicit ``refine_margin`` is part
        of the JSON form and the fingerprint, not of the spec.
        """
        tokens = []
        for stage in self.stages:
            if isinstance(stage, SegmentStage):
                tokens.append(f"segments={stage.n_segments}")
            elif isinstance(stage, CoarsenStage):
                tokens.append(f"coarse={stage.factor}")
        return ",".join(tokens) if tokens else "plain"

    def stage_names(self) -> List[str]:
        """The linearized stage tags (per-stage provenance labels)."""
        return [_STAGE_TAGS[type(stage)] for stage in self.stages]

    def to_json(self) -> str:
        """The versioned canonical JSON form (stable key order)."""
        return json.dumps(self._payload(), sort_keys=True, separators=(",", ":"))

    def _payload(self) -> Dict[str, Any]:
        stages: List[Dict[str, Any]] = []
        for stage in self.stages:
            entry: Dict[str, Any] = {"stage": _STAGE_TAGS[type(stage)]}
            if isinstance(stage, CoarsenStage):
                entry["factor"] = stage.factor
                entry["refine_margin"] = stage.refine_margin
            elif isinstance(stage, SegmentStage):
                entry["n_segments"] = stage.n_segments
            stages.append(entry)
        return {"version": 1, "reason": self.reason, "stages": stages}

    @classmethod
    def from_json(cls, payload: str) -> "SearchPlan":
        """Rebuild (and validate) a plan from :meth:`to_json` output."""
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a JSON plan: {exc}") from None
        if not isinstance(data, dict) or data.get("version") != 1:
            raise ValueError(
                f"unsupported plan payload (want version 1): {payload!r}"
            )
        stages: List[Stage] = []
        for entry in data.get("stages", []):
            tag = entry.get("stage")
            if tag == "coarsen":
                stages.append(
                    CoarsenStage(
                        factor=int(entry["factor"]),
                        refine_margin=(
                            None
                            if entry.get("refine_margin") is None
                            else int(entry["refine_margin"])
                        ),
                    )
                )
            elif tag == "segment":
                stages.append(SegmentStage(n_segments=int(entry["n_segments"])))
            elif tag == "scan":
                stages.append(ScanStage())
            elif tag == "stitch":
                stages.append(StitchStage())
            elif tag == "rescore":
                stages.append(RescoreStage())
            else:
                raise ValueError(f"unknown plan stage tag {tag!r}")
        return cls(stages=tuple(stages), reason=str(data.get("reason", ""))).validate()

    def fingerprint(self) -> str:
        """12-hex-digit digest of the plan's identity (stages only).

        The ``reason`` is advisory and excluded, so the same strategy
        chosen by hand and by :func:`auto_plan` fingerprints alike.
        """
        payload = self._payload()
        payload.pop("reason")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# --------------------------------------------------------------------- #
# Builders (the sanctioned plan constructors outside this module)


def plain_plan(reason: str = "") -> SearchPlan:
    """The classic whole-series restart loop."""
    return SearchPlan(stages=(ScanStage(),), reason=reason)


def segmented_plan(n_segments: int, reason: str = "") -> SearchPlan:
    """Shard the timeline into ``n_segments`` spans and stitch."""
    return SearchPlan(
        stages=(SegmentStage(n_segments=n_segments), ScanStage(), StitchStage()),
        reason=reason,
    ).validate()


def multiscale_plan(
    coarse_factor: int,
    refine_margin: Optional[int] = None,
    n_segments: int = 1,
    reason: str = "",
) -> SearchPlan:
    """Coarse-to-fine over the whole pair; ``n_segments > 1`` shards the
    *coarse pre-pass* (the legacy ``coarse_factor + n_segments``
    combination of ``Tycos.search``)."""
    coarsen = CoarsenStage(factor=coarse_factor, refine_margin=refine_margin)
    if n_segments > 1:
        stages: Tuple[Stage, ...] = (
            coarsen,
            SegmentStage(n_segments=n_segments),
            ScanStage(),
            StitchStage(),
            RescoreStage(),
        )
    else:
        stages = (coarsen, ScanStage(), RescoreStage())
    return SearchPlan(stages=stages, reason=reason).validate()


def composed_plan(
    n_segments: int,
    coarse_factor: int,
    refine_margin: Optional[int] = None,
    reason: str = "",
) -> SearchPlan:
    """Coarse-to-fine **inside** each segment: the timeline is sharded
    into spans and every span runs its own locate-then-refine search;
    the stitcher merges the per-span full-resolution results."""
    return SearchPlan(
        stages=(
            SegmentStage(n_segments=n_segments),
            CoarsenStage(factor=coarse_factor, refine_margin=refine_margin),
            ScanStage(),
            RescoreStage(),
            StitchStage(),
        ),
        reason=reason,
    ).validate()


def plan_from_config(
    config: TycosConfig,
    n_segments: Optional[int] = None,
    coarse_factor: Optional[int] = None,
    refine_margin: Optional[int] = None,
) -> SearchPlan:
    """The plan the legacy argument surface implies.

    Reproduces the pre-planner dispatch precedence of ``Tycos.search``
    exactly: a real ``coarse_factor`` wins (``n_segments`` then shards
    the coarse pre-pass), a real ``n_segments`` alone is the segmented
    search, and everything else is the plain scan.
    """
    segments = config.n_segments if n_segments is None else n_segments
    if segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {segments}")
    factor = config.coarse_factor if coarse_factor is None else coarse_factor
    if factor < 1:
        raise ValueError(f"coarse_factor must be >= 1, got {factor}")
    if factor > 1:
        return multiscale_plan(factor, refine_margin=refine_margin, n_segments=segments)
    if segments > 1:
        return segmented_plan(segments)
    return plain_plan()


def parse_plan_spec(spec: str, config: Optional[TycosConfig] = None) -> SearchPlan:
    """Parse the CLI plan shorthand (the inverse of :meth:`SearchPlan.spec`).

    Comma-separated tokens, outermost stage first: ``plain``,
    ``segments=K``, ``coarse=F``, and their two compositions
    ``coarse=F,segments=K`` (segmented coarse pass) and
    ``segments=K,coarse=F`` (coarse-to-fine inside each segment).
    ``auto`` is *not* handled here -- it needs the workload shape, so
    the CLIs call :func:`auto_plan` for it.

    Args:
        spec: the shorthand string.
        config: unused today; accepted so config-relative shorthands can
            be added without changing call sites.

    Raises:
        ValueError: on an unknown token or a malformed composition.
    """
    text = spec.strip().lower()
    if text in ("", "plain"):
        return plain_plan()
    segments: Optional[int] = None
    factor: Optional[int] = None
    order: List[str] = []
    for token in text.split(","):
        token = token.strip()
        key, _, value = token.partition("=")
        try:
            number = int(value)
        except ValueError:
            raise ValueError(
                f"bad plan token {token!r} in {spec!r}: want segments=K or coarse=F"
            ) from None
        if key == "segments":
            if segments is not None:
                raise ValueError(f"duplicate segments= token in plan spec {spec!r}")
            segments = number
        elif key == "coarse":
            if factor is not None:
                raise ValueError(f"duplicate coarse= token in plan spec {spec!r}")
            factor = number
        else:
            raise ValueError(
                f"unknown plan token {token!r} in {spec!r}: want plain, "
                "segments=K, coarse=F, or a comma-separated composition"
            )
        order.append(key)
    if factor is not None and segments is not None:
        if order[0] == "segments":
            return composed_plan(segments, factor)
        return multiscale_plan(factor, n_segments=segments)
    if factor is not None:
        return multiscale_plan(factor)
    assert segments is not None
    return segmented_plan(segments)


# --------------------------------------------------------------------- #
# Auto-selection


#: Default PAA factor of auto-selected coarse stages when the config
#: does not request one; 8 is the tracked benchmark's factor, deep
#: enough to prune and shallow enough to keep coarse windows scorable.
_AUTO_COARSE_FACTOR = 8

#: Cap on auto-selected segment counts: past ~8 spans the overlap zones
#: (one maximal window footprint each) start covering a long pair twice.
_AUTO_MAX_SEGMENTS = 8


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
    """Pick a strategy from the workload shape (GUIDE section 14 table).

    The decision in priority order:

    1. **Short series -> plain.**  When no viable coarse level exists
       (the 1/f level cannot fit two coarse minimal windows, or the
       timeline is under four maximal-footprint tiles), approximation
       has nothing to locate and segmentation nothing to amortize.
    2. **Spare cores -> composed.**  With more cores than pairs the
       pair-level pool cannot fill the machine, so the timeline itself
       is sharded -- segments fan over cores and every span still prunes
       through its own coarse pre-pass.
    3. **Otherwise -> coarse.**  On one core, or when the pair count
       already saturates the pool, intra-pair segmentation only adds
       stitch overhead; the coarse-to-fine pre-pass is the win that
       needs no extra cores.  This is the branch the cascade's
       survivors take on the tracked single-core host.

    Args:
        series_len: samples per series.
        n_pairs: pairs the plan will be applied to (a cascade passes its
            survivor count).
        n_cores: cores available to this scan.
        config: search parameters (supplies the coarse factor when it
            requests one, and the geometry of the viability check).

    Returns:
        A validated plan whose ``reason`` states which rule fired.
    """
    factor = config.coarse_factor if config.coarse_factor > 1 else _AUTO_COARSE_FACTOR
    cores = max(1, n_cores)
    pairs = max(1, n_pairs)
    if not _coarse_viable(series_len, factor, config):
        return plain_plan(
            reason=(
                f"series of {series_len} samples has no viable 1/{factor} "
                "coarse level to locate on; searching exhaustively"
            )
        )
    if cores > 1 and pairs < cores:
        k = min(cores, _AUTO_MAX_SEGMENTS)
        return composed_plan(
            k,
            factor,
            reason=(
                f"{pairs} pair(s) cannot fill {cores} cores; sharding the "
                f"timeline into {k} segments with a 1/{factor} coarse "
                "pre-pass inside each"
            ),
        )
    return multiscale_plan(
        factor,
        reason=(
            f"{pairs} pair(s) over {cores} core(s): pair-level dispatch "
            f"already saturates the pool, so each pair prunes through a "
            f"1/{factor} coarse pre-pass and refines sequentially"
        ),
    )


# --------------------------------------------------------------------- #
# Execution


class ExecutionContext:
    """Shared per-scan execution state.

    A collection scan executes the same plan against many pairs; the
    context memoizes everything that is pair-independent -- the parsed
    stage tree and the derived engines (segment, refinement, coarse) --
    so survivors after the first pay only the search itself.  Scorers
    and their distance workspaces bind the pair's samples and are
    rebuilt per pair by construction; what *is* shared across pairs
    (the process-wide digamma table) already lives in
    process-wide caches.  Reusing a context never changes results: every
    memoized object is a pure function of the plan and the config.
    """

    def __init__(self) -> None:
        self._roots: Dict[SearchPlan, _Node] = {}
        self._engines: Dict[Tuple[Any, ...], Tycos] = {}

    def root_of(self, plan: SearchPlan) -> _Node:
        """The validated execution tree of ``plan`` (parsed once)."""
        node = self._roots.get(plan)
        if node is None:
            node = plan.root()
            self._roots[plan] = node
        return node

    def derived_engine(
        self, role: str, parent: Tycos, build: Callable[[], Tycos]
    ) -> Tycos:
        """A derived engine memoized by role and parent configuration."""
        key = (
            role,
            parent.config,
            parent.use_noise,
            parent.use_incremental,
            parent.overlap_policy,
            parent.batched_scoring,
        )
        engine = self._engines.get(key)
        if engine is None:
            engine = build()
            self._engines[key] = engine
        return engine


def _segment_engine(engine: Tycos) -> Tycos:
    """The engine each span runs: same variant, jitter off, unsegmented.

    Jitter is already applied to the whole pair before slicing (so spans
    share bit-identical samples), and a span search must never recurse
    into segmentation or a coarse-to-fine pre-pass of its own -- the
    span's plan node decides what runs inside.
    """
    return Tycos(
        engine.config.scaled(jitter=0.0, n_segments=1, coarse_factor=1),
        use_noise=engine.use_noise,
        use_incremental=engine.use_incremental,
        overlap_policy=engine.overlap_policy,
        batched_scoring=engine.batched_scoring,
    )


def _refine_engine(engine: Tycos) -> Tycos:
    """The full-resolution engine the restricted scan runs.

    Jitter is already applied to the whole pair, and the refinement must
    never recurse into segmentation or another coarse-to-fine pre-pass.
    Everything else -- variant flags, overlap policy, delay band, the
    significance gate -- is inherited unchanged, because the refinement
    has to *be* the exhaustive search on the regions it visits.
    """
    return Tycos(
        engine.config.scaled(
            jitter=0.0, n_segments=1, coarse_factor=1, refine_margin=None
        ),
        use_noise=engine.use_noise,
        use_incremental=engine.use_incremental,
        overlap_policy=engine.overlap_policy,
        batched_scoring=engine.batched_scoring,
    )


def _cell_scan_hook(
    cells: Sequence[RefinementCell], s_min: int
) -> Callable[[int], Optional[int]]:
    """The restart filter of the restricted scan.

    Maps each prospective scan position to the next allowed one: inside
    a cell the position passes through untouched; in a pruned gap the
    scan jumps forward in whole ``s_min`` strides -- the exact strides
    the exhaustive search's failed restarts would take -- until it lands
    in a cell again, so the restart phase (``scan_from mod s_min``) is
    preserved across every gap.  ``None`` past the last cell ends the
    scan.
    """
    ordered = sorted(cells, key=lambda c: (c.lo, c.hi))

    def hook(scan_from: int) -> Optional[int]:
        for cell in ordered:
            if scan_from >= cell.hi:
                continue
            if scan_from >= cell.lo:
                return scan_from
            strides = -(-(cell.lo - scan_from) // s_min)
            scan_from += strides * s_min
            if scan_from < cell.hi:
                return scan_from
            # The phase-aligned entry overshot this (tiny) cell; keep the
            # advanced position and try the next cell.
        return None

    return hook


def _merge_cells(cells: Sequence[RefinementCell]) -> List[RefinementCell]:
    """Coalesce cells with overlapping (or touching) regions.

    Merging unions both the region and the delay band, so a merged cell
    still contains everything its parts contained; it exists to stop two
    near-identical coarse hits from keeping the scan in the same stretch
    of timeline twice.
    """
    ordered = sorted(cells, key=lambda c: (c.lo, c.hi, c.delay_lo, c.delay_hi))
    merged: List[RefinementCell] = []
    for cell in ordered:
        if merged and cell.lo <= merged[-1].hi:
            merged[-1] = merged[-1].merge(cell)
        else:
            merged.append(cell)
    return merged


def _pruning_accounts(
    merged: Sequence[RefinementCell], n: int, config: TycosConfig
) -> Tuple[int, int]:
    """(refined, pruned) counts over maximal-footprint timeline tiles.

    The timeline is measured in tiles of ``s_max + td_max`` samples (one
    maximal window footprint).  A tile intersecting no refinement cell
    was pruned: the exhaustive search would have scanned it, the
    multiscale search never touches it at full resolution.
    """
    tile = max(1, config.s_max + config.td_max)
    total = max(1, -(-n // tile))
    covered = set()
    for cell in merged:
        first = cell.lo // tile
        last = min(total - 1, (max(cell.lo, cell.hi - 1)) // tile)
        covered.update(range(first, last + 1))
    return len(merged), total - len(covered)


#: One segment worker task: (submission index, span lo, span hi).
_SpanTask = Tuple[int, int, int]


def _span_task(task: _SpanTask) -> Tuple[int, TycosResult]:
    """Worker task: run one span's plan node, return its tagged result.

    The jittered pair, the span engine, and the span's plan node arrive
    through the :func:`repro.analysis.parallel.pooled_map` transport;
    this module owns no pool or shared-memory lifecycle of its own
    (tycoslint TY101/TY102).
    """
    index, lo, hi = task
    state = worker_state()
    series: Dict[str, FloatArray] = state["series"]
    result = _run_node(
        state["plan_node"],
        state["engine"],
        series["x"][lo:hi],
        series["y"][lo:hi],
        n_jobs=1,
        use_shared_memory=True,
        force_parallel=False,
        context=None,
    )
    return index, result


def _run_segments_parallel(
    inner: _Node,
    seg_engine: Tycos,
    pair: PairView,
    spans: Sequence[Span],
    workers: int,
    use_shared_memory: bool,
) -> List[TycosResult]:
    """Fan the spans over a process pool; results return in span order."""
    tasks: List[_SpanTask] = [(i, lo, hi) for i, (lo, hi) in enumerate(spans)]
    slots: List[Optional[TycosResult]] = [None] * len(tasks)
    for index, result in pooled_map(
        _span_task,
        tasks,
        workers=workers,
        series={"x": pair.x, "y": pair.y},
        extra_state={"engine": seg_engine, "plan_node": inner},
        use_shared_memory=use_shared_memory,
    ):
        slots[index] = result
    out: List[TycosResult] = []
    for slot in slots:
        if slot is None:  # pragma: no cover - map() either fills all or raises
            raise RuntimeError("segmented scan lost a span result")
        out.append(slot)
    return out


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
        stats.workspace_builds += s.workspace_builds
        stats.workspace_hits += s.workspace_hits
        stats.full_windows_evaluated += s.full_windows_evaluated
        stats.coarse_windows_evaluated += s.coarse_windows_evaluated
        stats.refined_cells += s.refined_cells
        stats.cells_pruned += s.cells_pruned
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

    accepted = ResultSet(policy=engine.overlap_policy)
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


def _run_segment_node(
    node: _SegmentNode,
    engine: Tycos,
    x: AnyArray,
    y: AnyArray,
    n_jobs: int,
    use_shared_memory: bool,
    force_parallel: bool,
    context: Optional[ExecutionContext],
) -> TycosResult:
    """Execute a segment split: per-span inner plans, then the stitch."""
    cfg = engine.config
    started = time.perf_counter()
    pair = PairView(x, y, jitter=cfg.jitter, seed=cfg.seed)
    spans = segment_spans(pair.n, node.n_segments, cfg.segment_overlap())
    if context is not None:
        seg_engine = context.derived_engine(
            "segment", engine, lambda: _segment_engine(engine)
        )
    else:
        seg_engine = _segment_engine(engine)
    workers, fell_back = effective_workers(
        n_jobs, len(spans), force_parallel=force_parallel, what="search_segmented"
    )
    if workers <= 1:
        per_segment = [
            _run_node(
                node.inner,
                seg_engine,
                pair.x[lo:hi],
                pair.y[lo:hi],
                n_jobs=1,
                use_shared_memory=use_shared_memory,
                force_parallel=False,
                context=context,
            )
            for lo, hi in spans
        ]
    else:
        per_segment = _run_segments_parallel(
            node.inner, seg_engine, pair, spans, workers, use_shared_memory
        )
    result = _stitch(engine, pair, spans, per_segment, started)
    result.stats.serial_fallback = fell_back
    return result


def _run_coarsen_node(
    node: _CoarsenNode,
    engine: Tycos,
    x: AnyArray,
    y: AnyArray,
    n_jobs: int,
    use_shared_memory: bool,
    force_parallel: bool,
    context: Optional[ExecutionContext],
) -> TycosResult:
    """Execute a coarse-to-fine stage pair: locate on the PAA level
    through the inner plan, then refine the surviving cells exactly."""
    cfg = engine.config
    factor = node.factor
    margin = cfg.refinement_margin() if node.refine_margin is None else node.refine_margin
    if margin < 0:
        raise ValueError(f"refine_margin must be >= 0, got {margin}")

    started = time.perf_counter()
    pair = PairView(x, y, jitter=cfg.jitter, seed=cfg.seed)
    n = pair.n
    c_cfg = coarse_config(cfg, factor)
    level = build_level(pair, factor)
    if context is not None:
        refine_engine = context.derived_engine(
            "refine", engine, lambda: _refine_engine(engine)
        )
    else:
        refine_engine = _refine_engine(engine)
    if level.n < 2 * c_cfg.s_min:
        # A coarse level that cannot even fit two minimal windows cannot
        # locate anything: nothing to prune, search exhaustively.
        result = refine_engine._search_whole(pair.x, pair.y)
        result.stats.runtime_seconds = time.perf_counter() - started
        return result

    def build_coarse() -> Tycos:
        return Tycos(
            c_cfg,
            use_noise=engine.use_noise,
            use_incremental=engine.use_incremental,
            overlap_policy=engine.overlap_policy,
            batched_scoring=engine.batched_scoring,
        )

    if context is not None:
        c_engine = context.derived_engine("coarse", engine, build_coarse)
    else:
        c_engine = build_coarse()
    coarse_started = time.perf_counter()
    coarse = _run_node(
        node.inner,
        c_engine,
        level.x,
        level.y,
        n_jobs=n_jobs,
        use_shared_memory=use_shared_memory,
        force_parallel=force_parallel,
        context=context,
    )
    coarse_seconds = time.perf_counter() - coarse_started

    cells = [
        refinement_cell(r.window, factor, n, cfg.td_max, margin)
        for r in coarse.windows
    ]
    merged = _merge_cells(cells)

    refine_started = time.perf_counter()
    refined = refine_engine._search_whole(
        pair.x, pair.y, scan_hook=_cell_scan_hook(merged, cfg.s_min)
    )
    refine_seconds = time.perf_counter() - refine_started

    # The refinement's stats already describe all full-resolution work
    # (its scorer saw every probe); layer the coarse ledger on top.
    stats = refined.stats
    stats.segments = coarse.stats.segments
    stats.serial_fallback = coarse.stats.serial_fallback
    stats.coarse_windows_evaluated = coarse.stats.windows_evaluated
    stats.windows_evaluated += coarse.stats.windows_evaluated
    stats.refined_cells, stats.cells_pruned = _pruning_accounts(merged, n, cfg)
    stats.add_phase(Phase.COARSE.value, coarse_seconds)
    stats.add_phase(Phase.REFINE.value, refine_seconds)
    stats.runtime_seconds = time.perf_counter() - started
    return TycosResult(windows=refined.windows, stats=stats)


def _run_node(
    node: _Node,
    engine: Tycos,
    x: AnyArray,
    y: AnyArray,
    n_jobs: int,
    use_shared_memory: bool,
    force_parallel: bool,
    context: Optional[ExecutionContext],
) -> TycosResult:
    """Execute one node of the plan tree on ``(x, y)`` with ``engine``.

    Each structural node applies jitter through its own
    :class:`~repro.core.window.PairView` (so the outermost node that
    sees the raw pair jitters once) and hands jitter-zero engines to its
    children -- the exact discipline the single-strategy modules
    established.
    """
    if isinstance(node, _ScanNode):
        return engine._search_whole(x, y)
    if isinstance(node, _SegmentNode):
        return _run_segment_node(
            node, engine, x, y, n_jobs, use_shared_memory, force_parallel, context
        )
    assert isinstance(node, _CoarsenNode)
    return _run_coarsen_node(
        node, engine, x, y, n_jobs, use_shared_memory, force_parallel, context
    )


def execute_plan(
    x: AnyArray,
    y: AnyArray,
    config: Optional[TycosConfig] = None,
    *,
    engine: Optional[Tycos] = None,
    plan: Optional[SearchPlan] = None,
    n_jobs: int = 1,
    use_shared_memory: bool = True,
    force_parallel: bool = False,
    context: Optional[ExecutionContext] = None,
) -> TycosResult:
    """Execute a search plan against one pair.

    The one doorway from a plan to results; the legacy entry points
    (``Tycos.search``, ``search_segmented``, ``search_multiscale``) all
    build a plan and call this.

    Args:
        x: first time series.
        y: second time series (same length).
        config: search parameters (ignored when ``engine`` is given).
        engine: optional preconfigured engine whose variant flags and
            overlap policy every stage inherits (default: TYCOS_LMN over
            ``config``).
        plan: the strategy to execute (default:
            :func:`plan_from_config` over the engine's config, i.e. the
            legacy argument surface).
        n_jobs: worker processes for a segment split (``-1``: all
            cores); coarse refinement is sequential by design.
        use_shared_memory: ship span slices to pool workers through one
            shared-memory block (the default) rather than pickling.
        force_parallel: run pools even on a 1-core host, where the
            default is the serial fallback recorded in
            ``stats.serial_fallback``.
        context: optional :class:`ExecutionContext` shared across the
            pairs of a collection scan.

    Returns:
        A :class:`~repro.core.tycos.TycosResult`; ``stats.plan`` records
        the executed plan's spec and ``stats.phase_seconds`` its
        per-stage walls under the canonical :class:`Phase` names.

    Raises:
        ValueError: when neither ``config`` nor ``engine`` is given, or
            when the plan's stage sequence is malformed.
    """
    if engine is None:
        if config is None:
            raise ValueError("execute_plan needs a config or an engine")
        engine = Tycos(config)
    if plan is None:
        plan = plan_from_config(engine.config)
    root = context.root_of(plan) if context is not None else plan.root()
    result = _run_node(
        root,
        engine,
        x,
        y,
        n_jobs=n_jobs,
        use_shared_memory=use_shared_memory,
        force_parallel=force_parallel,
        context=context,
    )
    result.stats.plan = plan.spec()
    return result


# --------------------------------------------------------------------- #
# Explanation


def explain_plan(plan: SearchPlan, config: TycosConfig) -> str:
    """Render a plan for ``--explain-plan``: stages, parameters, rationale.

    Resolves the config-relative parameters (segment overlap, coarse
    sigma, refinement margin) so the output states what would actually
    run, without running it.
    """
    plan.validate()
    lines = [f"plan: {plan.spec()} (fingerprint {plan.fingerprint()})"]
    depth = 0
    margin_of = config.refinement_margin()
    for index, stage in enumerate(plan.stages, start=1):
        if isinstance(stage, (StitchStage, RescoreStage)):
            depth -= 1
        pad = "  " * depth
        if isinstance(stage, SegmentStage):
            detail = (
                f"segment: shard the timeline into {stage.n_segments} spans "
                f"overlapping by {config.segment_overlap()} samples"
            )
            depth += 1
        elif isinstance(stage, CoarsenStage):
            margin = (
                config.refinement_margin()
                if stage.refine_margin is None
                else stage.refine_margin
            )
            c_cfg = coarse_config(config, stage.factor)
            detail = (
                f"coarsen: locate structure at 1/{stage.factor} resolution "
                f"(relaxed sigma {c_cfg.sigma:g})"
            )
            depth += 1
            # The margin belongs to the closing rescore but is a Coarsen
            # parameter; stash it for the closer's line.
            margin_of = margin
        elif isinstance(stage, ScanStage):
            detail = "scan: LAHC restart loop (seed/noise-walk/ascent per restart)"
        elif isinstance(stage, StitchStage):
            detail = (
                "stitch: dedupe overlap zones first-span-wins, rescore "
                "boundary windows on the whole series"
            )
        else:
            detail = (
                "rescore: refine surviving coarse cells at full resolution "
                f"(margin {margin_of} samples)"
            )
        lines.append(f"  {index}. {pad}{detail}")
    if plan.reason:
        lines.append(f"reason: {plan.reason}")
    return "\n".join(lines)
