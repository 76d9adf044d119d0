"""Pairwise correlation scanning across a collection of time series.

The paper's energy study "creates pairwise time series from 72 plugs, and
applies TYCOS ... on each time series pair" (Section 8.3 B).  This module
provides that outer loop as a first-class API: give it a named collection
of series, it runs TYCOS on every (ordered or unordered) pair, ranks the
pairs by their strongest extracted correlation, and reports per-pair
window counts and delay ranges -- the raw material of a Table-3-style
summary over an entire dataset.

:func:`scan_pairs` is the one entry point, serial or pooled: with
``n_jobs`` workers it maps chunks of pairs over the process pool of
:mod:`repro.analysis.parallel`, and the report is identical for every
worker count.  Pruning obviously unrelated pairs before the search, which
matters when the number of pairs is quadratic in the number of sensors,
is the job of :func:`repro.analysis.cascade.cascade_scan`, which runs its
screens and then this scan on the survivors.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._types import FloatArray
from repro.analysis import planner
from repro.analysis.parallel import (
    effective_workers,
    pooled_map,
    resolve_n_jobs,
    worker_state,
)
from repro.core.config import TycosConfig
from repro.core.tycos import Tycos, TycosResult
from repro.reporting import format_table, title

__all__ = [
    "PairFinding",
    "PairFailure",
    "PairwiseReport",
    "scan_pairs",
    "checked_pairs",
    "resolve_plan",
    "timed",
]


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` and return ``(result, wall seconds)``.

    The one wall-clock helper of the scanning layer: report modules
    (tycoslint TY114, e.g. :mod:`repro.analysis.cascade`) must not call
    clocks themselves, so they time their phases through this function
    and record only the *durations* -- which every serializer already
    excludes from byte-compared payloads -- in
    :attr:`PairwiseReport.phase_seconds`.
    """
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@dataclass(frozen=True)
class PairFinding:
    """The outcome of one pair's search.

    Attributes:
        source: name of the first series (X side).
        target: name of the second series (Y side).
        windows: number of extracted windows.
        best_nmi: normalized MI of the strongest window (0 when none).
        delay_range: (min, max) delay over the windows, or None.
    """

    source: str
    target: str
    windows: int
    best_nmi: float
    delay_range: Optional[Tuple[int, int]]


@dataclass(frozen=True)
class PairFailure:
    """A pair whose search raised instead of completing.

    One poisoned pair (a NaN column, a degenerate sensor) must not kill a
    quadratic scan hours in, so per-pair errors are contained and reported
    here rather than propagated.

    Attributes:
        source: name of the first series (X side).
        target: name of the second series (Y side).
        error: ``ExceptionType: message`` of what went wrong.
    """

    source: str
    target: str
    error: str


@dataclass
class PairwiseReport:
    """Ranked findings of a pairwise scan.

    ``notes`` records execution advisories that don't affect the results
    themselves -- e.g. that a parallel request was served serially on a
    single-core host -- so a scan's performance is attributable from the
    report alone.  ``metadata`` records which search plan produced the
    findings (``plan``, the plan's spec) when a plan ran, and is empty
    otherwise.

    The ``pairs_*`` counters are the pruning ledger of a cascade scan
    (:func:`repro.analysis.cascade.cascade_scan`): how many pairs the
    screens looked at, how many each stage rejected, and how many reached
    the full TYCOS search.  ``skipped`` lists the pairs the screens
    pruned, in scan order.  A plain :func:`scan_pairs` leaves all of them
    empty.

    ``phase_seconds`` is the wall-clock side of that ledger: per-phase
    durations (``"screen"``, ``"search"``) a cascade records so
    screen-vs-search cost is attributable from the report alone.  Like
    ``notes`` it never affects results; the default :meth:`to_text`
    rendering omits it so byte-compared report payloads stay
    clock-free (pass ``include_timings=True``, or ``--profile`` on the
    CLI, to see it).
    """

    findings: List[PairFinding] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    failures: List[PairFailure] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metadata: Dict[str, str] = field(default_factory=dict)
    pairs_screened: int = 0
    pairs_pruned_fft: int = 0
    pairs_pruned_nmi: int = 0
    pairs_searched: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def correlated(self) -> List[PairFinding]:
        """Pairs with at least one extracted window, strongest first."""
        hits = [f for f in self.findings if f.windows > 0]
        return sorted(hits, key=lambda f: -f.best_nmi)

    def top(self, k: int) -> List[PairFinding]:
        """The ``k`` strongest correlated pairs (ties keep scan order)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return self.correlated()[:k]

    def finding(self, source: str, target: str) -> PairFinding:
        """The finding of one pair (order-sensitive)."""
        for f in self.findings:
            if (f.source, f.target) == (source, target):
                return f
        raise KeyError(f"pair ({source!r}, {target!r}) was not scanned")

    def to_text(self, include_timings: bool = False) -> str:
        """Render the correlated pairs as a summary table.

        ``include_timings`` appends the :attr:`phase_seconds` ledger;
        the default omits it so the rendering of two identical scans is
        byte-identical however long they took.
        """
        headers = ["pair", "windows", "best nmi", "delay range"]
        rows: List[List[object]] = []
        for f in self.correlated():
            delays = "-" if f.delay_range is None else f"[{f.delay_range[0]}, {f.delay_range[1]}]"
            rows.append([f"{f.source} -> {f.target}", f.windows, f"{f.best_nmi:.2f}", delays])
        body = format_table(headers, rows)
        failed = (
            f"\n({len(self.failures)} pairs failed; see report.failures)" if self.failures else ""
        )
        cascade = (
            f"\n(cascade: {self.pairs_screened} pairs screened, "
            f"{self.pairs_pruned_fft} pruned by the FFT screen, "
            f"{self.pairs_pruned_nmi} by the coarse-NMI screen, "
            f"{self.pairs_searched} searched)"
            if self.pairs_screened
            else ""
        )
        notes = "".join(f"\n(note: {note})" for note in self.notes)
        timings = ""
        if include_timings and self.phase_seconds:
            timings = "".join(
                f"\n(phase {phase}: {self.phase_seconds[phase]:.3f}s)"
                for phase in planner.ordered_phases(self.phase_seconds)
            )
        return (
            title("Pairwise correlation scan")
            + "\n" + body + failed + cascade + notes + timings
        )


def _search_pair(
    source: str,
    target: str,
    series: Dict[str, FloatArray],
    engine: Tycos,
    plan: Optional[planner.SearchPlan],
) -> Union[PairFinding, PairFailure]:
    """Search one pair and summarize its windows, containing any error.

    Shared by the in-process loop and the pool workers so both paths apply
    the identical procedure.  Without a ``plan`` the pair runs
    ``engine.search``; with one, the plan executes through
    :func:`repro.analysis.planner.execute_plan`.  A search that raises is
    returned as a :class:`PairFailure` rather than ending the scan.
    """
    x, y = series[source], series[target]
    try:
        if plan is None:
            result: TycosResult = engine.search(x, y)
        else:
            result = planner.execute_plan(x, y, engine=engine, plan=plan)
    except Exception as exc:  # noqa: BLE001 - containment is the point
        return PairFailure(source=source, target=target, error=f"{type(exc).__name__}: {exc}")
    return PairFinding(
        source=source,
        target=target,
        windows=len(result.windows),
        best_nmi=max((r.nmi for r in result.windows), default=0.0),
        delay_range=result.delay_range(),
    )


def _scan_chunk(chunk: Sequence[Tuple[str, str]]) -> List[Union[PairFinding, PairFailure]]:
    """Worker task: search a chunk of pairs with the state the pool shipped."""
    state = worker_state()
    return [
        _search_pair(source, target, state["series"], state["engine"], state["plan"])
        for source, target in chunk
    ]


def checked_pairs(
    series: Dict[str, FloatArray], pairs: Optional[Iterable[Tuple[str, str]]]
) -> List[Tuple[str, str]]:
    """The pairs a scan of ``series`` covers, after checking the collection.

    ``pairs=None`` means every unordered combination of the collection's
    names.  Shared by :func:`scan_pairs` and
    :func:`repro.analysis.cascade.cascade_scan`.

    Raises:
        ValueError: when the series do not all share one length.
        KeyError: when a pair names a series the collection lacks.
    """
    names = list(series)
    lengths = {series[name].size for name in names}
    if len(lengths) > 1:
        raise ValueError(f"all series must share a length, got {sorted(lengths)}")
    pair_list = list(combinations(names, 2)) if pairs is None else list(pairs)
    for source, target in pair_list:
        if source not in series or target not in series:
            raise KeyError(f"unknown series in pair ({source!r}, {target!r})")
    return pair_list


def resolve_plan(
    plan: Union[planner.SearchPlan, str, None],
    config: TycosConfig,
    series_len: int,
    n_pairs: int,
    n_jobs: Optional[int],
) -> Optional[planner.SearchPlan]:
    """Resolve a ``plan=`` argument to a concrete plan (or ``None``).

    ``None`` passes through (the plain ``engine.search``); the string
    ``"auto"`` asks :func:`repro.analysis.planner.auto_plan` to pick from
    the workload shape; any other string is parsed as the CLI plan
    spelling (:func:`repro.analysis.planner.parse_plan_spec`); a
    :class:`~repro.analysis.planner.SearchPlan` is used as-is.
    """
    if plan is None:
        return None
    if isinstance(plan, planner.SearchPlan):
        return plan
    if plan.strip().lower() == "auto":
        cores = 1 if n_jobs is None or n_jobs == 1 else resolve_n_jobs(n_jobs)
        return planner.auto_plan(series_len, n_pairs, cores, config)
    return planner.parse_plan_spec(plan)


def scan_pairs(
    series: Dict[str, FloatArray],
    config: TycosConfig,
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
    engine: Optional[Tycos] = None,
    n_jobs: Optional[int] = None,
    store_path: Optional[Union[str, Path]] = None,
    plan: Union[planner.SearchPlan, str, None] = None,
    force_parallel: bool = False,
) -> PairwiseReport:
    """Run TYCOS over every pair of a series collection.

    Args:
        series: name -> series mapping; all series must share a length.
        config: search parameters applied to every pair.
        pairs: explicit (source, target) pairs; default: all unordered
            combinations of the collection's names.
        engine: optional preconfigured engine (default: TYCOS_LMN).  A
            pooled scan ships it to the workers once, at pool start.
        n_jobs: worker processes.  ``None`` or ``1`` scans serially in this
            process; ``-1`` uses every available core; ``N > 1`` maps the
            pairs over a process pool in about four chunks per worker
            (:func:`repro.analysis.parallel.pooled_map`).  The worker
            count is clamped to the number of pairs, and a 1-core host
            scans serially and says so in ``report.notes`` (see
            :func:`repro.analysis.parallel.effective_workers`).  Results
            are merged in submission order, so the report is identical
            for every worker count.
        store_path: directory of the :class:`repro.analysis.store`
            store ``series`` was attached from, when it has one; pool
            workers then memory-map the store instead of receiving a
            shared-memory copy.  Ignored by the serial path (the views
            are already zero-copy there).
        plan: how each pair is searched.  ``None`` (the default) runs
            ``engine.search`` and leaves ``report.metadata`` empty.  A
            :class:`~repro.analysis.planner.SearchPlan` runs every pair
            through :func:`repro.analysis.planner.execute_plan`; the
            string ``"auto"`` picks a plan from the workload shape
            (:func:`repro.analysis.planner.auto_plan`) and any other
            string is the CLI plan spelling (e.g. ``"coarse=8"``).
            When a plan runs, its spec lands in
            ``report.metadata["plan"]``.
        force_parallel: run the pool even on a 1-core host, where the
            default is the serial fallback.

    Returns:
        A :class:`PairwiseReport` with one finding per scanned pair.  A
        pair whose search raises is reported in ``report.failures`` instead
        of aborting the scan.
    """
    pair_list = checked_pairs(series, pairs)
    if engine is None:
        engine = Tycos(config)
    series_len = next((values.size for values in series.values()), 0)
    resolved = resolve_plan(plan, config, series_len, len(pair_list), n_jobs)
    workers, fell_back = effective_workers(
        1 if n_jobs is None else n_jobs,
        len(pair_list),
        force_parallel=force_parallel,
        what="scan_pairs",
    )

    if workers == 1:
        outcomes = [
            _search_pair(source, target, series, engine, resolved)
            for source, target in pair_list
        ]
    else:
        # About four chunks per worker, so stragglers rebalance.
        size = max(1, math.ceil(len(pair_list) / (workers * 4)))
        chunks = [pair_list[i : i + size] for i in range(0, len(pair_list), size)]
        outcomes = [
            outcome
            for chunk in pooled_map(
                _scan_chunk,
                chunks,
                workers=workers,
                series=series,
                extra_state={"engine": engine, "plan": resolved},
                store_path=store_path,
            )
            for outcome in chunk
        ]

    report = PairwiseReport()
    if resolved is not None:
        report.metadata["plan"] = resolved.spec()
    for outcome in outcomes:
        if isinstance(outcome, PairFinding):
            report.findings.append(outcome)
        else:
            report.failures.append(outcome)
    if fell_back:
        report.notes.append(
            f"n_jobs={n_jobs} served serially: 1-core host, pool dispatch "
            "would only add overhead"
        )
    return report
