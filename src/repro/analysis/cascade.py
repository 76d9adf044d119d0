"""Staged all-pairs prescreen cascade (and the ``tycos-scan`` CLI).

The paper's energy study scans 72 plugs -- 2 556 pairs -- but the
production shape in ROADMAP.md is *thousands* of series, where the
quadratic pair count makes the full KSG search per pair the dominant
cost and most pairs are obviously unrelated.  This module prunes pairs
**before** any KSG estimate with a three-stage cascade:

1. **FFT screen** (:func:`fft_screen_score`): cheap linear proxies over
   every pair -- the batched windowed-PCC band scan
   (:func:`repro.baselines.pearson.sliding_pcc_band`) over the delay
   band, plus MASS distance profiles
   (:func:`repro.baselines.mass.mass_distance_profile`) converted to
   correlation scores through ``d^2 = 2m(1 - r)``.  Both are
   O(n log n)-class and touch no KSG machinery.  The scan runs this
   stage *collection-level*: per-series screen state is precomputed
   once in memory by each process that scores
   (:mod:`repro.analysis.screen_state`) and pairs are scored in batched
   tiles of bounded size, optionally fanned over the process pool in
   blocks of pairs -- with scores bit-identical to calling
   :func:`fft_screen_score` per pair, at every tile shape and worker
   count.
2. **Coarse NMI screen** (:func:`coarse_nmi_score`): the repository's
   one coarse-NMI filtering mechanism, run only on stage-1 survivors.
   It stops at the first stacked row of probes that reaches its cut,
   so only the pairs it prunes pay for every probe.
3. **Full TYCOS search**: :func:`repro.analysis.pairwise.scan_pairs`
   (serial or pooled) on pairs that passed both screens, in the
   original pair order.

The screens are linear/coarse proxies for an information-theoretic
search, so they must under-bid: a pair is pruned only when its score
falls below ``threshold - screen_margin`` (default ``0.25``).
``margin=0`` is the explicit opt-out of that conservatism; ``margin=inf``
disables pruning entirely, making :func:`cascade_scan` byte-identical to
the unscreened :func:`~repro.analysis.pairwise.scan_pairs` -- the tier-1
recall tests assert exactly that discipline.  A screen that cannot
produce evidence (series shorter than the screen window, or holding a
NaN or an ``inf``) or raises *abstains*: the pair passes to the next
stage rather than being silently dropped, so a non-finite series fails
its pairs in stage 3 exactly as in the unscreened scan.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro._types import FloatArray
from repro.analysis.pairwise import (
    PairwiseReport,
    checked_pairs,
    resolve_plan,
    scan_pairs,
    timed,
)
from repro.analysis.parallel import effective_workers, pooled_map, worker_state
from repro.analysis.screen_state import (
    MASS_PROBES,
    ScreenGeometry,
    SeriesScreenState,
    batched_screen_scores,
    build_screen_states,
)
from repro.baselines.mass import mass_distance_profile
from repro.baselines.pearson import sliding_pcc_band
from repro.core.config import TycosConfig
from repro.core.tycos import Tycos
from repro.mi.normalized import normalized_mi, normalized_mi_many

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.planner import SearchPlan

__all__ = [
    "coarse_nmi_score",
    "fft_screen_score",
    "cascade_scan",
    "main",
]

#: Pairs per stage-1 task: the unit a pool worker draws, and the unit a
#: crashed screen abstains on.  Memory is bounded inside the kernel
#: (:data:`repro.analysis.screen_state.TILE_ELEMENTS`), not by this.
_SCREEN_BLOCK = 256


def coarse_nmi_score(
    x: FloatArray,
    y: FloatArray,
    probe: int = 128,
    stride: int = 3,
    td_max: int = 0,
    cut: float = float("inf"),
) -> float:
    """A cheap relatedness score: best normalized MI over coarse probes.

    The cascade's stage-2 screen.  Not a substitute for the search -- it
    only sees a few window positions -- but a pair whose every probe is
    flat noise is unlikely to reward a full TYCOS run.  When ``td_max``
    is positive every delay in ``[-td_max, td_max]`` is probed at each
    position, because a lagged coupling carries *no* aligned information
    at all.  Each position's ``2 * td_max + 1`` probes are one stacked
    :func:`repro.mi.normalized.normalized_mi_many` pass, bit-identical
    to scoring them one by one.

    Args:
        x: first series.
        y: second series.
        probe: probe window size.
        stride: number of probe positions (evenly spaced).
        td_max: largest |delay| to probe.
        cut: stop after the first position whose best probe reaches it.
            The default ``inf`` scores every position.

    Returns:
        The maximum normalized MI over the probes scored: over all of
        them when none reaches ``cut``, so ``score < cut`` exactly when
        the full maximum is below ``cut``.  Series too short for one
        probe at every delay get the aligned NMI of their whole length
        when ``td_max`` is 0, and ``inf`` otherwise: an aligned score
        says nothing about a lagged coupling, so the screen abstains
        rather than prune on it.

    Raises:
        ValueError: when a scored probe holds a NaN or an ``inf``.
    """
    n = min(x.size, y.size)
    if n < probe + 2 * td_max:
        if td_max > 0:
            return float("inf")
        return normalized_mi(x[:n], y[:n]) if n >= 8 else 0.0
    best = 0.0
    positions = np.linspace(td_max, n - probe - td_max, stride).astype(int)
    lagged = np.lib.stride_tricks.sliding_window_view(y[:n], probe)
    for s in positions.tolist():
        xs = np.broadcast_to(x[s : s + probe], (2 * td_max + 1, probe))
        best = max(best, float(normalized_mi_many(xs, lagged[s - td_max : s + td_max + 1]).max()))
        if best >= cut:
            break
    return best


def fft_screen_score(
    x: FloatArray,
    y: FloatArray,
    window: int,
    td_max: int,
) -> float:
    """Stage-1 screen: the best linear-correlation evidence of a pair.

    Two complementary FFT-class proxies, combined by maximum:

    * the batched windowed-PCC scan over every window start at every
      delay in ``[-td_max, td_max]`` (all starts, bounded delays), and
    * MASS distance profiles of ``MASS_PROBES`` (3) query subsequences
      of ``x`` against all of ``y`` (few starts, *all* offsets),
      converted to correlation through ``d^2 = 2m(1 - r)``; both the
      best and the worst match are used so anti-correlated shapes score
      by |r| too.

    Args:
        x: first series.
        y: second series (same length).
        window: screen window size ``m >= 2``.
        td_max: largest |delay| of the PCC band.

    Returns:
        The largest |r| either proxy found, or ``inf`` when the series
        are too short for any window to fit or either holds a NaN or an
        ``inf`` -- an abstaining screen must pass the pair, never prune
        it, and the search then reports the non-finite series itself.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return float("inf")
    m = window
    best = 0.0
    fitted = False
    band = list(range(-td_max, td_max + 1))
    for row in sliding_pcc_band(x, y, m, band):
        if row.size:
            fitted = True
            best = max(best, float(np.max(np.abs(row))))
    n = min(x.size, y.size)
    if n >= m:
        positions = np.linspace(0, x.size - m, MASS_PROBES).astype(int)
        for s in positions:
            profile = mass_distance_profile(x[s : s + m], y)
            fitted = True
            r_hi = 1.0 - float(np.min(profile)) ** 2 / (2.0 * m)
            r_lo = 1.0 - float(np.max(profile)) ** 2 / (2.0 * m)
            best = max(best, abs(r_hi), abs(r_lo))
    if not fitted:
        return float("inf")
    return best


def _screen_task(
    task: Tuple[int, List[Tuple[int, int]]]
) -> Tuple[int, List[float]]:
    """Worker task: stage-1 scores of one ``(start, index pairs)`` block.

    The per-series states are built once per worker process from the
    series it was shipped and memoized in :func:`worker_state`, so every
    later block the worker draws only pays the batched kernels.  A
    block whose screen crashes abstains: every pair scores ``inf`` and
    advances, matching the serial path's containment.
    """
    start, pair_block = task
    state = worker_state()
    geometry: ScreenGeometry = state["screen_geometry"]
    try:
        states = state.get("screen_states")
        if states is None:
            series = state["series"]
            names: List[str] = state["screen_names"]
            by_name = build_screen_states({name: series[name] for name in names}, geometry)
            states = state["screen_states"] = list(by_name.values())
        return start, batched_screen_scores(states, pair_block, geometry)
    except Exception:  # noqa: BLE001 - a crashed screen abstains
        return start, [float("inf")] * len(pair_block)


def _screen_scores(
    series: Dict[str, FloatArray],
    pair_list: List[Tuple[str, str]],
    geometry: ScreenGeometry,
    n_jobs: Optional[int],
    store_path: Optional[Union[str, Path]],
) -> List[float]:
    """Stage-1 screen scores of every pair, blocked and optionally pooled.

    Pairs are scored in blocks of :data:`_SCREEN_BLOCK` through
    :func:`repro.analysis.screen_state.batched_screen_scores`, fanned
    over the process pool when ``n_jobs`` asks for workers (sized by
    :func:`repro.analysis.parallel.effective_workers`).  Scores come
    back in original pair order and are bit-identical to per-pair
    :func:`fft_screen_score` at every worker count.  A block whose
    screen raises abstains (all ``inf``) instead of failing the scan.
    """
    names = list(series)
    index = {name: k for k, name in enumerate(names)}
    pair_idx = [(index[s], index[t]) for s, t in pair_list]
    blocks = [
        (start, pair_idx[start : start + _SCREEN_BLOCK])
        for start in range(0, len(pair_idx), _SCREEN_BLOCK)
    ]
    workers = effective_workers(1 if n_jobs is None else n_jobs, len(blocks))
    scores = [float("inf")] * len(pair_idx)
    if workers > 1:
        for start, block_scores in pooled_map(
            _screen_task,
            blocks,
            workers=workers,
            series=series,
            extra_state={"screen_geometry": geometry, "screen_names": names},
            store_path=store_path,
        ):
            scores[start : start + len(block_scores)] = block_scores
        return scores
    # As in _screen_task, the states are built inside the containment: a
    # build that raises abstains on the block, and the next block retries.
    states: Optional[List[SeriesScreenState]] = None
    for start, pair_block in blocks:
        try:
            if states is None:
                states = list(build_screen_states(series, geometry).values())
            block_scores = batched_screen_scores(states, pair_block, geometry)
        except Exception:  # noqa: BLE001 - a crashed screen abstains
            block_scores = [float("inf")] * len(pair_block)
        scores[start : start + len(block_scores)] = block_scores
    return scores


def cascade_scan(
    series: Dict[str, FloatArray],
    config: TycosConfig,
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
    screen_threshold: float = 0.6,
    nmi_threshold: float = 0.3,
    screen_margin: float = 0.25,
    screen_window: Optional[int] = None,
    engine: Optional[Tycos] = None,
    n_jobs: Optional[int] = None,
    store_path: Optional[Union[str, Path]] = None,
    plan: Union["SearchPlan", str, None] = None,
) -> PairwiseReport:
    """Run the prescreen cascade over every pair of a collection.

    Stage 1 (the batched collection-level form of
    :func:`fft_screen_score`; see :mod:`repro.analysis.screen_state`)
    and stage 2 (:func:`coarse_nmi_score`) prune pairs whose score falls
    below ``threshold - margin``; stage 3 runs the full TYCOS search on
    the survivors **in the original pair order**, so with nothing pruned
    the result is byte-identical to the unscreened
    :func:`~repro.analysis.pairwise.scan_pairs`.  Pruned pairs are
    reported in ``report.skipped`` (original order) and the per-stage
    ledger in the ``pairs_*`` counters, which always satisfy
    ``pairs_pruned_fft + pairs_pruned_nmi + pairs_searched ==
    pairs_screened`` -- a screen that raises abstains (the pair advances)
    rather than breaking the accounting.  ``report.phase_seconds``
    records the screen and search wall clocks.

    Args:
        series: name -> series mapping; all series must share a length.
        config: search parameters; ``config.td_max`` bounds the screen
            delay band.
        pairs: explicit (source, target) pairs; default: all unordered
            combinations of the collection's names.
        screen_threshold: stage-1 nominal threshold on the best |r|.
        nmi_threshold: stage-2 nominal threshold on the coarse NMI.
        screen_margin: conservatism margin subtracted from both nominal
            thresholds before pruning.  ``0`` prunes at the nominal
            thresholds; ``inf`` prunes nothing.
        screen_window: stage-1 window size (default
            ``max(config.s_min, min(config.s_max, 64))``).  Larger
            windows suppress the spurious-maximum noise floor of the
            screen (it shrinks like ``sqrt(log(K)/m)``) at the cost of
            diluting couplings much shorter than the window; see GUIDE
            §13 for tuning.
        engine: optional preconfigured engine for stage 3.
        n_jobs: worker processes for both the stage-1 screen blocks and
            the stage-3 searches, each pool capped at the host's cores
            and at its task count (see
            :func:`~repro.analysis.pairwise.scan_pairs`).
        store_path: directory of the series store the collection was
            attached from.  Pool workers of both stage 1 and stage 3
            then memory-map the store instead of receiving copies of
            the series.
        plan: how stage 3 searches the survivors.  ``None`` (the
            default) keeps the plain full-resolution search, preserving
            byte-identity with PR-9 cascades.  A
            :class:`~repro.analysis.planner.SearchPlan` or a plan
            shorthand string (``"coarse=8"``) runs every survivor
            through that plan; the string ``"auto"`` asks
            :func:`repro.analysis.planner.auto_plan` to pick from the
            *post-screen* workload shape -- the survivor count, not the
            all-pairs count, which is the whole point of composing the
            cascade with the planner.

    Returns:
        A :class:`~repro.analysis.pairwise.PairwiseReport` with the
        survivors' findings and the cascade's pruning ledger.
    """
    pair_list = checked_pairs(series, pairs)
    if not screen_margin >= 0:  # also rejects NaN
        raise ValueError(f"screen_margin must be >= 0, got {screen_margin}")
    window = max(config.s_min, min(config.s_max, 64)) if screen_window is None else screen_window
    fft_cut = screen_threshold - screen_margin
    nmi_cut = nmi_threshold - screen_margin

    def _stage2(source: str, target: str) -> str:
        x, y = series[source], series[target]
        if min(x.size, y.size) < 8:
            return "search"  # too short for any NMI probe: the screen abstains
        try:
            nmi_score = coarse_nmi_score(x, y, td_max=config.td_max, cut=nmi_cut)
        except Exception:  # noqa: BLE001 - a crashed screen abstains
            nmi_score = float("inf")
        if nmi_score < nmi_cut:
            return "nmi"
        return "search"

    def _decide() -> List[Tuple[Tuple[str, str], str]]:
        if not pair_list:
            return []
        length = series[pair_list[0][0]].size
        if length < 1:
            fft_scores = [float("inf")] * len(pair_list)  # nothing to screen
        else:
            geometry = ScreenGeometry(length=length, window=window, td_max=config.td_max)
            fft_scores = _screen_scores(series, pair_list, geometry, n_jobs, store_path)
        return [
            (pair, "fft" if score < fft_cut else _stage2(*pair))
            for pair, score in zip(pair_list, fft_scores)
        ]

    decisions, screen_seconds = timed(_decide)
    survivors = [pair for pair, stage in decisions if stage == "search"]

    # Resolved against the *survivor* count: an "auto" plan sees the
    # workload stage 3 actually faces, not the all-pairs count.
    series_len = series[pair_list[0][0]].size if pair_list else 0
    stage3_plan = resolve_plan(plan, config, series_len, len(survivors), n_jobs)

    report, search_seconds = timed(
        lambda: scan_pairs(
            series,
            config,
            pairs=survivors,
            engine=engine,
            n_jobs=n_jobs,
            store_path=store_path,
            plan=stage3_plan,
        )
    )
    report.skipped.extend(pair for pair, stage in decisions if stage != "search")
    report.pairs_screened = len(pair_list)
    report.pairs_pruned_fft = sum(1 for _, stage in decisions if stage == "fft")
    report.pairs_pruned_nmi = sum(1 for _, stage in decisions if stage == "nmi")
    report.pairs_searched = len(survivors)
    report.phase_seconds["screen"] = screen_seconds
    report.phase_seconds["search"] = search_seconds
    return report


def _format_top(report: PairwiseReport, k: int) -> str:
    """Render the top-k ranking of a report as plain lines."""
    lines = [f"top {k} pairs:"]
    for rank, f in enumerate(report.top(k), start=1):
        delays = "-" if f.delay_range is None else f"[{f.delay_range[0]}, {f.delay_range[1]}]"
        lines.append(
            f"  {rank}. {f.source} -> {f.target}: nmi={f.best_nmi:.2f} "
            f"windows={f.windows} delays={delays}"
        )
    if len(lines) == 1:
        lines.append("  (no correlated pairs)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``tycos-scan``; returns a process exit code.

    Scans every pair of a collection through the prescreen cascade::

        tycos-scan plugs.csv --td-max 48 --n-jobs -1
        tycos-scan plugs.csv --store /tmp/plugs.store --top-k 10
        tycos-scan /tmp/plugs.store --screen-margin 0   # re-scan a store
        tycos-scan plugs.csv --no-screen                # unscreened scan

    The positional input is a header-row CSV file or an existing series
    store directory (:mod:`repro.analysis.store`).  ``--store DIR``
    packs a CSV input into a store first, so pool workers memory-map the
    collection instead of receiving copies.
    """
    parser = argparse.ArgumentParser(
        prog="tycos-scan",
        description="All-pairs TYCOS scan with an FFT + coarse-NMI prescreen cascade.",
    )
    parser.add_argument("input", help="CSV file (header row) or series store directory")
    parser.add_argument(
        "--screen", dest="screen", action="store_true", default=True,
        help="prescreen pairs with the FFT + coarse-NMI cascade (default)",
    )
    parser.add_argument(
        "--no-screen", dest="screen", action="store_false",
        help="disable the cascade and search every pair",
    )
    parser.add_argument(
        "--screen-threshold", type=float, default=0.6,
        help="stage-1 nominal threshold on the best windowed |r| (default 0.6)",
    )
    parser.add_argument(
        "--nmi-threshold", type=float, default=0.3,
        help="stage-2 nominal threshold on the coarse NMI probe (default 0.3)",
    )
    parser.add_argument(
        "--screen-margin", type=float, default=0.25,
        help="conservatism margin subtracted from both screen thresholds "
             "(default 0.25; 0 prunes at the nominal thresholds, inf prunes "
             "nothing)",
    )
    parser.add_argument(
        "--screen-window", type=int, default=None,
        help="stage-1 window size (default: clamp(64, s_min, s_max))",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="append the per-phase wall-clock ledger (screen vs search) "
             "to the report",
    )
    parser.add_argument(
        "--plan", default=None, metavar="SPEC",
        help="execution plan of the stage-3 searches: 'plain' (the "
             "default), 'segments=K', 'coarse=F', or 'auto' to pick from "
             "the post-screen workload shape",
    )
    parser.add_argument(
        "--explain-plan", action="store_true",
        help="print the chosen stage-3 plan (steps, parameters, "
             "rationale) without running the scan; with --plan auto the "
             "explanation is computed against the all-pairs count, since "
             "the screen has not run",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="pack a CSV input into a series store at DIR and scan from it "
             "(pool workers then memory-map the collection)",
    )
    parser.add_argument(
        "--top-k", type=int, default=None,
        help="also print the k strongest pairs as a ranked list",
    )
    parser.add_argument("--sigma", type=float, default=0.3)
    parser.add_argument("--epsilon-ratio", type=float, default=0.25)
    parser.add_argument("--s-min", type=int, default=20)
    parser.add_argument("--s-max", type=int, default=200)
    parser.add_argument("--td-max", type=int, default=48)
    parser.add_argument("--jitter", type=float, default=1e-6)
    parser.add_argument("--permutations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--n-jobs", type=int, default=1,
        help="worker processes for the full searches (-1: all cores)",
    )
    args = parser.parse_args(argv)

    config = TycosConfig(
        sigma=args.sigma,
        epsilon_ratio=args.epsilon_ratio,
        s_min=args.s_min,
        s_max=args.s_max,
        td_max=args.td_max,
        jitter=args.jitter,
        significance_permutations=args.permutations,
        seed=args.seed,
    )

    from repro.analysis.csvio import read_csv_series
    from repro.analysis.store import SeriesStore

    source = Path(args.input)
    store_path: Optional[str] = None
    if source.is_dir():
        if args.store is not None:
            parser.error("--store is for packing a CSV input; the input is already a store")
        store = SeriesStore.open(source)
        series = store.series()
        store_path = str(source)
    else:
        series = read_csv_series(source)
        if args.store is not None:
            store = SeriesStore.write(args.store, series)
            series = store.series()
            store_path = args.store

    if args.explain_plan:
        from repro.analysis.planner import SearchPlan, explain_plan

        names = list(series)
        n_pairs = len(names) * (len(names) - 1) // 2
        series_len = series[names[0]].size if names else 0
        chosen = resolve_plan(args.plan, config, series_len, n_pairs, args.n_jobs)
        print(explain_plan(chosen or SearchPlan(), config))
        return 0

    if args.screen:
        report = cascade_scan(
            series,
            config,
            screen_threshold=args.screen_threshold,
            nmi_threshold=args.nmi_threshold,
            screen_margin=args.screen_margin,
            screen_window=args.screen_window,
            n_jobs=args.n_jobs,
            store_path=store_path,
            plan=args.plan,
        )
    else:
        report, search_seconds = timed(
            lambda: scan_pairs(
                series,
                config,
                n_jobs=args.n_jobs,
                store_path=store_path,
                plan=args.plan,
            )
        )
        report.phase_seconds["search"] = search_seconds

    print(report.to_text(include_timings=args.profile))
    if args.top_k is not None:
        print(_format_top(report, args.top_k))
    return 0


if __name__ == "__main__":
    sys.exit(main())
