"""Tracked performance baseline for the parallel scan + MI kernel caches.

Runs a battery of pinned-seed benchmarks and emits one JSON document:

* **pairwise** -- a synthetic sensor collection scanned with
  ``scan_pairs`` serially and at several worker counts, timing the
  end-to-end scan and the speedup over serial.
* **gate** -- a small fixed scalar-path search whose windows/second is
  the regression reference for ``--check-against``; it is identical in
  smoke and full mode so CI numbers compare against committed ones.
* **kernel** -- micro-benchmarks of the three PR-3 kernel caches
  (shared digamma table, maintained sorted marginals, per-delay
  distance workspace), each asserting the cached path returns *exactly*
  the reference path's floats before reporting its speedup.
* **scoring** -- one full TYCOS search per cache ablation: the scalar
  per-window scorer with every cache off (the pre-PR cost model), the
  scalar scorer with caches on, and the batched neighborhood scorer
  with each cache switched off in turn and with all of them on.  Every
  ablation must return the same windows and MI values; only the time
  may change.
* **segmented** -- one long pair searched whole, then with its timeline
  sharded into overlapping segments: the sequential reference stitcher
  and the process-pool path at the same segment count.  Every parallel
  row must reproduce its sequential reference byte-exactly (windows, MI
  floats, and order) before its speedup is reported -- the n_segments=2
  row doubles as a worker-pickling canary in CI smoke runs.
* **multiscale** -- the PR-5 coarse-to-fine search on a pinned AR(1)
  pair with long planted delayed-copy episodes, exhaustive first and
  then per ``coarse_factor``.  Every multiscale row must recover 100%
  of the exhaustive search's windows at bit-identical MI/NMI floats
  *before* its pruning ratio or speedup is reported, and the largest
  factor must cut ``full_windows_evaluated`` by at least the section's
  ``min_reduction`` -- a recall or determinism regression fails the
  benchmark instead of flattering it.
* **screen** -- the PR-9 batched stage-1 screen on the cascade
  workload: the per-pair ``fft_screen_score`` loop (which doubles as
  the bit-identity reference -- the batched scores must equal it
  exactly before any timing is recorded) against the collection-level
  batched pass (state build + blocked ``batched_screen_scores``),
  reporting pairs/second for each and the batched speedup.
* **cascade** -- the PR-8 all-pairs prescreen cascade on a >=64-series
  synthetic collection: the unscreened ``scan_pairs`` reference first,
  then ``cascade_scan`` with the default conservative margin.  The
  recall gate is asserted *before* any speedup is reported: every
  correlated pair the unscreened scan finds must survive the screens
  with a byte-identical ``PairFinding``, the per-stage counters must
  account for every screened pair, and the FFT stage must prune at
  least the section's ``min_prune`` fraction of all pairs before any
  KSG estimate runs.  Since PR 9 the timings themselves are also
  gated: the end-to-end speedup must reach ``min_speedup_required``
  and the screen phase must cost less than the search phase.  A
  recall, accounting, or throughput regression fails the benchmark
  instead of flattering it.
* **planner** -- the PR-10 execution-planner section: every plan shape
  (plain, segmented, coarse-to-fine, and the composed
  coarse-inside-each-segment strategy) executed through
  ``execute_plan`` on a pinned episodic pair.  Parity is asserted
  before any timing is recorded: the plain/segmented/coarse rows must
  be byte-identical to their legacy wrapper counterparts
  (``Tycos.search`` with the equivalent arguments), and the composed
  row must be byte-identical to its sequential definition (each
  segment span searched coarse-to-fine by a jitter-free segment
  engine, merged by the planner's stitcher).  The timings are
  single-run and advisory -- the regression reference is the gate row,
  and the plan-driven throughput floor lives in the cascade_stage3
  section.
* **cascade_stage3** -- the PR-10 plan-driven cascade refinement: an
  episodic-coupling collection (couplings planted as long delayed-copy
  episodes at pinned positions, so the FFT screen catches the coupled
  pairs while the quiet stretches between episodes are exactly what a
  coarse pre-pass prunes) scanned by ``cascade_scan`` twice -- stage 3
  plain (the PR-9 behavior) and stage 3 through ``plan="coarse=8"``.
  The correlated-pair sets must be identical before any timing is
  reported, and the multiscale stage 3 must beat the plain stage 3's
  search phase by the section's ``min_speedup_required`` (both runs
  single-core, ``n_jobs=1`` -- the speedup is pruning, not
  parallelism).

Usage::

    python benchmarks/run_bench.py --output BENCH_PR10.json  # full baseline
    python benchmarks/run_bench.py --smoke                   # CI health check
    python benchmarks/run_bench.py --smoke --check-against BENCH_PR10.json

``--check-against`` compares this run's **gate** windows/second with the
committed document's and exits non-zero when it regressed by more than
``--max-regression`` (default 0.30, i.e. 30%).

Every timing is the best of ``--repeats`` runs (min, not mean: the
minimum is the least noisy estimator of the cost floor on a shared
machine).  The host's CPU count is recorded in the document because
multi-worker speedups are only physical on multi-core hosts; on a
single-core container the parallel rows measure dispatch overhead, not
parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.analysis.cascade import cascade_scan, fft_screen_score  # noqa: E402
from repro.analysis.multiscale import search_multiscale  # noqa: E402
from repro.analysis.pairwise import scan_pairs  # noqa: E402
from repro.analysis.planner import (  # noqa: E402
    _segment_engine,
    _stitch,
    composed_plan,
    execute_plan,
    multiscale_plan,
    plain_plan,
    segmented_plan,
)
from repro.analysis.screen_state import (  # noqa: E402
    ScreenGeometry,
    batched_screen_scores,
    build_screen_states,
)
from repro.analysis.segmented import search_segmented  # noqa: E402
from repro.core.config import TycosConfig  # noqa: E402
from repro.core.segmentation import segment_spans  # noqa: E402
from repro.core.tycos import Tycos, tycos_lm, tycos_lmn  # noqa: E402
from repro.core.window import PairView  # noqa: E402
from repro.mi.digamma import digamma_direct, shared_digamma_table  # noqa: E402
from repro.mi.ksg import KSGEstimator  # noqa: E402
from repro.mi.neighbors import (  # noqa: E402
    PairDistanceWorkspace,
    chebyshev_knn_bruteforce,
    marginal_counts,
)

SCHEMA = "tycos-bench-pr10/1"

#: Cache knobs of the scoring ablations.  Keys are TycosConfig fields.
_ALL_CACHES_OFF = {
    "use_digamma_table": False,
    "use_sorted_marginals": False,
    "workspace_cache_size": 0,
}

#: (row label, batched scoring?, config overrides) per scoring ablation.
_SCORING_VARIANTS: List[Tuple[str, bool, Dict[str, Any]]] = [
    ("scalar_baseline", False, dict(_ALL_CACHES_OFF)),
    ("scalar", False, {}),
    ("batched_no_digamma", True, {"use_digamma_table": False}),
    ("batched_no_sorted_marginals", True, {"use_sorted_marginals": False}),
    ("batched_no_workspace_cache", True, {"workspace_cache_size": 0}),
    ("batched", True, {}),
]


def make_collection(n_series: int, length: int, seed: int) -> Dict[str, Any]:
    """A pinned-seed sensor collection with genuine delayed couplings.

    Half the series are lag-shifted noisy copies of shared random walks
    (so the scan finds real windows and exercises the full search), the
    rest are independent noise (so the search's early exits are exercised
    too).
    """
    rng = np.random.default_rng(seed)
    series: Dict[str, Any] = {}
    n_coupled = max(2, n_series // 2)
    base = np.cumsum(rng.normal(size=length))
    for i in range(n_coupled):
        lag = (i * 3) % 12
        series[f"coupled{i}"] = np.roll(base, lag) + rng.normal(scale=0.15, size=length)
    for i in range(n_series - n_coupled):
        series[f"noise{i}"] = rng.normal(size=length)
    return series


def make_cascade_collection(
    n_series: int, length: int, seed: int, n_coupled: Optional[int] = None
) -> Dict[str, Any]:
    """The pinned all-pairs cascade workload: few couplings, much noise.

    ``n_coupled`` of the series (default: a quarter) are lag-shifted
    noisy copies of one shared random walk (every coupled-coupled pair
    is genuinely correlated); the rest are independent white noise.
    The coupled count is a knob because it fixes the bench's speedup
    *ceiling*: surviving coupled pairs must be searched in full by
    screened and unscreened scans alike, so their search cost is the
    irreducible floor of any cascade run.  The PR-8 pinning (a quarter
    of 64 series = 120 coupled pairs) spent ~75% of the unscreened
    scan inside those survivors, capping any screening win at ~1.34x;
    the PR-9 sections pin a small fixed coupled set instead, so the
    prunable majority -- the regime the prescreen exists for --
    dominates the wall clock and the recall gate still has a real
    survivor set to verify byte-equality on.
    """
    rng = np.random.default_rng(seed)
    series: Dict[str, Any] = {}
    if n_coupled is None:
        n_coupled = max(2, n_series // 4)
    base = np.cumsum(rng.normal(size=length))
    for i in range(n_coupled):
        lag = (i * 3) % 12
        series[f"coupled{i}"] = np.roll(base, lag) + rng.normal(scale=0.15, size=length)
    for i in range(n_series - n_coupled):
        series[f"noise{i}"] = rng.normal(size=length)
    return series


#: (start, length, delay) of the delayed-copy episodes of the multiscale
#: workload, laid out on its pinned 8000-sample timeline.
_MULTISCALE_EPISODES: List[Tuple[int, int, int]] = [
    (1200, 300, 5),
    (4200, 280, -7),
    (6800, 320, -3),
]

_MULTISCALE_LENGTH = 8000


def make_multiscale_pair(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pinned coarse-to-fine workload: smooth background, long episodes.

    Two independent AR(1) walks (phi=0.9) with three long delayed-copy
    episodes planted in ``y``.  This is the regime PAA aggregation
    preserves: block means keep a 300-sample episode visible at 1/8
    resolution, while the quiet stretches between episodes are exactly
    what the coarse pre-pass exists to prune.  Short white-noise blips
    would be *below* a coarse level's resolution by construction -- that
    boundary is documented, not benchmarked.
    """
    return make_episode_pair(_MULTISCALE_LENGTH, _MULTISCALE_EPISODES, seed)


def _ar1_walk(rng: np.random.Generator, n: int, phi: float = 0.9) -> np.ndarray:
    """A smooth AR(1) series: the structure PAA aggregation preserves."""
    shocks = rng.normal(size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + shocks[i]
        out[i] = acc
    return out


def make_episode_pair(
    length: int, episodes: List[Tuple[int, int, int]], seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """An AR(1) pair with ``(start, length, delay)`` episodes planted in y.

    The parameterized form of :func:`make_multiscale_pair`: the planner
    section runs it at full size in full mode and on a shorter pinned
    layout in smoke mode.
    """
    rng = np.random.default_rng(seed)
    x = _ar1_walk(rng, length)
    y = _ar1_walk(rng, length)
    for start, ep_length, delay in episodes:
        y[start + delay : start + delay + ep_length] = (
            x[start : start + ep_length] + 0.2 * rng.normal(size=ep_length)
        )
    return x, y


def make_episodic_collection(
    n_series: int,
    length: int,
    seed: int,
    n_coupled: int,
    episodes: List[Tuple[int, int]],
) -> Dict[str, Any]:
    """The cascade_stage3 workload: episodic couplings, prunable elsewhere.

    Each coupled series is its own AR(1) walk with noisy copies of one
    shared base walk's ``(start, length)`` episodes planted at a small
    per-series lag, so every coupled-coupled pair correlates *only
    inside the episodes* (relative delays of 0-4 samples, within
    ``td_max``).  The remaining series are white noise.  This is the
    regime the plan-driven stage 3 exists for: the FFT screen catches
    the coupled pairs on their episode windows, while the long quiet
    stretches between episodes -- independent AR(1) backgrounds with no
    joint structure -- are exactly what the coarse pre-pass prunes.
    The PR-8/9 cascade workload (whole-series ``np.roll`` couplings)
    would defeat the pre-pass by construction: structure everywhere
    leaves nothing to prune.
    """
    rng = np.random.default_rng(seed)
    base = _ar1_walk(rng, length)
    series: Dict[str, Any] = {}
    for i in range(n_coupled):
        own = _ar1_walk(rng, length)
        lag = (i * 2) % 6
        for start, ep_length in episodes:
            own[start + lag : start + lag + ep_length] = (
                base[start : start + ep_length] + 0.2 * rng.normal(size=ep_length)
            )
        series[f"coupled{i}"] = own
    for i in range(n_series - n_coupled):
        series[f"noise{i}"] = rng.normal(size=length)
    return series


def make_scoring_pair(length: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pinned coupled pair every scoring/gate search runs on."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=length))
    x = base + rng.normal(scale=0.1, size=length)
    y = np.roll(base, 7) + rng.normal(scale=0.1, size=length)
    return x, y


def best_of(repeats: int, fn: Callable[[], None]) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls to ``fn``."""
    took = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        took.append(time.perf_counter() - start)
    return min(took)


def bench_pairwise(
    n_series: int,
    length: int,
    config: TycosConfig,
    jobs: List[int],
    repeats: int,
    seed: int,
) -> Dict[str, Any]:
    series = make_collection(n_series, length, seed)
    n_pairs = n_series * (n_series - 1) // 2
    runs: Dict[str, Dict[str, float]] = {}
    reference = None
    serial_seconds = None
    for n_jobs in jobs:
        report_box: List[Any] = []

        def run() -> None:
            report_box.append(scan_pairs(series, config, n_jobs=n_jobs))

        seconds = best_of(repeats, run)
        report = report_box[-1]
        if reference is None:
            reference = report
            serial_seconds = seconds
        elif (report.findings, report.skipped, report.failures) != (
            reference.findings,
            reference.skipped,
            reference.failures,
        ):
            raise AssertionError(f"n_jobs={n_jobs} report differs from serial")
        label = "serial" if n_jobs == 1 else f"n_jobs={n_jobs}"
        runs[label] = {
            "seconds": round(seconds, 4),
            "pairs_per_second": round(n_pairs / seconds, 3),
        }
        if n_jobs != 1 and serial_seconds is not None:
            runs[label]["speedup_vs_serial"] = round(serial_seconds / seconds, 3)
    return {
        "series": n_series,
        "series_length": length,
        "pairs": n_pairs,
        "findings": len(reference.findings) if reference is not None else 0,
        "runs": runs,
    }


def bench_gate(seed: int) -> Dict[str, Any]:
    """The fixed regression-gate workload (same in smoke and full mode).

    A small scalar-path search with every cache on: the configuration CI
    exercises on every push, so its windows/second can be compared against
    the committed document regardless of which mode produced it.  Always
    best-of-3: the gate exists to be compared, so it gets the extra
    repeats even in smoke mode.
    """
    length = 400
    config = TycosConfig(sigma=0.3, s_min=8, s_max=40, td_max=8, jitter=1e-6, seed=seed)
    x, y = make_scoring_pair(length, seed + 1)
    box: List[Any] = []

    def run() -> None:
        box.append(Tycos(config, batched_scoring=False).search(x, y))

    seconds = best_of(3, run)
    windows = box[-1].stats.windows_evaluated
    return {
        "series_length": length,
        "seconds": round(seconds, 4),
        "windows_evaluated": windows,
        "windows_per_second": round(windows / seconds, 1),
    }


def _timed_loop(repeats: int, calls: int, fn: Callable[[], None]) -> float:
    """Best-of-``repeats`` seconds for ``calls`` invocations of ``fn``."""

    def run() -> None:
        for _ in range(calls):
            fn()

    return best_of(repeats, run)


def bench_kernel(repeats: int) -> Dict[str, Any]:
    """Micro-benchmarks of the kernel caches, exact-equality asserted.

    Each entry times the cached path against its reference path on pinned
    data and verifies first that both return identical floats -- the
    caches are amortizations, never approximations.
    """
    rng = np.random.default_rng(97)
    out: Dict[str, Any] = {}

    # -- shared digamma table vs direct scipy evaluations -------------- #
    # End-to-end equality first (the table must never change an estimate),
    # then the timing of the evaluation unit itself: a per-window batch of
    # integer digamma arguments served by table gather vs scipy ufunc.
    m = 512
    base = np.cumsum(rng.normal(size=m))
    x = base + rng.normal(scale=0.1, size=m)
    y = np.roll(base, 5) + rng.normal(scale=0.1, size=m)
    with_table = KSGEstimator(k=4, use_digamma_table=True)
    without_table = KSGEstimator(k=4, use_digamma_table=False)
    if with_table.mi(x, y) != without_table.mi(x, y):
        raise AssertionError("digamma table changed an MI estimate")
    table = shared_digamma_table()
    counts = rng.integers(1, 2000, size=m)
    if not np.array_equal(table.values(counts), digamma_direct(counts)):
        raise AssertionError("digamma table diverged from scipy evaluations")
    calls = 200
    out["digamma_table"] = _kernel_row(
        samples=m,
        calls=calls,
        seconds_on=_timed_loop(repeats, calls, lambda: table.values(counts)),
        seconds_off=_timed_loop(repeats, calls, lambda: digamma_direct(counts)),
    )

    # -- presorted marginal projections vs a per-call sort -------------- #
    # The cached path's unit of work: marginal_counts with a maintained /
    # amortized sorted projection skips its internal O(m log m) sort.
    # (The engine-level wiring -- MarginalIndex under churn -- is covered
    # by exact-equality tests; the timing story lives in this kernel.)
    m_marg = 2048
    values = np.cumsum(rng.normal(size=m_marg))
    radii = np.abs(rng.normal(scale=0.3, size=m_marg)) + 1e-3
    presorted = np.sort(values)
    if not np.array_equal(
        marginal_counts(values, radii, strict=False, presorted=presorted),
        marginal_counts(values, radii, strict=False),
    ):
        raise AssertionError("presorted marginal counts diverged from the sort path")
    calls = 200
    out["sorted_marginals"] = _kernel_row(
        samples=m_marg,
        calls=calls,
        seconds_on=_timed_loop(
            repeats,
            calls,
            lambda: marginal_counts(values, radii, strict=False, presorted=presorted),
        ),
        seconds_off=_timed_loop(
            repeats, calls, lambda: marginal_counts(values, radii, strict=False)
        ),
    )

    # -- shared distance workspace vs per-window brute force ------------ #
    union = 200
    window = 64
    ux = np.cumsum(rng.normal(size=union))
    uy = np.roll(ux, 2) + rng.normal(scale=0.1, size=union)
    workspace = PairDistanceWorkspace(ux, uy)
    offsets = list(range(0, union - window, 4))
    for offset in offsets:
        served = workspace.knn(offset, window, 4)
        direct = chebyshev_knn_bruteforce(
            ux[offset : offset + window], uy[offset : offset + window], 4
        )
        if not (
            np.array_equal(served.kth_distance, direct.kth_distance)
            and np.array_equal(served.eps_x, direct.eps_x)
            and np.array_equal(served.eps_y, direct.eps_y)
            and np.array_equal(served.indices, direct.indices)
        ):
            raise AssertionError("workspace knn diverged from brute force")

    def serve_all() -> None:
        for offset in offsets:
            workspace.knn(offset, window, 4)

    def brute_all() -> None:
        for offset in offsets:
            chebyshev_knn_bruteforce(
                ux[offset : offset + window], uy[offset : offset + window], 4
            )

    out["workspace"] = _kernel_row(
        samples=window,
        calls=len(offsets),
        seconds_on=best_of(repeats, serve_all),
        seconds_off=best_of(repeats, brute_all),
    )
    return out


def _kernel_row(samples: int, calls: int, seconds_on: float, seconds_off: float) -> Dict[str, Any]:
    return {
        "samples": samples,
        "calls": calls,
        "seconds_cached": round(seconds_on, 5),
        "seconds_reference": round(seconds_off, 5),
        "speedup": round(seconds_off / seconds_on, 3),
        "identical": True,  # asserted before timing
    }


def bench_scoring(length: int, config: TycosConfig, repeats: int, seed: int) -> Dict[str, Any]:
    x, y = make_scoring_pair(length, seed)
    out: Dict[str, Any] = {"series_length": length}
    reference: Optional[Any] = None
    baseline_seconds: Optional[float] = None
    for label, batched, overrides in _SCORING_VARIANTS:
        variant_config = config.scaled(**overrides) if overrides else config
        box: List[Any] = []

        def run() -> None:
            box.append(Tycos(variant_config, batched_scoring=batched).search(x, y))

        seconds = best_of(repeats, run)
        result = box[-1]
        snapshot = [(r.window, r.mi, r.nmi) for r in result.windows]
        if reference is None:
            reference = snapshot
            baseline_seconds = seconds
        elif snapshot != reference:
            raise AssertionError(f"scoring ablation {label!r} changed the search result")
        stats = result.stats
        row: Dict[str, Any] = {
            "seconds": round(seconds, 4),
            "windows_evaluated": stats.windows_evaluated,
            "windows_per_second": round(stats.windows_evaluated / seconds, 1),
        }
        if batched:
            row["workspace_builds"] = stats.workspace_builds
            row["workspace_hits"] = stats.workspace_hits
        if label != "scalar_baseline" and baseline_seconds is not None:
            row["speedup_vs_scalar_baseline"] = round(baseline_seconds / seconds, 3)
        out[label] = row
    return out


def bench_segmented(
    length: int,
    config: TycosConfig,
    rows: List[Tuple[int, int]],
    repeats: int,
    seed: int,
) -> Dict[str, Any]:
    """Intra-pair segmentation: sequential stitcher vs process pool.

    One long pinned pair is searched unsegmented first, then once per
    ``(n_segments, n_jobs)`` row.  Rows with ``n_jobs=1`` run the
    sequential reference stitcher and define the expected result for
    their segment count; every ``n_jobs>1`` row is asserted byte-equal
    to that reference (same windows, MI floats, and order) before its
    speedup is recorded, so a worker-pickling or shared-memory
    regression fails the benchmark instead of skewing it.
    """
    x, y = make_scoring_pair(length, seed)
    out: Dict[str, Any] = {"series_length": length}
    box: List[Any] = []

    def run_unsegmented() -> None:
        box.append(Tycos(config).search(x, y))

    unsegmented_seconds = best_of(repeats, run_unsegmented)
    unsegmented = box[-1]
    out["unsegmented"] = {
        "seconds": round(unsegmented_seconds, 4),
        "windows": len(unsegmented.windows),
        "windows_evaluated": unsegmented.stats.windows_evaluated,
    }

    references: Dict[int, List[Any]] = {}
    sequential_seconds: Dict[int, float] = {}
    for n_segments, n_jobs in rows:
        def run() -> None:
            box.append(
                search_segmented(x, y, config, n_segments=n_segments, n_jobs=n_jobs)
            )

        seconds = best_of(repeats, run)
        result = box[-1]
        snapshot = [(r.window, r.mi, r.nmi) for r in result.windows]
        label = f"n_segments={n_segments},n_jobs={n_jobs}"
        if n_jobs == 1:
            references[n_segments] = snapshot
            sequential_seconds[n_segments] = seconds
        elif snapshot != references.get(n_segments):
            raise AssertionError(
                f"segmented row {label!r} diverged from its sequential reference"
            )
        stats = result.stats
        row: Dict[str, Any] = {
            "seconds": round(seconds, 4),
            "windows": len(result.windows),
            "windows_evaluated": stats.windows_evaluated,
            "segments": stats.segments,
            "stitch_dedups": stats.stitch_dedups,
            "stitch_rescores": stats.stitch_rescores,
        }
        if n_jobs != 1:
            row["identical_to_sequential"] = True  # asserted above
            row["speedup_vs_sequential"] = round(
                sequential_seconds[n_segments] / seconds, 3
            )
        out[label] = row
    return out


def bench_multiscale(
    factors: List[int],
    use_noise: bool,
    repeats: int,
    min_reduction: float,
    seed: int,
) -> Dict[str, Any]:
    """Coarse-to-fine search vs exhaustive: recall parity asserted first.

    The pinned pair is searched exhaustively once, then once per
    ``coarse_factor``.  Each multiscale row is accepted only if it
    recovers every exhaustive window at bit-identical (MI, NMI) floats;
    only then are its pruning ratio and speedup recorded.  The largest
    factor must additionally cut ``full_windows_evaluated`` by at least
    ``min_reduction`` -- the quantity the PR's acceptance bar is stated
    in, so a pruning regression fails the run rather than shrinking a
    number nobody reads.
    """
    config = TycosConfig(
        sigma=0.75,
        s_min=32,
        s_max=96,
        td_max=8,
        jitter=1e-6,
        seed=3,
        init_delay_step=1,
        coarse_sigma_ratio=0.85,
    )
    engine = (tycos_lmn if use_noise else tycos_lm)(config)
    x, y = make_multiscale_pair(seed)
    box: List[Any] = []

    def run_exhaustive() -> None:
        box.append(engine.search(x, y))

    exhaustive_seconds = best_of(repeats, run_exhaustive)
    exhaustive = box[-1]
    reference = {
        (r.window.start, r.window.end, r.window.delay): (r.mi, r.nmi)
        for r in exhaustive.windows
    }
    out: Dict[str, Any] = {
        "series_length": _MULTISCALE_LENGTH,
        "episodes": len(_MULTISCALE_EPISODES),
        "variant": "lmn" if use_noise else "lm",
        "sigma": config.sigma,
        "coarse_sigma_ratio": config.coarse_sigma_ratio,
        "exhaustive": {
            "seconds": round(exhaustive_seconds, 4),
            "windows": len(exhaustive.windows),
            "full_windows_evaluated": exhaustive.stats.full_windows_evaluated,
        },
    }
    last_reduction = 0.0
    for factor in factors:

        def run() -> None:
            box.append(search_multiscale(x, y, engine=engine, coarse_factor=factor))

        seconds = best_of(repeats, run)
        result = box[-1]
        scores = {
            (r.window.start, r.window.end, r.window.delay): (r.mi, r.nmi)
            for r in result.windows
        }
        missing = sorted(k for k in reference if k not in scores)
        if missing:
            raise AssertionError(
                f"multiscale coarse_factor={factor} lost exhaustive windows: {missing}"
            )
        drifted = sorted(k for k in reference if scores[k] != reference[k])
        if drifted:
            raise AssertionError(
                f"multiscale coarse_factor={factor} drifted scores at: {drifted}"
            )
        stats = result.stats
        last_reduction = exhaustive.stats.full_windows_evaluated / max(
            1, stats.full_windows_evaluated
        )
        out[f"coarse_factor={factor}"] = {
            "seconds": round(seconds, 4),
            "windows": len(result.windows),
            "recall": 1.0,  # asserted above
            "identical_scores": True,  # asserted above
            "coarse_windows_evaluated": stats.coarse_windows_evaluated,
            "full_windows_evaluated": stats.full_windows_evaluated,
            "refined_cells": stats.refined_cells,
            "cells_pruned": stats.cells_pruned,
            "full_eval_reduction": round(last_reduction, 3),
            "total_eval_reduction": round(
                exhaustive.stats.full_windows_evaluated
                / max(1, stats.windows_evaluated),
                3,
            ),
            "speedup_vs_exhaustive": round(exhaustive_seconds / seconds, 3),
        }
    if last_reduction < min_reduction:
        raise AssertionError(
            f"multiscale coarse_factor={factors[-1]} reduced full evaluations by "
            f"only {last_reduction:.2f}x (< required {min_reduction:.2f}x)"
        )
    out["min_reduction_required"] = min_reduction
    return out


def bench_screen(
    n_series: int,
    length: int,
    window: int,
    td_max: int,
    repeats: int,
    seed: int,
    n_coupled: Optional[int] = None,
) -> Dict[str, Any]:
    """Batched vs per-pair stage-1 screen throughput: identity gated.

    The per-pair loop over ``fft_screen_score`` is the reference: its
    one pass both produces the scores the batched path must reproduce
    **bit-identically** (asserted before any timing is recorded) and is
    the reference timing -- it dominates this section's wall clock, so
    it runs once, not best-of.  The batched pass replays a cascade's
    stage 1 exactly: build every series' screen state, then score all
    pairs in ``screen_block``-sized batches.
    """
    from itertools import combinations

    series = make_cascade_collection(n_series, length, seed, n_coupled)
    names = list(series)
    pair_names = list(combinations(names, 2))
    index = {name: i for i, name in enumerate(names)}
    pair_idx = [(index[s], index[t]) for s, t in pair_names]
    geometry = ScreenGeometry(length=length, window=window, td_max=td_max)
    block = TycosConfig().screen_block

    start = time.perf_counter()
    reference = [
        fft_screen_score(series[s], series[t], window, td_max) for s, t in pair_names
    ]
    per_pair_seconds = time.perf_counter() - start

    def batched_pass() -> List[float]:
        by_name = build_screen_states(series, geometry)
        states = [by_name[name] for name in names]
        scores: List[float] = []
        for lo in range(0, len(pair_idx), block):
            scores.extend(
                batched_screen_scores(states, pair_idx[lo : lo + block], geometry)
            )
        return scores

    if batched_pass() != reference:
        diverged = [
            pair_names[i]
            for i, (got, want) in enumerate(zip(batched_pass(), reference))
            if got != want
        ]
        raise AssertionError(
            f"batched screen diverged from fft_screen_score at: {diverged[:5]}"
        )
    batched_seconds = _timed_loop(repeats, 1, batched_pass)

    n_pairs = len(pair_names)
    return {
        "series": n_series,
        "series_length": length,
        "pairs": n_pairs,
        "screen_window": window,
        "td_max": td_max,
        "screen_block": block,
        "identical": True,  # asserted above
        "per_pair": {
            "seconds": round(per_pair_seconds, 4),
            "pairs_per_second": round(n_pairs / per_pair_seconds, 3),
        },
        "batched": {
            "seconds": round(batched_seconds, 4),
            "pairs_per_second": round(n_pairs / batched_seconds, 3),
            "speedup_vs_per_pair": round(per_pair_seconds / batched_seconds, 3),
        },
    }


def bench_cascade(
    n_series: int,
    length: int,
    screen_window: int,
    min_prune: float,
    min_speedup: float,
    seed: int,
    n_coupled: Optional[int] = None,
) -> Dict[str, Any]:
    """Prescreen cascade vs unscreened scan: recall gated, then timed.

    The unscreened ``scan_pairs`` over the full collection is the
    reference.  The cascade run is accepted only when (1) every
    correlated pair the reference finds survives the screens with a
    byte-identical ``PairFinding``, (2) every surviving pair's finding
    is byte-identical to the reference's, (3) the per-stage counters
    account for every screened pair, and (4) the FFT stage pruned at
    least ``min_prune`` of all pairs *before any KSG estimate* -- only
    then are the timings and speedup recorded.  Two floors are then
    enforced on the timings themselves: the end-to-end speedup over the
    unscreened scan must reach ``min_speedup``, and the cascade's
    screen phase must cost less wall clock than its search phase
    (``report.phase_seconds``) -- the batched stage 1 exists precisely
    so screening is never the dominant cost again.  The scans run once
    each (not best-of): the two quadratic scans dominate the bench wall
    clock, and the gate row -- not this section -- is the regression
    reference.
    """
    series = make_cascade_collection(n_series, length, seed, n_coupled)
    # Pinned section config: s_min=24 + 10 permutations keep finite-sample
    # KSG noise below sigma on white-noise pairs, so the reference scan's
    # correlated set is the planted couplings, not estimator flukes.
    config = TycosConfig(
        sigma=0.5, s_min=24, s_max=48, td_max=8, jitter=1e-6, seed=seed,
        significance_permutations=10,
    )
    n_pairs = n_series * (n_series - 1) // 2

    start = time.perf_counter()
    reference = scan_pairs(series, config)
    unscreened_seconds = time.perf_counter() - start
    start = time.perf_counter()
    screened = cascade_scan(series, config, screen_window=screen_window)
    cascade_seconds = time.perf_counter() - start

    reference_by_pair = {(f.source, f.target): f for f in reference.findings}
    screened_by_pair = {(f.source, f.target): f for f in screened.findings}
    lost = sorted(
        (f.source, f.target)
        for f in reference.correlated()
        if (f.source, f.target) not in screened_by_pair
    )
    if lost:
        raise AssertionError(f"cascade pruned correlated pairs: {lost}")
    drifted = sorted(
        pair for pair, finding in screened_by_pair.items()
        if finding != reference_by_pair[pair]
    )
    if drifted:
        raise AssertionError(f"cascade changed surviving findings at: {drifted}")
    counted = (
        screened.pairs_pruned_fft + screened.pairs_pruned_nmi + screened.pairs_searched
    )
    if screened.pairs_screened != n_pairs or counted != n_pairs:
        raise AssertionError(
            f"cascade counters do not account for every pair: screened="
            f"{screened.pairs_screened} fft={screened.pairs_pruned_fft} "
            f"nmi={screened.pairs_pruned_nmi} searched={screened.pairs_searched} "
            f"expected {n_pairs}"
        )
    fft_prune_fraction = screened.pairs_pruned_fft / n_pairs
    if fft_prune_fraction < min_prune:
        raise AssertionError(
            f"FFT screen pruned only {fft_prune_fraction:.2%} of pairs "
            f"(< required {min_prune:.0%})"
        )
    speedup = unscreened_seconds / cascade_seconds
    if speedup < min_speedup:
        raise AssertionError(
            f"cascade speedup {speedup:.2f}x over the unscreened scan "
            f"< required {min_speedup:.1f}x"
        )
    screen_seconds = screened.phase_seconds.get("screen", 0.0)
    search_seconds = screened.phase_seconds.get("search", 0.0)
    if screen_seconds >= search_seconds:
        raise AssertionError(
            f"cascade screen phase ({screen_seconds:.2f}s) cost at least as "
            f"much as its search phase ({search_seconds:.2f}s); screening "
            "must not dominate"
        )
    return {
        "series": n_series,
        "series_length": length,
        "coupled_series": sum(1 for name in series if name.startswith("coupled")),
        "pairs": n_pairs,
        "screen_window": screen_window,
        "screen_margin": config.screen_margin,
        "correlated_pairs": len(reference.correlated()),
        "unscreened": {
            "seconds": round(unscreened_seconds, 4),
            "pairs_per_second": round(n_pairs / unscreened_seconds, 3),
        },
        "cascade": {
            "seconds": round(cascade_seconds, 4),
            "pairs_per_second": round(n_pairs / cascade_seconds, 3),
            "screen_seconds": round(screen_seconds, 4),
            "search_seconds": round(search_seconds, 4),
            "pairs_screened": screened.pairs_screened,
            "pairs_pruned_fft": screened.pairs_pruned_fft,
            "pairs_pruned_nmi": screened.pairs_pruned_nmi,
            "pairs_searched": screened.pairs_searched,
            "fft_prune_fraction": round(fft_prune_fraction, 4),
            "recall": 1.0,  # asserted above
            "identical_findings": True,  # asserted above
            "speedup_vs_unscreened": round(speedup, 3),
        },
        "min_prune_required": min_prune,
        "min_speedup_required": min_speedup,
    }


def bench_planner(
    length: int,
    episodes: List[Tuple[int, int, int]],
    use_noise: bool,
    seed: int,
) -> Dict[str, Any]:
    """Every plan shape through ``execute_plan``: parity gated, then timed.

    Each row asserts its correctness contract before its wall clock is
    recorded: the plain, segmented, and coarse rows must reproduce the
    legacy wrapper (``Tycos.search`` with the equivalent arguments)
    byte-exactly -- same windows, MI/NMI floats, and order -- and the
    composed ``segments=4,coarse=8`` row must reproduce its sequential
    definition: the timeline sharded into spans, every span searched
    coarse-to-fine by a jitter-free segment engine, the per-span
    results merged by the planner's stitcher.  The timings are
    single-run and advisory (the regression reference is the gate row);
    what this section attests is that routing every strategy through
    one plan executor costs nothing in correctness.
    """
    config = TycosConfig(
        sigma=0.75,
        s_min=32,
        s_max=96,
        td_max=8,
        jitter=1e-6,
        seed=3,
        init_delay_step=1,
        coarse_sigma_ratio=0.85,
    )
    engine = (tycos_lmn if use_noise else tycos_lm)(config)
    x, y = make_episode_pair(length, episodes, seed)

    def snapshot(result: Any) -> List[Tuple[Any, float, float]]:
        return [(r.window, r.mi, r.nmi) for r in result.windows]

    out: Dict[str, Any] = {
        "series_length": length,
        "episodes": len(episodes),
        "variant": "lmn" if use_noise else "lm",
    }

    wrapper_rows: List[Tuple[str, Any, Callable[[], Any]]] = [
        ("plain", plain_plan(), lambda: engine.search(x, y)),
        (
            "segments=4",
            segmented_plan(4),
            lambda: engine.search(x, y, n_segments=4),
        ),
        (
            "coarse=8",
            multiscale_plan(8),
            lambda: engine.search(x, y, coarse_factor=8),
        ),
    ]
    for label, plan, legacy in wrapper_rows:
        reference = legacy()
        start = time.perf_counter()
        planned = execute_plan(x, y, engine=engine, plan=plan)
        seconds = time.perf_counter() - start
        if snapshot(planned) != snapshot(reference):
            raise AssertionError(
                f"plan {label!r} diverged from its legacy wrapper"
            )
        if planned.stats.plan != plan.spec():
            raise AssertionError(
                f"plan {label!r} recorded stats.plan={planned.stats.plan!r}"
            )
        out[label] = {
            "fingerprint": plan.fingerprint(),
            "seconds": round(seconds, 4),
            "windows": len(planned.windows),
            "windows_evaluated": planned.stats.windows_evaluated,
            "identical_to_wrapper": True,  # asserted above
        }

    # -- composed: coarse-to-fine inside each segment ------------------- #
    plan = composed_plan(4, 8)
    start = time.perf_counter()
    composed = execute_plan(x, y, engine=engine, plan=plan)
    seconds = time.perf_counter() - start
    pair = PairView(x, y, jitter=config.jitter, seed=config.seed)
    spans = segment_spans(pair.n, 4, config.segment_overlap())
    seg_engine = _segment_engine(engine)
    per_segment = [
        execute_plan(
            pair.x[lo:hi], pair.y[lo:hi], engine=seg_engine, plan=multiscale_plan(8)
        )
        for lo, hi in spans
    ]
    reference = _stitch(engine, pair, spans, per_segment, started=0.0)
    if snapshot(composed) != snapshot(reference):
        raise AssertionError(
            "composed plan diverged from its sequential definition"
        )
    out["segments=4,coarse=8"] = {
        "fingerprint": plan.fingerprint(),
        "seconds": round(seconds, 4),
        "windows": len(composed.windows),
        "windows_evaluated": composed.stats.windows_evaluated,
        "coarse_windows_evaluated": composed.stats.coarse_windows_evaluated,
        "cells_pruned": composed.stats.cells_pruned,
        "identical_to_sequential_definition": True,  # asserted above
    }
    return out


def bench_cascade_stage3(
    n_series: int,
    length: int,
    episodes: List[Tuple[int, int]],
    n_coupled: int,
    screen_window: int,
    min_speedup: float,
    use_noise: bool,
    seed: int,
) -> Dict[str, Any]:
    """Plan-driven stage 3 vs plain stage 3: pair-set parity, then the floor.

    The episodic collection is cascade-scanned twice on a single core
    (``n_jobs=1``, so the speedup is pruning, not parallelism): once
    with the default plain stage 3 (the PR-9 behavior, byte-compatible
    by construction since ``plan=None`` changes nothing) and once with
    stage 3 refining every survivor through ``plan="coarse=8"``.  The
    gates, in order: both runs' correlated-pair sets must be identical
    and non-empty, the screens must actually prune (otherwise the
    section measures nothing), the planned report must carry the plan
    provenance in its metadata, and only then is the search-phase
    speedup recorded -- and it must reach ``min_speedup``.
    """
    series = make_episodic_collection(n_series, length, seed, n_coupled, episodes)
    config = TycosConfig(
        sigma=0.75,
        s_min=32,
        s_max=96,
        td_max=8,
        jitter=1e-6,
        seed=3,
        init_delay_step=1,
        coarse_sigma_ratio=0.85,
    )
    variant = tycos_lmn if use_noise else tycos_lm
    n_pairs = n_series * (n_series - 1) // 2

    plain = cascade_scan(
        series, config, screen_window=screen_window, engine=variant(config)
    )
    planned = cascade_scan(
        series,
        config,
        screen_window=screen_window,
        engine=variant(config),
        plan="coarse=8",
    )

    plain_pairs = sorted((f.source, f.target) for f in plain.correlated())
    planned_pairs = sorted((f.source, f.target) for f in planned.correlated())
    if not plain_pairs:
        raise AssertionError("stage-3 workload found no correlated pairs")
    if plain_pairs != planned_pairs:
        raise AssertionError(
            f"plan-driven stage 3 changed the correlated-pair set: "
            f"plain={plain_pairs} planned={planned_pairs}"
        )
    for report, label in ((plain, "plain"), (planned, "planned")):
        counted = (
            report.pairs_pruned_fft + report.pairs_pruned_nmi + report.pairs_searched
        )
        if report.pairs_screened != n_pairs or counted != n_pairs:
            raise AssertionError(
                f"stage-3 {label} counters do not account for every pair"
            )
    if plain.pairs_pruned_fft == 0:
        raise AssertionError(
            "stage-3 screens pruned nothing; the workload must leave a "
            "survivor set smaller than the collection"
        )
    if planned.metadata.get("plan") != "coarse=8" or "plan_fingerprint" not in (
        planned.metadata
    ):
        raise AssertionError("planned cascade report is missing plan provenance")

    plain_search = plain.phase_seconds.get("search", 0.0)
    planned_search = planned.phase_seconds.get("search", 0.0)
    speedup = plain_search / planned_search if planned_search else 0.0
    if speedup < min_speedup:
        raise AssertionError(
            f"plan-driven stage 3 speedup {speedup:.2f}x over the plain "
            f"stage 3 < required {min_speedup:.1f}x"
        )
    return {
        "series": n_series,
        "series_length": length,
        "coupled_series": n_coupled,
        "episodes": len(episodes),
        "pairs": n_pairs,
        "screen_window": screen_window,
        "variant": "lmn" if use_noise else "lm",
        "correlated_pairs": len(plain_pairs),
        "identical_pair_sets": True,  # asserted above
        "plan": planned.metadata["plan"],
        "plan_fingerprint": planned.metadata["plan_fingerprint"],
        "plain_stage3": {
            "search_seconds": round(plain_search, 4),
            "pairs_searched": plain.pairs_searched,
        },
        "multiscale_stage3": {
            "search_seconds": round(planned_search, 4),
            "pairs_searched": planned.pairs_searched,
            "speedup_vs_plain": round(speedup, 3),
        },
        "min_speedup_required": min_speedup,
    }


def check_regression(
    document: Dict[str, Any], baseline_path: str, max_regression: float
) -> Optional[str]:
    """Compare this run's gate throughput against a committed document.

    Returns an error message when the gate regressed by more than
    ``max_regression`` (a fraction), or None when it passed.
    """
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return f"cannot read baseline {baseline_path}: {exc}"
    ref = baseline.get("gate", {}).get("windows_per_second")
    if not ref:
        return f"baseline {baseline_path} has no gate.windows_per_second"
    current = document["gate"]["windows_per_second"]
    floor = ref * (1.0 - max_regression)
    if current < floor:
        return (
            f"scalar-path gate regressed: {current:.1f} windows/s vs baseline "
            f"{ref:.1f} (floor {floor:.1f} at {max_regression:.0%} tolerance)"
        )
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and 2 workers; a CI health check, not a baseline")
    parser.add_argument("--output", default=None,
                        help="write the JSON document here (default: stdout only)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats, best-of (default: 3, smoke: 1)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--check-against", default=None, metavar="PATH",
                        help="committed benchmark JSON to compare the gate row against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="fail when the gate windows/s drops more than this "
                             "fraction below the baseline (default 0.30)")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (1 if args.smoke else 3)
    if repeats < 1:
        parser.error(f"--repeats must be >= 1, got {repeats}")
    if not 0.0 <= args.max_regression < 1.0:
        parser.error(f"--max-regression must be in [0, 1), got {args.max_regression}")
    if args.smoke:
        n_series, length, jobs = 4, 240, [1, 2]
        scoring_length = 400
        segment_rows = [(2, 1), (2, 2)]
        # Smoke keeps the multiscale workload (parity only holds on the
        # tuned pair) but runs the cheaper noise-seeded variant at one
        # factor, so the recall assertion still gates every CI push.
        multiscale_factors, multiscale_noise, multiscale_floor = [8], True, 1.2
        # Smoke shrinks the cascade collection (the two quadratic scans
        # dominate its wall clock) but keeps the recall gate; the pruning
        # floor drops with the pair count because the noise-maximum
        # statistics of the screens concentrate with more comparisons.
        # Three coupled series (three survivor pairs) keep the speedup
        # ceiling well above the 1.5x floor while the survivor search
        # still dwarfs the screen phase, so both timing gates have
        # headroom against CI noise.
        cascade_series, cascade_length, cascade_window, cascade_floor = 24, 240, 120, 0.5
        cascade_coupled, cascade_speedup_floor = 3, 1.5
        # Smoke keeps every planner parity assertion on a shorter pinned
        # episode layout; the stage-3 floor drops to 1.2x because shorter
        # quiet stretches leave the coarse pre-pass less to prune.
        planner_length = 3000
        planner_episodes = [(500, 250, 5), (2000, 260, -3)]
        stage3_series, stage3_length, stage3_coupled = 8, 4000, 3
        stage3_episodes = [(500, 240), (2900, 260)]
        stage3_noise, stage3_floor = True, 1.2
        config = TycosConfig(sigma=0.3, s_min=8, s_max=40, td_max=8, jitter=1e-6, seed=args.seed)
    else:
        n_series, length, jobs = 8, 600, [1, 2, 4]
        scoring_length = 1600
        segment_rows = [(2, 1), (2, 2), (4, 1), (4, 4)]
        multiscale_factors, multiscale_noise, multiscale_floor = [2, 4, 8], False, 2.0
        # Six coupled series pin 15 irreducible survivor searches against
        # ~3 000 prunable noise pairs: the prescreen's design regime.
        # (The PR-8 pinning coupled a quarter of 64 series; its 120
        # survivor searches were ~75% of the unscreened scan, capping
        # any screening speedup at ~1.34x -- see make_cascade_collection.)
        cascade_series, cascade_length, cascade_window, cascade_floor = 80, 400, 200, 0.70
        cascade_coupled, cascade_speedup_floor = 6, 3.0
        # Full mode runs the planner parity rows on the multiscale
        # section's tuned 8000-sample layout, and the stage-3 comparison
        # on the lm variant (like the multiscale section: noise pruning
        # already skips quiet stretches, so lmn understates what the
        # coarse pre-pass buys an exhaustive stage 3).
        planner_length = _MULTISCALE_LENGTH
        planner_episodes = list(_MULTISCALE_EPISODES)
        stage3_series, stage3_length, stage3_coupled = 10, 8000, 3
        stage3_episodes = [(1200, 300), (4200, 280), (6800, 320)]
        stage3_noise, stage3_floor = False, 1.5
        config = TycosConfig(sigma=0.3, s_min=8, s_max=80, td_max=12, jitter=1e-6, seed=args.seed)

    document = {
        "schema": SCHEMA,
        "mode": "smoke" if args.smoke else "full",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "sigma": config.sigma,
            "s_min": config.s_min,
            "s_max": config.s_max,
            "td_max": config.td_max,
            "seed": args.seed,
            "repeats": repeats,
        },
        "pairwise": bench_pairwise(n_series, length, config, jobs, repeats, args.seed),
        "gate": bench_gate(args.seed),
        "kernel": bench_kernel(repeats),
        "scoring": bench_scoring(scoring_length, config, repeats, args.seed + 1),
        "segmented": bench_segmented(
            scoring_length, config, segment_rows, repeats, args.seed + 1
        ),
        # The multiscale workload seed is pinned (not --seed): the recall
        # assertion documents parity on *this* tuned pair, and a different
        # draw would change what the committed numbers attest to.
        "multiscale": bench_multiscale(
            multiscale_factors, multiscale_noise, repeats, multiscale_floor, seed=11
        ),
        "screen": bench_screen(
            cascade_series,
            cascade_length,
            cascade_window,
            td_max=8,
            repeats=repeats,
            seed=args.seed,
            n_coupled=cascade_coupled,
        ),
        "cascade": bench_cascade(
            cascade_series,
            cascade_length,
            cascade_window,
            cascade_floor,
            cascade_speedup_floor,
            args.seed,
            n_coupled=cascade_coupled,
        ),
        # Both PR-10 sections pin their workload seeds (not --seed): the
        # parity and pair-set assertions document behavior on *these*
        # tuned layouts, and a different draw would change what the
        # committed numbers attest to.
        "planner": bench_planner(
            planner_length, planner_episodes, use_noise=True, seed=11
        ),
        "cascade_stage3": bench_cascade_stage3(
            stage3_series,
            stage3_length,
            stage3_episodes,
            stage3_coupled,
            screen_window=256,
            min_speedup=stage3_floor,
            use_noise=stage3_noise,
            seed=2024,
        ),
        "notes": (
            "Timings are best-of-repeats wall clock.  Multi-worker speedup "
            "scales with host cores (see host.cpu_count); on a single-core "
            "host the n_jobs>1 rows measure process-pool overhead.  The "
            "scoring ablations are exact: every row reproduces the same "
            "windows and MI floats, so the deltas are pure kernel cost.  "
            "Segmented n_jobs>1 rows are asserted byte-equal to their "
            "sequential reference before any speedup is reported.  "
            "Multiscale rows are accepted only after recovering 100% of "
            "the exhaustive windows at bit-identical scores, and the "
            "largest factor must meet min_reduction_required on "
            "full_windows_evaluated.  The gate row is the same workload "
            "in smoke and full mode and feeds the --check-against "
            "regression comparison.  The screen section asserts the "
            "batched stage-1 scores bit-identical to the per-pair "
            "fft_screen_score loop before timing either path.  The "
            "cascade row asserts 100% recall "
            "and byte-identical surviving findings against the unscreened "
            "scan, full counter accounting, the FFT-stage pruning "
            "floor (min_prune_required), the end-to-end speedup floor "
            "(min_speedup_required), and screen_seconds < search_seconds "
            "before its numbers are recorded.  "
            "Planner rows assert byte-identity against the legacy "
            "wrappers (composed: against the sequential definition) "
            "before their single-run timings are recorded.  The "
            "cascade_stage3 row asserts identical correlated-pair sets "
            "between the plain and plan-driven stage 3 and enforces the "
            "search-phase speedup floor (min_speedup_required) on a "
            "single core."
        ),
    }

    text = json.dumps(document, indent=2, sort_keys=False)
    print(text)
    if args.output is not None:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    if args.check_against is not None:
        error = check_regression(document, args.check_against, args.max_regression)
        if error is not None:
            print(f"REGRESSION: {error}", file=sys.stderr)
            return 1
        print(
            f"regression check passed against {args.check_against} "
            f"(tolerance {args.max_regression:.0%})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
