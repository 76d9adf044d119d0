"""Process-pool pairwise scanning with shared-memory series transfer.

A full pairwise scan runs one independent TYCOS search per pair -- an
embarrassingly parallel workload, but one whose naive parallelisation
ships every series to every worker inside every task.  This module fans
:func:`repro.analysis.pairwise.scan_pairs` over a
:class:`~concurrent.futures.ProcessPoolExecutor` while paying the data
transfer cost exactly once:

* The whole series collection is packed into a single
  :class:`multiprocessing.shared_memory.SharedMemory` block; each worker
  attaches read-only ``float64`` views at process start, so tasks carry
  only pair *names*.  (A pickle fallback covers platforms or sandboxes
  where POSIX shared memory is unavailable.)
* Pairs are dispatched in chunks to amortise task overhead, and results
  are merged by original submission index, so the report -- findings
  and failures, each in order -- is byte-identical to the serial scan
  for every worker count.
* Collections that live in a :class:`repro.analysis.store.SeriesStore`
  skip the copy entirely: pass ``store_path`` and each worker attaches
  read-only memory-mapped views of the on-disk matrix, so the kernel
  page cache -- not per-worker RAM -- holds the one shared copy.
* A pair whose search raises is contained: the scan completes and the
  offending pair is reported in ``report.failures`` with its error,
  matching the serial path's containment.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro._types import FloatArray
from repro.analysis.pairwise import PairFailure, PairFinding, PairwiseReport, _evaluate_pair
from repro.analysis.store import SeriesStore
from repro.core.config import TycosConfig
from repro.core.tycos import Tycos

if TYPE_CHECKING:  # pragma: no cover - cycle guard: the planner imports
    # this module for its pool transport, so plan types are annotation-only
    from repro.analysis.planner import SearchPlan

__all__ = [
    "scan_pairs_parallel",
    "pooled_map",
    "worker_state",
    "resolve_n_jobs",
    "effective_workers",
    "pack_series",
    "attach_series",
    "attach_untracked",
]

logger = logging.getLogger(__name__)

# One (name, offset, length) entry per series inside the shared block,
# offsets in *elements* of float64.
_Layout = List[Tuple[str, int, int]]

# Worker-process globals, populated once by the pool initializer.  Each
# worker holds the attached series views plus whatever extra state the
# caller shipped (engine, thresholds); tasks then only need to carry the
# coordinates of the work they cover.  This is the one sanctioned
# process-wide registry for pool transport (tycoslint registry:
# CACHE_MODULES): initializers repopulate it from scratch in every
# worker, so nothing ever depends on a forked snapshot.
_WORKER_STATE: Dict[str, Any] = {}


def worker_state() -> Dict[str, Any]:
    """The calling worker's transport state, as its initializer left it.

    Task functions shipped to :func:`pooled_map` read their series under
    ``worker_state()["series"]`` and any ``extra_state`` entries under
    their own keys.  In the parent process (no initializer ran) the dict
    is empty.
    """
    return _WORKER_STATE


def resolve_n_jobs(n_jobs: int) -> int:
    """Map an ``n_jobs`` request to a concrete worker count.

    ``-1`` means every available core; any other value must be >= 1.

    Note that requesting more workers than physical cores is pure
    overhead: each extra process pays interpreter spin-up, engine
    unpickling and scheduler churn without adding CPU time (the
    ``BENCH_PR2.json`` n_jobs=4 row on a 1-core host ran *slower* than
    serial for exactly this reason).  Callers that know their task count
    should additionally clamp to it, as :func:`scan_pairs_parallel` does.
    """
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def effective_workers(
    n_jobs: int, n_tasks: int, *, force_parallel: bool = False, what: str = "scan"
) -> Tuple[int, bool]:
    """Resolve a fan-out's worker count, with the single-core fallback.

    Clamps the :func:`resolve_n_jobs` request to the task count (idle
    workers still pay pool spin-up), then -- when the host has exactly
    one CPU and more than one worker survived the clamp -- falls back to
    one worker: on a single core a process pool adds dispatch and
    unpickling overhead without adding CPU time (the tracked
    ``BENCH_PR4.json`` measured n_jobs=2 at 0.93x serial on a 1-core
    host).  The fallback is logged and reported to the caller so results
    stay attributable; ``force_parallel`` disables it for tests and
    benchmarks that exercise the pool machinery itself.  Results are
    unaffected either way: every parallel path reproduces its serial
    reference bit-exactly.

    Returns:
        ``(workers, fell_back)`` -- the worker count to use and whether
        the single-core fallback fired.
    """
    workers = min(resolve_n_jobs(n_jobs), max(1, n_tasks))
    if workers > 1 and not force_parallel and (os.cpu_count() or 1) == 1:
        logger.warning(
            "%s requested %d workers on a 1-core host; running serially "
            "(pool dispatch would only add overhead; pass force_parallel=True "
            "to override)",
            what,
            workers,
        )
        return 1, True
    return workers, False


def pack_series(series: Dict[str, FloatArray]) -> Tuple[shared_memory.SharedMemory, _Layout]:
    """Copy every series into one shared-memory block.

    Returns the block (owned by the caller, who must close+unlink it) and
    the layout workers need to rebuild their views.
    """
    layout: _Layout = []
    offset = 0
    for name, values in series.items():
        layout.append((name, offset, int(values.size)))
        offset += int(values.size)
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset * 8))
    for (name, start, length), values in zip(layout, series.values()):
        view = np.ndarray((length,), dtype=np.float64, buffer=shm.buf, offset=start * 8)
        view[:] = np.asarray(values, dtype=np.float64)
    return shm, layout


def attach_series(shm: shared_memory.SharedMemory, layout: _Layout) -> Dict[str, FloatArray]:
    """Rebuild read-only series views over an attached shared block."""
    series: Dict[str, FloatArray] = {}
    for name, start, length in layout:
        view = np.ndarray((length,), dtype=np.float64, buffer=shm.buf, offset=start * 8)
        view.flags.writeable = False
        series[name] = view
    return series


def attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing shared block without claiming ownership.

    ``SharedMemory(name=...)`` registers the segment with the attaching
    process's resource tracker even though the parent owns it
    (python/cpython#82300).  On 3.13+ ``track=False`` opts out; earlier,
    when the worker has its *own* tracker (spawn/forkserver) we unregister
    so worker exit doesn't double-unlink the parent's segment.  Under
    ``fork`` the tracker process is shared with the parent and the
    duplicate registration is an idempotent set-add, so unregistering
    there would instead erase the parent's entry.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    shm = shared_memory.SharedMemory(name=name)
    try:
        import multiprocessing
        from multiprocessing import resource_tracker

        if multiprocessing.get_start_method(allow_none=True) != "fork":
            resource_tracker.unregister(f"/{name}", "shared_memory")
    except (ImportError, AttributeError, KeyError, ValueError):
        # No tracker on this platform / already unregistered: the worst
        # case is a spurious tracker warning at interpreter exit.
        return shm
    return shm


def _init_pooled_worker_shm(
    shm_name: str, layout: _Layout, extra: Dict[str, Any]
) -> None:
    """Pool initializer: attach the shared block and build series views."""
    _WORKER_STATE.clear()
    shm = attach_untracked(shm_name)
    _WORKER_STATE["shm"] = shm  # keep the mapping alive for the worker's life
    _WORKER_STATE["series"] = attach_series(shm, layout)
    _WORKER_STATE.update(extra)


def _init_pooled_worker_pickle(
    series: Dict[str, FloatArray], extra: Dict[str, Any]
) -> None:
    """Pool initializer fallback: series arrive pickled with the initargs."""
    _WORKER_STATE.clear()
    _WORKER_STATE["series"] = series
    _WORKER_STATE.update(extra)


def _init_pooled_worker_store(store_path: str, extra: Dict[str, Any]) -> None:
    """Pool initializer: attach memory-mapped views of an on-disk store.

    Only the *path* crosses the process boundary; the worker opens its
    own read-only memmap, so every worker shares the parent's page-cache
    copy instead of materializing the collection again.
    """
    _WORKER_STATE.clear()
    store = SeriesStore.open(store_path)
    _WORKER_STATE["store"] = store  # keep the mapping alive for the worker's life
    _WORKER_STATE["series"] = store.series()
    _WORKER_STATE.update(extra)


def pooled_map(
    fn: Any,
    tasks: Sequence[Any],
    *,
    workers: int,
    series: Dict[str, FloatArray],
    extra_state: Optional[Dict[str, Any]] = None,
    use_shared_memory: bool = True,
    store_path: Optional[Union[str, Path]] = None,
) -> List[Any]:
    """Map ``fn`` over ``tasks`` on a process pool, series shipped once.

    This is the repository's one pool/shared-memory lifecycle: it packs
    ``series`` into a single shared block (pickling them instead when
    shared memory is unavailable), ships ``extra_state`` to every worker
    through the pool initializer, and guarantees the block is closed and
    unlinked whatever happens.  Workers read everything back through
    :func:`worker_state`.

    Args:
        fn: module-level task function (must be picklable); it receives
            one task and reads its inputs from :func:`worker_state`.
        tasks: task payloads, dispatched in order.
        workers: worker process count (resolve via
            :func:`effective_workers` first; this function spawns exactly
            what it is told).
        series: name -> float64 series shipped once to every worker,
            available as ``worker_state()["series"]``.
        extra_state: additional picklable entries merged into the worker
            state (e.g. the engine to scan with).
        use_shared_memory: transport series through shared memory (the
            default) rather than pickling them with the initargs.
        store_path: when the collection lives in a
            :class:`repro.analysis.store.SeriesStore`, its directory.
            Only the path is shipped: each worker memory-maps the store
            read-only, which supersedes both other transports (no copy
            is made anywhere).

    Returns:
        ``[fn(task) for task in tasks]`` -- results in task order,
        regardless of which worker computed what.
    """
    extra = dict(extra_state or {})
    shm: Optional[shared_memory.SharedMemory] = None
    if store_path is None and use_shared_memory:
        try:
            shm, layout = pack_series(series)
        except (OSError, ValueError):
            shm = None  # e.g. /dev/shm unavailable in a sandbox
    try:
        initargs: Tuple[Any, ...]
        if store_path is not None:
            initializer = _init_pooled_worker_store
            initargs = (str(store_path), extra)
        elif shm is not None:
            initializer = _init_pooled_worker_shm  # type: ignore[assignment]
            initargs = (shm.name, layout, extra)
        else:
            initializer = _init_pooled_worker_pickle  # type: ignore[assignment]
            initargs = (series, extra)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        ) as pool:
            return list(pool.map(fn, tasks))
    finally:
        if shm is not None:
            shm.close()
            shm.unlink()


# Task result payload: (submission index, the pair's finding or failure).
_ChunkResult = List[Tuple[int, Union[PairFinding, PairFailure]]]


def _scan_chunk(chunk: Sequence[Tuple[int, str, str]]) -> _ChunkResult:
    """Worker task: evaluate a chunk of (index, source, target) pairs."""
    state = worker_state()
    series: Dict[str, FloatArray] = state["series"]
    engine: Tycos = state["engine"]
    plan = state.get("plan")
    context = state.get("plan_context")
    if plan is not None and context is None:
        # One ExecutionContext per worker process, built on first use and
        # kept in the worker-state registry so every chunk this worker
        # scans reuses the parsed plan and its derived engines.
        from repro.analysis.planner import ExecutionContext

        context = ExecutionContext()
        state["plan_context"] = context
    results: _ChunkResult = []
    for index, source, target in chunk:
        try:
            finding = _evaluate_pair(
                source,
                target,
                series[source],
                series[target],
                engine,
                plan=plan,
                context=context,
            )
        except Exception as exc:  # noqa: BLE001 - containment is the point
            failure = PairFailure(
                source=source, target=target, error=f"{type(exc).__name__}: {exc}"
            )
            results.append((index, failure))
            continue
        results.append((index, finding))
    return results


def scan_pairs_parallel(
    series: Dict[str, FloatArray],
    config: TycosConfig,
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
    engine: Optional[Tycos] = None,
    n_jobs: int = -1,
    chunk_size: Optional[int] = None,
    use_shared_memory: bool = True,
    force_parallel: bool = False,
    store_path: Optional[Union[str, Path]] = None,
    plan: Optional["SearchPlan"] = None,
) -> PairwiseReport:
    """Fan a pairwise scan over a process pool.

    The public entry point is ``scan_pairs(..., n_jobs=N)``, which
    delegates here; call this directly only to reach the transport knobs.

    Args:
        series: name -> series mapping; all series must share a length.
        config: search parameters applied to every pair.
        pairs: explicit (source, target) pairs; default: all unordered
            combinations of the collection's names.
        engine: optional preconfigured engine (default: TYCOS_LMN).  It is
            shipped to the workers once, at pool start.
        n_jobs: worker processes (``-1``: every available core).
        chunk_size: pairs per task; default splits the work into about
            four chunks per worker so stragglers rebalance.
        use_shared_memory: pass series through one shared-memory block
            (the default) rather than pickling them to every worker.
        force_parallel: run the pool even on a 1-core host, where the
            default is to fall back to the serial scan (see
            :func:`effective_workers`).
        store_path: directory of the :class:`repro.analysis.store`
            store the collection lives in, when it has one; workers then
            attach read-only memory maps instead of receiving a copy
            (``series`` should be the same store's views).
        plan: optional :class:`~repro.analysis.planner.SearchPlan` every
            pair executes instead of the legacy ``engine.search``
            dispatch.  The plan ships to the workers once, at pool
            start; each worker builds one
            :class:`~repro.analysis.planner.ExecutionContext` and reuses
            it across its chunks.  Results are bit-identical to the
            serial planned scan.

    Returns:
        A :class:`PairwiseReport` identical to the serial scan's: findings
        and failures each in submission order.  When the single-core
        fallback fired, ``report.notes`` records it.
    """
    names = list(series)
    lengths = {series[name].size for name in names}
    if len(lengths) > 1:
        raise ValueError(f"all series must share a length, got {sorted(lengths)}")
    if engine is None:
        engine = Tycos(config)
    if pairs is None:
        from itertools import combinations

        pair_list = list(combinations(names, 2))
    else:
        pair_list = list(pairs)
    for source, target in pair_list:
        if source not in series or target not in series:
            raise KeyError(f"unknown series in pair ({source!r}, {target!r})")

    # Never spawn more workers than there are pairs: idle workers still
    # pay pool spin-up and engine unpickling, which dominates small scans.
    workers, fell_back = effective_workers(
        n_jobs, len(pair_list), force_parallel=force_parallel, what="scan_pairs"
    )
    if workers == 1 or not pair_list:
        from repro.analysis.pairwise import scan_pairs

        report = scan_pairs(
            series,
            config,
            pairs=pair_list,
            engine=engine,
            plan=plan,
        )
        if fell_back:
            report.notes.append(
                f"n_jobs={n_jobs} served serially: 1-core host, pool dispatch "
                "would only add overhead"
            )
        return report

    tasks = [(i, s, t) for i, (s, t) in enumerate(pair_list)]
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(tasks) / (workers * 4)))
    chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]

    slots: List[Optional[Union[PairFinding, PairFailure]]] = [None] * len(tasks)
    extra_state: Dict[str, Any] = {"engine": engine}
    if plan is not None:
        extra_state["plan"] = plan
    for chunk_result in pooled_map(
        _scan_chunk,
        chunks,
        workers=workers,
        series=series,
        extra_state=extra_state,
        use_shared_memory=use_shared_memory,
        store_path=store_path,
    ):
        for index, outcome in chunk_result:
            slots[index] = outcome

    report = PairwiseReport()
    if plan is not None:
        report.metadata["plan"] = plan.spec()
        report.metadata["plan_fingerprint"] = plan.fingerprint()
    for slot in slots:
        if slot is None:  # pragma: no cover - map() either fills all or raises
            raise RuntimeError("parallel scan lost a pair result")
        if isinstance(slot, PairFinding):
            report.findings.append(slot)
        else:
            report.failures.append(slot)
    return report
