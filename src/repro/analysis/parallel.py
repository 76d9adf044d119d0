"""The process-pool transport: series shipped to workers once.

A pairwise scan runs one independent TYCOS search per pair, and a
``segments=K`` plan one search per timeline span -- embarrassingly
parallel work, but work whose naive parallelisation ships every series
to every worker inside every task.  :func:`pooled_map` is the
repository's one pool lifecycle, and it pays the data transfer cost
exactly once:

* The whole series collection is packed into a single
  :class:`multiprocessing.shared_memory.SharedMemory` block; each worker
  attaches read-only ``float64`` views at process start, so tasks carry
  only the coordinates of their work.  When the block cannot be created
  (no POSIX shared memory on the platform or in a sandbox) the series
  are pickled to the workers instead.
* Collections that live in a :class:`repro.analysis.store.SeriesStore`
  skip the copy entirely: pass ``store_path`` and each worker attaches
  read-only memory-mapped views of the on-disk matrix, so the kernel
  page cache -- not per-worker RAM -- holds the one shared copy.
* Results come back in task order, so a caller that merges them in
  that order reproduces its serial reference for every worker count
  (:func:`repro.analysis.pairwise.scan_pairs`,
  :func:`repro.analysis.planner.execute_plan`,
  :func:`repro.analysis.cascade.cascade_scan`).

:func:`effective_workers` sizes every fan-out by one rule: the request,
capped by the host's cores and by the task count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._types import FloatArray
from repro.analysis.store import SeriesStore

__all__ = [
    "pooled_map",
    "worker_state",
    "resolve_n_jobs",
    "effective_workers",
    "pack_series",
    "attach_series",
    "attach_untracked",
]

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
    unpickling and scheduler churn without adding CPU time (an n_jobs=4
    scan of 28 pairs on a 1-core host ran at 0.57x serial for exactly
    this reason), so :func:`effective_workers` caps the count at the
    host's cores and at the number of tasks.
    """
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def effective_workers(n_jobs: int, n_tasks: int) -> int:
    """The worker count of one fan-out: the request, capped by cores and tasks.

    Workers beyond the host's cores add overhead without adding CPU time
    (see :func:`resolve_n_jobs`), and workers beyond the task count sit
    idle after paying pool spin-up.  A count of 1 is the in-process
    serial path.  Results are unaffected either way: every parallel path
    reproduces its serial reference bit-exactly.
    """
    return min(resolve_n_jobs(n_jobs), os.cpu_count() or 1, max(1, n_tasks))


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
    store_path: Optional[Union[str, Path]] = None,
) -> List[Any]:
    """Map ``fn`` over ``tasks`` on a process pool, series shipped once.

    This is the repository's one pool/shared-memory lifecycle: it packs
    ``series`` into a single shared block (pickling them instead when
    the block cannot be created), ships ``extra_state`` to every worker
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
    if store_path is None:
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
