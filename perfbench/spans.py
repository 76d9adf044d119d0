"""Outside-in layer trace: wrap the layers' public functions, record spans.

The traced run swaps each function in :data:`TARGETS` for a wrapper that
records one span -- name, start, end, parent span, operation id -- in
memory, and swaps the original back afterwards, so untraced operations
execute the unmodified program.  Functions are patched in the namespace
their caller resolves them from (``repro.core.tycos.neighborhood``, not
``repro.core.neighborhood.neighborhood``).

Where no public call separates two stages (the planner's coarse and
refine passes both run ``Tycos._search_whole``), the layer metrics read
the program's own ``SearchStats`` and ``PairwiseReport`` fields instead
("program-reported" in the README's metric table, which also names the
end-to-end metric and workload each layer metric should move).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

#: (module, attribute path, span name).  The span name's prefix up to the
#: first dot is the layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.analysis.cascade", "build_screen_states", "cascade.build_screen_states"),
    ("repro.analysis.cascade", "batched_screen_scores", "cascade.batched_screen_scores"),
    ("repro.analysis.cascade", "coarse_nmi_score", "nmi.coarse_nmi_score"),
    ("repro.analysis.cascade", "scan_pairs", "pairwise.scan_pairs"),
    ("repro.core.tycos", "Tycos.search", "search.Tycos.search"),
    ("repro.analysis.planner", "execute_plan", "planner.execute_plan"),
    ("repro.core.tycos", "find_initial_window", "noise.find_initial_window"),
    ("repro.core.lahc", "LateAcceptanceHillClimbing.search", "lahc.search"),
    ("repro.core.tycos", "neighborhood", "neighborhood.neighborhood"),
    ("repro.core.thresholds", "BatchScorer.value", "scoring.value"),
    ("repro.core.thresholds", "BatchScorer.value_many", "scoring.value_many"),
    ("repro.core.thresholds", "BatchScorer.score", "scoring.score"),
    ("repro.core.thresholds", "IncrementalScorer.score", "scoring.incremental_score"),
    ("repro.mi.neighbors", "PairDistanceWorkspace.__init__", "workspace.build"),
    ("repro.mi.neighbors", "PairDistanceWorkspace.knn", "knn.knn"),
    ("repro.mi.ksg", "marginal_counts", "marginal.marginal_counts"),
    ("repro.mi.ksg", "KSGEstimator.mi_from_counts", "reduce.mi_from_counts"),
    ("repro.mi.ksg", "KSGEstimator.mi", "ksgmi.mi"),
    ("repro.mi.incremental", "SlidingKSG.add", "sliding.add"),
    ("repro.mi.incremental", "SlidingKSG.remove", "sliding.remove"),
    ("repro.mi.incremental", "SlidingKSG.mi", "sliding.mi"),
)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class SpanRecorder:
    """In-memory span store plus the patching that feeds it.

    Spans are kept column-wise (``array``) because one traced gallery
    search records about half a million of them.  A span's index is
    allocated on entry, so every parent precedes its children.
    """

    def __init__(self) -> None:
        self.names: List[str] = [name for _, _, name in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.plan_stats: Dict[int, List[Any]] = {}
        self.current_op = -1
        self._stack = [-1]
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable[..., Any], name_id: int, keep_stats: bool) -> Callable[..., Any]:
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(recorder.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            began = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = began
                stack.pop()
            if keep_stats:
                recorder.plan_stats.setdefault(recorder.current_op, []).append(out.stats)
            return out

        return traced

    def install(self) -> None:
        """Swap every target for its recording wrapper."""
        if self._saved:
            raise RuntimeError("spans already installed")
        for name_id, (module, path, name) in enumerate(TARGETS):
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name_id, name == "planner.execute_plan"))

    def uninstall(self) -> None:
        """Put every original function back, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (pooled work); their intervals are
    merged and clipped to the parent before being subtracted.
    """
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        covered = 0.0
        lo = hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], start[p]), min(end[k], end[p])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out[p] -= covered
    return out


def _outermost(name_id: List[int], parent: List[int], layer_of: List[int]) -> np.ndarray:
    """True for spans with no ancestor in their own layer."""
    masks = [0] * len(name_id)
    outer = np.zeros(len(name_id), dtype=bool)
    for i in range(len(name_id)):
        p = parent[i]
        mask = 0 if p < 0 else masks[p] | (1 << layer_of[name_id[p]])
        masks[i] = mask
        outer[i] = not mask & (1 << layer_of[name_id[i]])
    return outer


def _sum_stats(stats: Sequence[Any], field: str) -> float:
    return float(sum(getattr(s, field) for s in stats))


def _phase(stats: Sequence[Any], phase: str) -> float:
    return float(sum(s.phase_seconds.get(phase, 0.0) for s in stats))


def _frac(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def op_layer_metrics(
    recorder: SpanRecorder, arrays: Dict[str, np.ndarray], op: int, report: Any
) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""
    names = recorder.names
    mask = arrays["op"] == op
    name_id = arrays["name_id"][mask]
    duration = (arrays["end"] - arrays["start"])[mask]
    own = arrays["self"][mask]
    outer = arrays["outer"][mask]
    by_name = {n: name_id == i for i, n in enumerate(names)}

    def inclusive(layer: str) -> float:
        ids = [i for i, n in enumerate(names) if n.startswith(layer + ".")]
        sel = outer & np.isin(name_id, ids)
        return float(duration[sel].sum())

    def calls(name: str) -> float:
        return float(by_name[name].sum())

    stats = recorder.plan_stats.get(op, [])
    # Survivor searches: Tycos.search spans whose parent is a scan_pairs span.
    parent = arrays["parent"]
    is_pair = mask & (arrays["name_id"] == names.index("search.Tycos.search")) & (parent >= 0)
    is_pair[is_pair] = arrays["name_id"][parent[is_pair]] == names.index("pairwise.scan_pairs")
    pair_times = (arrays["end"] - arrays["start"])[is_pair].tolist()
    windows = _sum_stats(stats, "full_windows_evaluated")
    cache_hits = _sum_stats(stats, "cache_hits")
    ws_hits = _sum_stats(stats, "workspace_hits")
    ws_builds = _sum_stats(stats, "workspace_builds")
    iterations = _sum_stats(stats, "lahc_iterations")
    screened = getattr(report, "pairs_screened", 0)
    survivors = getattr(report, "pairs_searched", 0)
    nmi_calls = calls("nmi.coarse_nmi_score")
    correlated = len(report.correlated()) if screened else 0
    return {
        "cascade.screen_s": inclusive("cascade"),
        "cascade.screen_pairs": float(screened),
        "cascade.screen_prune_frac": _frac(getattr(report, "pairs_pruned_fft", 0), screened),
        "cascade.nmi_s": inclusive("nmi"),
        "cascade.nmi_calls": nmi_calls,
        "cascade.nmi_prune_frac": _frac(getattr(report, "pairs_pruned_nmi", 0), nmi_calls),
        "cascade.survivors": float(survivors),
        "cascade.survivor_hit_frac": _frac(correlated, survivors),
        "pairwise.search_s": inclusive("pairwise"),
        "pairwise.pair_p50_s": statistics.median(pair_times) if pair_times else 0.0,
        "pairwise.pair_max_s": max(pair_times, default=0.0),
        "pairwise.pair_samples": float(len(pair_times)),
        "planner.execute_s": inclusive("planner"),
        "planner.coarse_s": _phase(stats, "coarse"),
        "planner.refine_s": _phase(stats, "refine"),
        "planner.coarse_windows": _sum_stats(stats, "coarse_windows_evaluated"),
        "planner.full_windows": windows,
        "planner.cells_pruned": _sum_stats(stats, "cells_pruned"),
        "noise.seed_s": inclusive("noise"),
        "noise.seed_calls": calls("noise.find_initial_window"),
        "noise.prunes": _sum_stats(stats, "noise_prunes"),
        "lahc.self_s": float(own[by_name["lahc.search"]].sum()),
        "lahc.restarts": _sum_stats(stats, "restarts"),
        "lahc.iterations": iterations,
        "lahc.accept_frac": _frac(_sum_stats(stats, "accepted_moves"), iterations),
        "neighborhood.s": inclusive("neighborhood"),
        "neighborhood.calls": calls("neighborhood.neighborhood"),
        "scoring.s": inclusive("scoring"),
        "scoring.lookups": windows + cache_hits,
        "scoring.memo_hit_frac": _frac(cache_hits, windows + cache_hits),
        "scoring.workspace_lookups": ws_hits + ws_builds,
        "scoring.workspace_hit_frac": _frac(ws_hits, ws_hits + ws_builds),
        "neighbors.knn_s": inclusive("knn"),
        "neighbors.knn_calls": calls("knn.knn"),
        "neighbors.marginal_s": inclusive("marginal"),
        "neighbors.marginal_calls": calls("marginal.marginal_counts"),
        "neighbors.workspace_builds": calls("workspace.build"),
        "ksg.reduce_s": inclusive("reduce"),
        "ksg.mi_s": inclusive("ksgmi"),
        "ksg.mi_calls": calls("ksgmi.mi"),
        "sliding.s": inclusive("sliding"),
        "sliding.full_searches": _sum_stats(stats, "mi_full_searches"),
        "sliding.updates": _sum_stats(stats, "mi_incremental_updates"),
    }


def layer_metrics(
    recorder: SpanRecorder, reports: Dict[int, Any]
) -> Tuple[Dict[str, float], Dict[str, np.ndarray]]:
    """Median over traced operations of every per-layer metric, plus the span arrays."""
    arrays = recorder.arrays()
    names = recorder.names
    layers = sorted({n.split(".")[0] for n in names})
    layer_of = [layers.index(n.split(".")[0]) for n in names]
    arrays["outer"] = _outermost(arrays["name_id"].tolist(), arrays["parent"].tolist(), layer_of)
    arrays["self"] = np.asarray(
        self_times(arrays["start"].tolist(), arrays["end"].tolist(), arrays["parent"].tolist())
    )
    per_op = [op_layer_metrics(recorder, arrays, op, report) for op, report in reports.items()]
    merged = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    return merged, arrays


def write(path: Any, recorder: SpanRecorder, arrays: Dict[str, np.ndarray]) -> None:
    """Write the spans (and the span-name table) as one compressed ``.npz``."""
    np.savez_compressed(path, names=np.array(recorder.names), **arrays)
