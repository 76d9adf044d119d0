"""Registries the whole-program rule families are checked against.

These sets are the *declared* architecture: which modules are allowed to
own process-wide mutable state, which may touch multiprocessing
primitives, which build report payloads, and which fast paths owe the
bit-exactness gate a test.  Rules TY101-TY121 compare the code against
these declarations, so growing the codebase is a two-step move: write
the module, then register it here (reviewed in the same diff).

Registering a module is a claim with obligations:

* ``CACHE_MODULES`` -- the module's state must be fork-safe: either
  append-only memos whose entries are identical however they are grown
  (``repro.mi.digamma``; the ``lru_cache`` pure-function memos), or
  per-process registries that pool initializers repopulate from scratch
  in every worker (``repro.analysis.parallel``).
* ``PARALLEL_MODULES`` -- the module owns pool/shared-memory lifecycles
  end to end (create, attach, unlink), so fork-safety review has one
  place to look.
* ``REPORT_MODULES`` -- the module's output feeds serialized reports and
  must stay free of wall-clock values (TY114) so byte-diffing two runs
  means something.
* ``FAST_PATH_GATES`` -- the module implements an accelerated path whose
  results are claimed bit-identical to a reference; TY121 requires a
  test module that imports it and asserts equality.  The mapped string
  names the reference the gate compares against (documentation, shown in
  the violation message).
* ``STORE_MODULES`` -- the modules allowed to open memory maps and to
  spell the series-store file names (TY116).  Mmap lifetimes are easy to
  leak and the store manifest is a format contract, so both get a single
  audited owner; everything else attaches through
  ``repro.analysis.store.SeriesStore``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

__all__ = [
    "CACHE_MODULES",
    "PARALLEL_MODULES",
    "REPORT_MODULES",
    "FAST_PATH_GATES",
    "POOL_SPAWNERS",
    "STORE_MODULES",
    "STORE_FILENAMES",
]

#: Modules allowed to own (and mutate) process-wide mutable state.
CACHE_MODULES: FrozenSet[str] = frozenset(
    {
        # DigammaTable._SHARED: append-only; every entry is the same scipy
        # evaluation a direct call would produce, so a worker re-growing
        # its copy after fork computes identical values.
        "repro.mi.digamma",
        # lru_cache'd default_bins: pure-function memo, fork-safe.
        "repro.mi.entropy",
        # lru_cache'd _shell/_is_blocked direction tables: pure-function
        # memos, fork-safe.
        "repro.core.neighborhood",
        # _WORKER_STATE: the per-worker attachment registry, repopulated
        # from scratch by every pool initializer.
        "repro.analysis.parallel",
    }
)

#: Modules allowed to use multiprocessing / shared-memory primitives.
PARALLEL_MODULES: FrozenSet[str] = frozenset({"repro.analysis.parallel"})

#: Modules whose output feeds serialized report payloads.
REPORT_MODULES: FrozenSet[str] = frozenset(
    {
        "repro.analysis.serialization",
        "repro.analysis.csvio",
        "repro.analysis.cascade",
        "repro.experiments.reporting",
        "repro.experiments.summary",
    }
)

#: Fast-path module -> the reference its bit-exactness gate compares
#: against.  TY121 requires a test module importing the fast path and
#: asserting equality; run the linter over ``src tests`` together so the
#: gate can see both sides.
FAST_PATH_GATES: Dict[str, str] = {
    "repro.mi.digamma": "direct scipy.special.digamma evaluation",
    "repro.mi.neighbors": "per-window np.sort / scalar KSG geometry",
    "repro.mi.incremental": "full KSG re-estimation per window",
    "repro.mi.stacked": (
        "per-window chebyshev_knn_bruteforce + mi_from_geometry + binned_joint_entropy"
    ),
    "repro.mi.normalized": "per-window normalized_mi",
    "repro.core.thresholds": "scalar per-window scoring path",
    "repro.core.pyramid": "exact full-resolution coordinate mapping",
    "repro.analysis.parallel": "the serial pairwise scan",
    "repro.baselines.pearson": "the per-delay sliding_pcc loop",
    "repro.analysis.cascade": "the unscreened scan_pairs reference",
    "repro.analysis.screen_state": "the per-pair fft_screen_score reference",
    "repro.analysis.planner": (
        "the sequential reference stitcher (segments=K) and the exhaustive "
        "full-resolution search (coarse=F)"
    ),
}

#: Callables whose invocation marks "a pool has been spawned" for TY103.
POOL_SPAWNERS: FrozenSet[str] = frozenset(
    {"ProcessPoolExecutor", "Pool", "pooled_map", "scan_pairs"}
)

#: Modules allowed to open memory maps and to spell the store file names
#: (TY116).  Everything else attaches through
#: ``repro.analysis.store.SeriesStore``.
STORE_MODULES: FrozenSet[str] = frozenset({"repro.analysis.store"})

#: File names of the on-disk series store (format contract).  Spelling
#: one of these outside ``STORE_MODULES`` means a second module is
#: interpreting the store layout; route it through ``SeriesStore``.
STORE_FILENAMES: FrozenSet[str] = frozenset({"manifest.json", "series.bin"})
