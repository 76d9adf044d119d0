"""Analysis layer: dataset-level workflows built on the TYCOS search.

* :mod:`repro.analysis.pairwise` -- scan every pair of a sensor collection
  (the outer loop of the paper's 72-plug energy study).
* :mod:`repro.analysis.parallel` -- fan the pairwise scan over a process
  pool with shared-memory series transfer.
* :mod:`repro.analysis.planner` -- how one pair is searched: plain, with
  its timeline sharded into stitched segments (``segments=K``), or
  coarse-to-fine (``coarse=F``: locate on a PAA level, refine exactly).
* :mod:`repro.analysis.chunked` -- chunked search over series too long for
  one in-memory pass.
* :mod:`repro.analysis.cascade` -- all-pairs prescreen cascade (FFT +
  coarse-NMI screens before any KSG estimate) and the ``tycos-scan``
  command-line tool.
* :mod:`repro.analysis.store` -- columnar on-disk series store,
  memory-mapped so pool workers attach collections without copies.
* :mod:`repro.analysis.csvio` -- CSV ingestion and the ``tycos-search``
  command-line tool.
"""

from repro.analysis.cascade import cascade_scan, coarse_nmi_score, fft_screen_score

from repro.analysis.chunked import (
    ChunkedResult,
    chunk_pair,
    default_chunk_overlap,
    search_chunked,
)
from repro.analysis.consolidate import consolidate_windows
from repro.analysis.csvio import read_csv_series
from repro.analysis.inspect import WindowInspection, ascii_scatter, inspect_window
from repro.analysis.pairwise import (
    PairFailure,
    PairFinding,
    PairwiseReport,
    scan_pairs,
)
from repro.analysis.parallel import scan_pairs_parallel
from repro.analysis.planner import SearchPlan, execute_plan
from repro.analysis.store import SeriesStore
from repro.analysis.serialization import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.analysis.tuning import SigmaSweep, sigma_sweep, suggest_sigma

__all__ = [
    "scan_pairs",
    "scan_pairs_parallel",
    "PairwiseReport",
    "PairFinding",
    "PairFailure",
    "cascade_scan",
    "coarse_nmi_score",
    "fft_screen_score",
    "SeriesStore",
    "SearchPlan",
    "execute_plan",
    "search_chunked",
    "chunk_pair",
    "default_chunk_overlap",
    "ChunkedResult",
    "read_csv_series",
    "consolidate_windows",
    "inspect_window",
    "ascii_scatter",
    "WindowInspection",
    "save_result",
    "load_result",
    "result_to_dict",
    "result_from_dict",
    "sigma_sweep",
    "suggest_sigma",
    "SigmaSweep",
]
