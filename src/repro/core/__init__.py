"""Core TYCOS search: windows, LAHC, noise theory and the search variants."""

from repro.core.brute_force import brute_force_search
from repro.core.config import ENERGY_CONFIG, SMARTCITY_CONFIG, TycosConfig
from repro.core.lahc import LahcResult, LateAcceptanceHillClimbing
from repro.core.neighborhood import neighborhood
from repro.core.noise import NoiseDetector, find_initial_window, is_noise
from repro.core.pyramid import (
    PyramidLevel,
    build_level,
    coarse_config,
    paa_downsample,
    refinement_cell,
)
from repro.core.results import ResultSet, WindowResult, merge_overlapping
from repro.core.search_space import enumerate_feasible, exact_count, paper_count
from repro.core.segmentation import overlap_zones, segment_spans, span_containing
from repro.core.thresholds import (
    BatchScorer,
    IncrementalScorer,
    TopKFilter,
    WindowScore,
    make_scorer,
)
from repro.core.tycos import (
    SearchStats,
    Tycos,
    TycosResult,
    tycos_l,
    tycos_lm,
    tycos_lmn,
    tycos_ln,
)
from repro.core.window import PairView, TimeDelayWindow

__all__ = [
    "TycosConfig",
    "ENERGY_CONFIG",
    "SMARTCITY_CONFIG",
    "TimeDelayWindow",
    "PairView",
    "Tycos",
    "TycosResult",
    "SearchStats",
    "tycos_l",
    "tycos_ln",
    "tycos_lm",
    "tycos_lmn",
    "brute_force_search",
    "LateAcceptanceHillClimbing",
    "LahcResult",
    "neighborhood",
    "NoiseDetector",
    "find_initial_window",
    "is_noise",
    "ResultSet",
    "WindowResult",
    "merge_overlapping",
    "enumerate_feasible",
    "exact_count",
    "paper_count",
    "segment_spans",
    "overlap_zones",
    "span_containing",
    "PyramidLevel",
    "paa_downsample",
    "build_level",
    "refinement_cell",
    "coarse_config",
    "BatchScorer",
    "IncrementalScorer",
    "WindowScore",
    "TopKFilter",
    "make_scorer",
]
