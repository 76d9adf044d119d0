"""Fig. 9: runtime of the four TYCOS variants.

The paper runs TYCOS_L, TYCOS_LN, TYCOS_LM and TYCOS_LMN on three
synthetic and two real datasets and shows (log-scale y) that LMN is the
fastest everywhere, that each optimization helps on its own, and that the
two combined always beat either alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.core.config import TycosConfig
from repro.core.tycos import Tycos, tycos_l, tycos_lm, tycos_lmn, tycos_ln
from repro.experiments.datasets import DATASET_NAMES, dataset_pair
from repro.reporting import format_table, title

__all__ = ["Fig9Result", "run_fig9", "VARIANTS"]

VARIANTS = ("TYCOS_L", "TYCOS_LN", "TYCOS_LM", "TYCOS_LMN")

_FACTORIES = {
    "TYCOS_L": tycos_l,
    "TYCOS_LN": tycos_ln,
    "TYCOS_LM": tycos_lm,
    "TYCOS_LMN": tycos_lmn,
}


@dataclass
class Fig9Result:
    """Per-dataset, per-variant runtimes and window counts."""

    runtimes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    windows: Dict[str, Dict[str, int]] = field(default_factory=dict)
    evaluations: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def speedup(self, dataset: str, variant: str, baseline: str = "TYCOS_L") -> float:
        """Runtime ratio baseline / variant on one dataset."""
        return self.runtimes[dataset][baseline] / self.runtimes[dataset][variant]

    def to_text(self) -> str:
        """Render the figure's data as a table (one row per dataset)."""
        headers = ["Dataset"] + [f"{v} (s)" for v in VARIANTS] + ["LMN speedup vs L"]
        rows = []
        for ds, times in self.runtimes.items():
            rows.append(
                [ds]
                + [f"{times[v]:.2f}" for v in VARIANTS]
                + [f"{self.speedup(ds, 'TYCOS_LMN'):.1f}x"]
            )
        return title("Fig 9: runtime of TYCOS variants") + "\n" + format_table(headers, rows)


def make_config(n: int, seed: int = 0) -> TycosConfig:
    """The shared search configuration of the efficiency experiments.

    The operating point (sigma, s_min, permutation gate) keeps the searches
    in a signal-dominated regime: at smaller windows / lower thresholds the
    extracted sets are dominated by small-sample extremes of the MI null,
    and variant-vs-variant accuracy comparisons would measure noise
    reproduction rather than search quality.
    """
    return TycosConfig(
        sigma=0.45,
        s_min=24,
        s_max=max(64, n // 6),
        td_max=30,
        significance_permutations=10,
        seed=seed,
        # Dense: the synthetic relations are value-shuffled, so MI exists
        # only at the exact lag and a coarser probe grid would miss it.
        init_delay_step=1,
    )


def run_fig9(
    n: int = 600,
    seed: int = 0,
    datasets: Sequence[str] = DATASET_NAMES,
    variants: Sequence[str] = VARIANTS,
) -> Fig9Result:
    """Run the Fig.-9 experiment.

    Args:
        n: series length per dataset.
        seed: data and search seed.
        datasets: datasets to include (default: all five).
        variants: TYCOS variants to time (default: all four).

    Returns:
        A :class:`Fig9Result`.
    """
    result = Fig9Result()
    config = make_config(n, seed)
    for ds in datasets:
        x, y = dataset_pair(ds, n, seed=seed)
        result.runtimes[ds] = {}
        result.windows[ds] = {}
        result.evaluations[ds] = {}
        for variant in variants:
            engine: Tycos = _FACTORIES[variant](config)
            res = engine.search(x, y)
            result.runtimes[ds][variant] = res.stats.runtime_seconds
            result.windows[ds][variant] = len(res.windows)
            result.evaluations[ds][variant] = res.stats.windows_evaluated
    return result
