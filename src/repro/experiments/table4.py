"""Table 4: accuracy of the heuristic search and of the noise theory.

Two comparisons per data size, on synthetic and (simulated) real data:

* TYCOS_L vs Brute Force -- how much of the exact result the LAHC search
  recovers (the paper reports 88-98 %).
* TYCOS_LN vs TYCOS_L -- how much the noise pruning gives up (90-100 %).

Following Section 8.4 B, windows are aggregated (overlapping ones merged)
on both sides before comparison, and two windows count as the same result
when they cover a similar index range.

The paper sweeps 1K-100K samples on a C++ implementation; a Python brute
force cannot reach that, so the sweep uses smaller sizes with the same
grid *shape* -- the quantity of interest (the similarity percentage) is
size-stable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.brute_force import brute_force_search
from repro.core.config import TycosConfig
from repro.core.results import merge_overlapping
from repro.core.tycos import tycos_l, tycos_ln
from repro.data.energy import simulate_energy
from repro.experiments.datasets import synthetic_pair
from repro.experiments.similarity import window_set_similarity
from repro.reporting import format_table, title

__all__ = ["Table4Row", "Table4Result", "run_table4"]


@dataclass(frozen=True)
class Table4Row:
    """Accuracy readings at one data size (percentages)."""

    size: int
    l_vs_bf_synthetic: float
    l_vs_bf_real: float
    ln_vs_l_synthetic: float
    ln_vs_l_real: float


@dataclass
class Table4Result:
    """All rows of the accuracy table."""

    rows: List[Table4Row] = field(default_factory=list)

    def to_text(self) -> str:
        """Render the table in the paper's layout."""
        headers = [
            "Size",
            "L vs BF (synth)",
            "L vs BF (real)",
            "LN vs L (synth)",
            "LN vs L (real)",
        ]
        cells = [
            [
                r.size,
                f"{100 * r.l_vs_bf_synthetic:.1f}",
                f"{100 * r.l_vs_bf_real:.1f}",
                f"{100 * r.ln_vs_l_synthetic:.1f}",
                f"{100 * r.ln_vs_l_real:.1f}",
            ]
            for r in self.rows
        ]
        return title("Table 4: accuracy evaluation") + "\n" + format_table(headers, cells)


def _accuracy_config(seed: int) -> TycosConfig:
    # Small bounds keep the Python brute force tractable; identical bounds
    # are used by every method so the comparison is apples to apples.
    return TycosConfig(
        sigma=0.35,
        s_min=16,
        s_max=48,
        td_max=6,
        significance_permutations=0,
        seed=seed,
        init_delay_step=1,
    )


def _accuracy_pair(dataset: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs whose true lags fit inside the (small) brute-force td_max."""
    if dataset.startswith("synthetic"):
        return synthetic_pair(dataset, n, seed=seed, delay=4)
    # Clothes washer -> dryer: planted lag 10-30 minutes = 2-7 samples at
    # the 4-minute resolution used here, and both pulses span 10+ samples,
    # so the correlated windows are well inside the small search bounds.
    days = max(1, int(np.ceil(n / 360.0)))
    data = simulate_energy(days=days, seed=seed, minutes_per_sample=4, event_density=2.0)
    x, y = data.pair("clothes_washer", "dryer")
    return x[:n], y[:n]


def _pair_similarities(dataset: str, n: int, seed: int) -> tuple[float, float]:
    x, y = _accuracy_pair(dataset, n, seed)
    config = _accuracy_config(seed)
    bf = brute_force_search(x, y, config, aggregate=True)
    l_res = tycos_l(config).search(x, y)
    ln_res = tycos_ln(config).search(x, y)
    bf_windows = [r.window for r in bf.windows]
    l_windows = merge_overlapping([r.window for r in l_res.windows])
    ln_windows = merge_overlapping([r.window for r in ln_res.windows])
    return (
        window_set_similarity(l_windows, bf_windows),
        window_set_similarity(ln_windows, l_windows),
    )


def run_table4(
    sizes: Sequence[int] = (300, 500, 800),
    seed: int = 0,
    synthetic_dataset: str = "synthetic1",
    real_dataset: str = "energy",
) -> Table4Result:
    """Run the Table-4 accuracy sweep.

    Args:
        sizes: data sizes to evaluate.
        seed: data and search seed.
        synthetic_dataset: which synthetic mix stands in for the paper's
            synthetic column.
        real_dataset: which simulator stands in for the real-data column.

    Returns:
        A :class:`Table4Result`.
    """
    result = Table4Result()
    for n in sizes:
        l_bf_syn, ln_l_syn = _pair_similarities(synthetic_dataset, n, seed)
        l_bf_real, ln_l_real = _pair_similarities(real_dataset, n, seed)
        result.rows.append(
            Table4Row(
                size=n,
                l_vs_bf_synthetic=l_bf_syn,
                l_vs_bf_real=l_bf_real,
                ln_vs_l_synthetic=ln_l_syn,
                ln_vs_l_real=ln_l_real,
            )
        )
    return result
