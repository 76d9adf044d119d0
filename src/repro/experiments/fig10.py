"""Fig. 10: Brute Force vs MatrixProfile vs TYCOS_LMN runtime.

The paper's scalability figure: across growing data sizes, the exact
brute-force enumeration and an exact multi-length MatrixProfile sweep are
timed against TYCOS_LMN.  The expected shape -- preserved here -- is that
TYCOS_LMN is orders of magnitude faster than brute force and clearly
faster than the MatrixProfile sweep, with the gap widening in data size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.baselines.matrix_profile import matrix_profile_scan
from repro.core.brute_force import brute_force_search
from repro.core.config import TycosConfig
from repro.core.tycos import tycos_lmn
from repro.experiments.datasets import dataset_pair
from repro.reporting import format_table, title

__all__ = ["Fig10Result", "run_fig10", "METHODS"]

METHODS = ("BruteForce", "MatrixProfile", "TYCOS_LMN")


@dataclass
class Fig10Result:
    """Per-size, per-method runtimes (seconds)."""

    sizes: List[int] = field(default_factory=list)
    runtimes: Dict[str, List[float]] = field(default_factory=dict)

    def speedup(self, method: str, over: str = "TYCOS_LMN") -> List[float]:
        """Element-wise runtime ratio method / over."""
        return [a / b for a, b in zip(self.runtimes[method], self.runtimes[over])]

    def to_text(self) -> str:
        """Render the figure's series as a table (one row per size)."""
        headers = ["n"] + [f"{m} (s)" for m in METHODS] + ["BF/TYCOS speedup"]
        rows = []
        for i, n in enumerate(self.sizes):
            bf = self.runtimes["BruteForce"][i]
            ty = self.runtimes["TYCOS_LMN"][i]
            rows.append(
                [n]
                + [f"{self.runtimes[m][i]:.2f}" for m in METHODS]
                + [f"{bf / ty:.0f}x"]
            )
        return title("Fig 10: exact baselines vs TYCOS_LMN") + "\n" + format_table(headers, rows)


def _fig10_config(n: int, seed: int) -> TycosConfig:
    # Bounds kept small enough that brute force stays tractable in Python;
    # the relative ordering of the methods is what the figure reproduces.
    return TycosConfig(
        sigma=0.35,
        s_min=16,
        s_max=48,
        td_max=6,
        significance_permutations=0,
        seed=seed,
    )


def run_fig10(
    sizes: Sequence[int] = (300, 500, 800),
    dataset: str = "synthetic1",
    seed: int = 0,
) -> Fig10Result:
    """Run the Fig.-10 experiment.

    Args:
        sizes: data sizes to sweep.
        dataset: dataset name (see :mod:`repro.experiments.datasets`).
        seed: data and search seed.

    Returns:
        A :class:`Fig10Result`.
    """
    result = Fig10Result(sizes=list(sizes))
    for m in METHODS:
        result.runtimes[m] = []
    for n in sizes:
        x, y = dataset_pair(dataset, n, seed=seed)
        config = _fig10_config(n, seed)

        bf = brute_force_search(x, y, config)
        result.runtimes["BruteForce"].append(bf.stats.runtime_seconds)

        started = time.perf_counter()
        matrix_profile_scan(x, y, lengths=(16, 24, 32, 48))
        result.runtimes["MatrixProfile"].append(time.perf_counter() - started)

        ty = tycos_lmn(config).search(x, y)
        result.runtimes["TYCOS_LMN"].append(ty.stats.runtime_seconds)
    return result
