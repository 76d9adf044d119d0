"""Fig. 12: the accuracy / runtime-gain trade-off of the noise threshold.

The same sweep as Fig. 11, plotted jointly per dataset: accuracy
(1 - error rate) and runtime gain against epsilon/sigma.  Used to justify
the paper's default epsilon = sigma / 4: in the [0.05, 0.3] band the error
stays under ~5 % while a large share of the runtime is saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.experiments.fig11 import Fig11Result, run_fig11
from repro.reporting import format_table, title

__all__ = ["Fig12Result", "run_fig12"]


@dataclass
class Fig12Result:
    """Joint accuracy / runtime-gain view of the noise-threshold sweep."""

    sweep: Fig11Result = field(default_factory=Fig11Result)

    @property
    def ratios(self) -> List[float]:
        """The swept epsilon/sigma values."""
        return self.sweep.ratios

    def accuracy(self, dataset: str) -> List[float]:
        """1 - error rate per ratio."""
        return [1.0 - e for e in self.sweep.error_rate[dataset]]

    def runtime_gain(self, dataset: str) -> List[float]:
        """Fractional runtime saving per ratio."""
        return self.sweep.runtime_gain[dataset]

    def to_text(self) -> str:
        """Render the joint table, one row per (dataset, ratio)."""
        headers = ["dataset", "eps/sigma", "accuracy", "runtime gain"]
        rows = []
        for ds in self.sweep.error_rate:
            for i, ratio in enumerate(self.ratios):
                rows.append(
                    [
                        ds,
                        f"{ratio:.2f}",
                        f"{self.accuracy(ds)[i]:.2f}",
                        f"{self.runtime_gain(ds)[i]:.2f}",
                    ]
                )
        return title("Fig 12: accuracy vs runtime-gain trade-off") + "\n" + format_table(
            headers, rows
        )


def run_fig12(
    ratios: Sequence[float] = (0.05, 0.15, 0.25, 0.4, 0.6, 0.8),
    n: int = 500,
    datasets: Sequence[str] = ("energy", "smartcity"),
    seed: int = 0,
) -> Fig12Result:
    """Run the Fig.-12 trade-off analysis (delegates to the Fig.-11 sweep)."""
    return Fig12Result(sweep=run_fig11(ratios=ratios, n=n, datasets=datasets, seed=seed))
