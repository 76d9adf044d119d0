"""Fig. 11: effect of the noise threshold ratio epsilon/sigma.

Sweeps ``epsilon / sigma`` and measures, relative to TYCOS_L on the same
data, the error rate (missed windows) and the runtime gain of TYCOS_LN.
The paper's finding, reproduced in shape: both grow with the ratio, and
around 0.25 the error stays small while the runtime drops materially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.tycos import tycos_l, tycos_ln
from repro.experiments.datasets import dataset_pair
from repro.experiments.fig9 import make_config
from repro.experiments.similarity import window_set_similarity
from repro.reporting import format_series, title

__all__ = ["Fig11Result", "run_fig11"]


@dataclass
class Fig11Result:
    """Error rate and runtime gain per dataset per epsilon/sigma ratio."""

    ratios: List[float] = field(default_factory=list)
    error_rate: Dict[str, List[float]] = field(default_factory=dict)
    runtime_gain: Dict[str, List[float]] = field(default_factory=dict)

    def to_text(self) -> str:
        """Render both panels' series."""
        lines = [title("Fig 11: noise threshold sweep")]
        for ds in self.error_rate:
            error_values = [f"{v:.2f}" for v in self.error_rate[ds]]
            gain_values = [f"{v:.2f}" for v in self.runtime_gain[ds]]
            lines.append(format_series(f"{ds} error-rate", self.ratios, error_values))
            lines.append(format_series(f"{ds} runtime-gain", self.ratios, gain_values))
        return "\n".join(lines)


def run_fig11(
    ratios: Sequence[float] = (0.05, 0.15, 0.25, 0.4, 0.6, 0.8),
    n: int = 500,
    datasets: Sequence[str] = ("synthetic1", "smartcity"),
    seed: int = 0,
    repeats: int = 1,
) -> Fig11Result:
    """Run the Fig.-11 sweep.

    Args:
        ratios: epsilon/sigma values to test (must be < 1).
        n: series length.
        datasets: datasets to sweep over.
        seed: data and search seed.
        repeats: timing repetitions (medians would need >= 3; the default
            single run is fine for shape checks).

    Returns:
        A :class:`Fig11Result`; ``error_rate`` is 1 - recall of TYCOS_LN's
        windows against TYCOS_L's, ``runtime_gain`` the fractional runtime
        reduction.
    """
    result = Fig11Result(ratios=list(ratios))
    for ds in datasets:
        x, y = dataset_pair(ds, n, seed=seed)
        base_cfg = make_config(n, seed)
        reference = tycos_l(base_cfg).search(x, y)
        ref_windows = [r.window for r in reference.windows]
        ref_time = reference.stats.runtime_seconds
        errors: List[float] = []
        gains: List[float] = []
        for ratio in ratios:
            cfg = base_cfg.scaled(epsilon_ratio=ratio)
            timings = []
            res = None
            for _ in range(max(1, repeats)):
                res = tycos_ln(cfg).search(x, y)
                timings.append(res.stats.runtime_seconds)
            found = [r.window for r in res.windows]
            recall = window_set_similarity(found, ref_windows)
            errors.append(1.0 - recall)
            gains.append(1.0 - min(timings) / ref_time)
        result.error_rate[ds] = errors
        result.runtime_gain[ds] = gains
    return result
