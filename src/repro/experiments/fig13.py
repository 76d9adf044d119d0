"""Fig. 13: effect of sigma, s_max and td_max.

Three sweeps on the smart-city (snow, collisions) pair:

* (a) raising sigma extracts fewer (but stronger) windows while runtime
  grows (larger neighborhoods are explored before a strong window is
  accepted);
* (b) raising s_max past the point where every correlation fits changes
  nothing in the output while runtime keeps growing;
* (c) raising td_max past the largest true lag changes neither the output
  nor (materially) the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import TycosConfig
from repro.core.tycos import tycos_lmn
from repro.data.smartcity import simulate_smartcity
from repro.reporting import format_table, title

__all__ = ["SweepPoint", "Fig13Result", "run_fig13_sigma", "run_fig13_smax", "run_fig13_tdmax"]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep."""

    value: float
    windows: int
    runtime_seconds: float


@dataclass
class Fig13Result:
    """One panel of Fig. 13."""

    parameter: str
    points: List[SweepPoint] = field(default_factory=list)

    def window_counts(self) -> List[int]:
        """Extracted-window counts along the sweep."""
        return [p.windows for p in self.points]

    def runtimes(self) -> List[float]:
        """Runtimes along the sweep."""
        return [p.runtime_seconds for p in self.points]

    def to_text(self) -> str:
        """Render the panel as a table."""
        headers = [self.parameter, "windows", "runtime (s)"]
        rows = [[p.value, p.windows, f"{p.runtime_seconds:.2f}"] for p in self.points]
        return title(f"Fig 13: effect of {self.parameter}") + "\n" + format_table(headers, rows)


def _snow_collision_pair(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    days = max(2, int(np.ceil(n / 288.0)))
    data = simulate_smartcity(days=days, seed=seed)
    x, y = data.pair("snow", "collisions")
    return x[:n], y[:n]


def _base_config(seed: int) -> TycosConfig:
    return TycosConfig(
        sigma=0.25,
        s_min=16,
        s_max=96,
        td_max=24,
        jitter=1e-3,
        significance_permutations=0,
        seed=seed,
    )


def _sweep(parameter: str, values: Sequence[float], n: int, seed: int) -> Fig13Result:
    x, y = _snow_collision_pair(n, seed)
    result = Fig13Result(parameter=parameter)
    for value in values:
        cfg = _base_config(seed).scaled(**{parameter: value})
        res = tycos_lmn(cfg).search(x, y)
        result.points.append(
            SweepPoint(
                value=value, windows=len(res.windows), runtime_seconds=res.stats.runtime_seconds
            )
        )
    return result


def run_fig13_sigma(
    sigmas: Sequence[float] = (0.2, 0.3, 0.4, 0.5, 0.6),
    n: int = 600,
    seed: int = 0,
) -> Fig13Result:
    """Panel (a): the effect of the correlation threshold."""
    return _sweep("sigma", sigmas, n, seed)


def run_fig13_smax(
    s_maxes: Sequence[int] = (32, 64, 96, 128, 192),
    n: int = 600,
    seed: int = 0,
) -> Fig13Result:
    """Panel (b): convergence in the maximum window size."""
    return _sweep("s_max", s_maxes, n, seed)


def run_fig13_tdmax(
    td_maxes: Sequence[int] = (6, 12, 24, 36, 48),
    n: int = 600,
    seed: int = 0,
) -> Fig13Result:
    """Panel (c): convergence in the maximum time delay."""
    return _sweep("td_max", td_maxes, n, seed)
