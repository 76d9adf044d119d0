"""Threshold tuning: pick sigma from the data instead of guessing.

Section 8.5 B shows how the output shrinks as sigma rises; in practice a
user facing a new dataset wants that curve computed *for* them.  Two
helpers:

* :func:`sigma_sweep` -- run the search across a sigma grid and collect
  the window counts and score distribution (a programmatic Fig 13a).
* :func:`suggest_sigma` -- pick the knee of the count curve: the largest
  sigma below which the output stops changing rapidly, i.e. where the
  windows that remain are the stable, strong ones.

Both operate on a subsample of the pair by default, because tuning on the
full series would cost as much as the search it is meant to configure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._types import AnyArray
from repro.core.config import TycosConfig
from repro.core.tycos import Tycos
from repro.reporting import format_table, title

__all__ = ["SigmaSweepPoint", "SigmaSweep", "sigma_sweep", "suggest_sigma"]


@dataclass(frozen=True)
class SigmaSweepPoint:
    """One point of the sigma curve."""

    sigma: float
    windows: int
    mean_nmi: float
    runtime_seconds: float


@dataclass
class SigmaSweep:
    """The full sigma curve."""

    points: List[SigmaSweepPoint] = field(default_factory=list)

    def counts(self) -> List[int]:
        """Window counts along the grid."""
        return [p.windows for p in self.points]

    def to_text(self) -> str:
        """Render the sweep as a table."""
        headers = ["sigma", "windows", "mean nmi", "runtime (s)"]
        rows: List[List[object]] = [
            [f"{p.sigma:.2f}", p.windows, f"{p.mean_nmi:.2f}", f"{p.runtime_seconds:.2f}"]
            for p in self.points
        ]
        return title("Sigma sweep") + "\n" + format_table(headers, rows)


def sigma_sweep(
    x: AnyArray,
    y: AnyArray,
    config: TycosConfig,
    sigmas: Sequence[float] = (0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6),
    subsample: Optional[int] = 2000,
) -> SigmaSweep:
    """Run the search across a sigma grid.

    Args:
        x: first series.
        y: second series.
        config: base parameters; only sigma is varied.
        sigmas: the grid (ascending).
        subsample: tune on at most this prefix of the pair (None = all).

    Returns:
        A :class:`SigmaSweep`.
    """
    if list(sigmas) != sorted(sigmas):
        raise ValueError("sigmas must be ascending")
    if subsample is not None:
        x = np.asarray(x)[:subsample]
        y = np.asarray(y)[:subsample]
    sweep = SigmaSweep()
    for sigma in sigmas:
        result = Tycos(config.scaled(sigma=sigma)).search(x, y)
        scores = [r.nmi for r in result.windows]
        sweep.points.append(
            SigmaSweepPoint(
                sigma=float(sigma),
                windows=len(result.windows),
                mean_nmi=float(np.mean(scores)) if scores else 0.0,
                runtime_seconds=result.stats.runtime_seconds,
            )
        )
    return sweep


def suggest_sigma(sweep: SigmaSweep, stability: float = 0.34) -> Tuple[float, SigmaSweep]:
    """Pick the sigma where the output becomes *stable*.

    The suggestion is the smallest sigma whose window count is already
    within ``stability`` (relative) of the count at the strictest sigma
    swept -- i.e. the cheapest threshold that keeps essentially the same
    window set a much stricter threshold would.  Everything those two
    thresholds disagree on is, by construction, the weak tail.

    Args:
        sweep: output of :func:`sigma_sweep`.
        stability: tolerated relative excess over the strictest count.

    Returns:
        ``(sigma, sweep)`` -- the suggestion plus the curve it came from
        (so callers can render/log the evidence).

    Raises:
        ValueError: on an empty sweep.
    """
    points = sweep.points
    if not points:
        raise ValueError("cannot suggest sigma from an empty sweep")
    final = points[-1].windows
    ceiling = final * (1.0 + stability) if final > 0 else 0.5
    for point in points:
        if point.windows <= ceiling:
            return point.sigma, sweep
    return points[-1].sigma, sweep
