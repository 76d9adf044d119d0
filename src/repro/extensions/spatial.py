"""Spatio-temporal correlation search (the paper's stated future work).

"In future work, TYCOS can be extended to capture correlations across
spatial dimensions."  This module does exactly that for a network of
sensors at known coordinates:

* :func:`spatial_scan` -- run TYCOS over station pairs, pruned by a
  maximum spatial distance (distant stations cannot share a local
  phenomenon, the spatial analogue of ``td_max``).
* :func:`estimate_propagation` -- regress the observed pairwise delays
  against the station displacement vectors; for a phenomenon moving at
  constant velocity ``v``, the expected delay between stations a and b is
  ``dot(p_b - p_a, v) / |v|^2``, so the least-squares fit recovers the
  front's speed and heading from TYCOS output alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import TycosConfig
from repro.core.tycos import Tycos
from repro.data.spatial import SpatialDataset, Station
from repro.reporting import format_table, title

__all__ = ["SpatialFinding", "SpatialReport", "spatial_scan", "estimate_propagation"]


@dataclass(frozen=True)
class SpatialFinding:
    """The correlation found between one station pair.

    Attributes:
        source: X-side station name.
        target: Y-side station name.
        distance: Euclidean separation.
        displacement: (dx, dy) from source to target.
        windows: number of extracted windows.
        median_delay: median delay over the windows (samples), or None.
    """

    source: str
    target: str
    distance: float
    displacement: Tuple[float, float]
    windows: int
    median_delay: Optional[float]


@dataclass
class SpatialReport:
    """Outcome of a spatial scan."""

    findings: List[SpatialFinding] = field(default_factory=list)
    pruned: List[Tuple[str, str]] = field(default_factory=list)

    def correlated(self) -> List[SpatialFinding]:
        """Pairs with extracted windows, nearest first."""
        return sorted(
            (f for f in self.findings if f.windows > 0), key=lambda f: f.distance
        )

    def to_text(self) -> str:
        """Render the scan as a table."""
        headers = ["pair", "distance", "windows", "median delay"]
        rows = [
            [
                f"{f.source} -> {f.target}",
                f"{f.distance:.1f}",
                f.windows,
                "-" if f.median_delay is None else f"{f.median_delay:+.0f}",
            ]
            for f in self.correlated()
        ]
        body = format_table(headers, rows)
        note = f"\n({len(self.pruned)} pairs beyond the distance bound)" if self.pruned else ""
        return title("Spatial correlation scan") + "\n" + body + note


def spatial_scan(
    dataset: SpatialDataset,
    config: TycosConfig,
    max_distance: Optional[float] = None,
    engine: Optional[Tycos] = None,
) -> SpatialReport:
    """Search every station pair within a spatial distance bound.

    Args:
        dataset: the spatial sensor collection.
        config: TYCOS parameters shared by all pairs.
        max_distance: pairs farther apart than this are pruned without a
            search (None disables spatial pruning).
        engine: optional preconfigured engine (default TYCOS_LMN).

    Returns:
        A :class:`SpatialReport` with one finding per searched pair.
    """
    if engine is None:
        engine = Tycos(config)
    report = SpatialReport()
    names = sorted(dataset.stations)
    for a, b in combinations(names, 2):
        sa: Station = dataset.stations[a]
        sb: Station = dataset.stations[b]
        distance = sa.distance_to(sb)
        if max_distance is not None and distance > max_distance:
            report.pruned.append((a, b))
            continue
        x, y = dataset.pair(a, b)
        result = engine.search(x, y)
        delays = result.delays()
        report.findings.append(
            SpatialFinding(
                source=a,
                target=b,
                distance=distance,
                displacement=(sb.x - sa.x, sb.y - sa.y),
                windows=len(result.windows),
                median_delay=float(np.median(delays)) if delays else None,
            )
        )
    return report


def estimate_propagation(report: SpatialReport) -> Optional[Tuple[float, float]]:
    """Recover the phenomenon's velocity from the pairwise delays.

    Solves the least-squares system ``dot(displacement_i, w) = delay_i``
    whose solution is ``w = v / |v|^2``; inverting gives the velocity.

    Returns:
        The estimated ``(vx, vy)`` in distance units per sample, or None
        when fewer than two non-collinear correlated pairs are available.
    """
    usable = [f for f in report.findings if f.windows > 0 and f.median_delay is not None]
    if len(usable) < 2:
        return None
    displacements = np.array([f.displacement for f in usable])
    delays = np.array([f.median_delay for f in usable])
    if np.linalg.matrix_rank(displacements) < 2:
        return None
    w, *_ = np.linalg.lstsq(displacements, delays, rcond=None)
    norm_sq = float(w @ w)
    if norm_sq == 0:
        return None
    v = w / norm_sq
    return (float(v[0]), float(v[1]))
