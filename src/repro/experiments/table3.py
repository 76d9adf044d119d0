"""Table 3: correlations extracted from the energy / smart-city datasets.

For each of the ten couplings the paper reports (C1-C6 on the energy data,
C7-C10 on the smart-city data), TYCOS and AMIC are run on the simulated
device/variable pair and the table prints, per method, the number of
extracted windows and the observed delay range -- the same three columns
as the paper's Table 3.

Expected shape (guaranteed by the simulators' construction): TYCOS finds
windows whose delays fall in the planted lag range for every coupling;
AMIC -- having no delay dimension -- extracts windows only for couplings
whose lag range starts at (or near) zero and reports them all at delay 0.

Each coupling is simulated at a resolution chosen so its maximum lag fits
in a modest ``td_max`` (the paper similarly works with minute and 5-minute
resolutions per dataset).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.amic import amic_search
from repro.core.config import TycosConfig
from repro.core.tycos import TycosResult, tycos_lmn
from repro.data.energy import EXPECTED_COUPLINGS, simulate_energy
from repro.data.smartcity import EXPECTED_CITY_COUPLINGS, simulate_smartcity
from repro.reporting import format_table, title

__all__ = ["Table3Row", "Table3Result", "run_table3", "COUPLING_PLANS"]


@dataclass(frozen=True)
class CouplingPlan:
    """How one Table-3 coupling is simulated and searched.

    Attributes:
        label: the paper's correlation id (C1 ... C10).
        domain: "energy" or "city".
        source: leading variable name.
        target: lagging variable name.
        lag_minutes: planted lag range.
        resolution_minutes: sampling resolution for this coupling.
    """

    label: str
    domain: str
    source: str
    target: str
    lag_minutes: Tuple[int, int]
    resolution_minutes: int


def _plans() -> List[CouplingPlan]:
    plans: List[CouplingPlan] = []
    for c in EXPECTED_COUPLINGS:
        # Resolution chosen so the maximum lag is <= ~30 samples.
        res = max(1, int(np.ceil(c.lag_minutes[1] / 30.0)))
        plans.append(
            CouplingPlan(c.label, "energy", c.source, c.target, c.lag_minutes, res)
        )
    for c in EXPECTED_CITY_COUPLINGS:
        plans.append(CouplingPlan(c.label, "city", c.source, c.target, c.lag_minutes, 5))
    return plans


COUPLING_PLANS: Tuple[CouplingPlan, ...] = tuple(_plans())


@dataclass
class Table3Row:
    """One row of Table 3."""

    label: str
    pair_name: str
    lag_minutes: Tuple[int, int]
    tycos_count: int
    tycos_delay_minutes: Optional[Tuple[int, int]]
    amic_count: int

    def tycos_cell(self) -> str:
        """The 'count, [delay range]' cell the paper prints for TYCOS."""
        if self.tycos_count == 0:
            return "x"
        lo, hi = self.tycos_delay_minutes
        return f"{self.tycos_count}, [{lo}-{hi}m]"

    def amic_cell(self) -> str:
        """The AMIC cell (delay is always 0)."""
        if self.amic_count == 0:
            return "x"
        return f"{self.amic_count}, 0m"


@dataclass
class Table3Result:
    """All rows of the Table-3 experiment."""

    rows: List[Table3Row] = field(default_factory=list)

    def row(self, label: str) -> Table3Row:
        """The row of one coupling id."""
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no row with label {label!r}")

    def to_text(self) -> str:
        """Render the table the way the paper prints it."""
        headers = ["Correlation", "planted lag", "TYCOS", "AMIC"]
        cells = [
            [
                f"({r.label}) {r.pair_name}",
                f"[{r.lag_minutes[0]}-{r.lag_minutes[1]}m]",
                r.tycos_cell(),
                r.amic_cell(),
            ]
            for r in self.rows
        ]
        return title("Table 3: extracted correlations") + "\n" + format_table(headers, cells)


def _search_pair(
    x: np.ndarray,
    y: np.ndarray,
    td_max: int,
    sigma: float,
    seed: int,
) -> Tuple[TycosResult, TycosResult]:
    base = TycosConfig(
        sigma=sigma,
        s_min=24,
        s_max=min(240, x.size // 2),
        td_max=td_max,
        jitter=1e-3,
        significance_permutations=10,
        seed=seed,
    )
    tycos = tycos_lmn(base).search(x, y)
    amic = amic_search(x, y, base.scaled(td_max=0))
    return tycos, amic


def run_table3(
    target_samples: int = 900,
    sigma: float = 0.25,
    seed: int = 0,
    labels: Optional[Tuple[str, ...]] = None,
) -> Table3Result:
    """Run the Table-3 experiment on the simulated datasets.

    Args:
        target_samples: approximate series length per coupling (controls
            the number of simulated days given each plan's resolution).
        sigma: correlation threshold for both methods.
        seed: simulation and search seed.
        labels: subset of coupling ids to run (default: all ten).

    Returns:
        A :class:`Table3Result` with one row per coupling.
    """
    result = Table3Result()
    for plan in COUPLING_PLANS:
        if labels is not None and plan.label not in labels:
            continue
        samples_per_day = 24 * 60 // plan.resolution_minutes
        days = max(1, int(round(target_samples / samples_per_day)))
        if plan.domain == "energy":
            dataset = simulate_energy(
                days=days, seed=seed, minutes_per_sample=plan.resolution_minutes
            )
        else:
            dataset = simulate_smartcity(
                days=days, seed=seed, minutes_per_sample=plan.resolution_minutes
            )
        x, y = dataset.pair(plan.source, plan.target)
        lag_hi_samples = max(1, int(np.ceil(plan.lag_minutes[1] / plan.resolution_minutes)))
        td_max = lag_hi_samples + 6
        tycos, amic = _search_pair(x, y, td_max, sigma, seed)
        delays = tycos.delay_range()
        delay_minutes = None
        if delays is not None:
            delay_minutes = (
                delays[0] * plan.resolution_minutes,
                delays[1] * plan.resolution_minutes,
            )
        result.rows.append(
            Table3Row(
                label=plan.label,
                pair_name=f"{plan.source} vs {plan.target}",
                lag_minutes=plan.lag_minutes,
                tycos_count=len(tycos.windows),
                tycos_delay_minutes=delay_minutes,
                amic_count=len(amic.windows),
            )
        )
    return result
