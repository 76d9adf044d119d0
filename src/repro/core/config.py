"""TYCOS configuration (paper Section 8.2, Table 2).

TYCOS takes five search parameters -- the correlation threshold ``sigma``,
the noise threshold ``epsilon`` (a hyper-parameter fixed at ``sigma / 4``
in the paper), the window size bounds ``s_min``/``s_max`` and the maximum
delay ``td_max`` -- plus a handful of engine knobs (LAHC history length and
idle budget, the delta moving step, the KSG ``k``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional

__all__ = ["TycosConfig", "ENERGY_CONFIG", "SMARTCITY_CONFIG"]


@dataclass(frozen=True)
class TycosConfig:
    """All knobs of a TYCOS search.

    Attributes:
        sigma: correlation threshold on the window score, in (0, 1] when
            ``use_normalized`` (the default, per Section 6.3.1) or in nats
            otherwise.
        epsilon_ratio: the noise threshold as a fraction of sigma;
            the paper's empirical best trade-off is 0.25 (Section 8.5 A).
        s_min: minimum window size (samples).  Must be at least ``k + 2`` so
            every evaluated window supports a KSG estimate.
        s_max: maximum window size (samples).
        td_max: maximum absolute time delay (samples).
        delta: the delta moving step of the neighborhood (Def. 5.1).
        history_length: length of the LAHC history list ``L_h``.
        max_idle: ``T_maxIdle``, consecutive non-improvements before the
            local search stops.
        k: nearest-neighbor count of the KSG estimator.
        use_normalized: score windows by normalized MI (Eq. 18) rather than
            raw MI; keeps sigma on a dataset-independent [0, 1] scale.
        jitter: relative magnitude of deterministic tie-breaking noise
            applied to the input series (0 disables).
        seed: seed for the LAHC history policy and the jitter noise.
        significance_permutations: when positive, a window is only accepted
            into the result set if its MI exceeds the MI of this many
            within-window shuffles of Y (a permutation test against the
            independence null).  Guards against the small-window false
            positives any finite-sample MI estimator produces; 0 disables.
        coarse_sigma_ratio: fraction of ``sigma`` used as the acceptance
            threshold of a ``coarse=F`` plan's locate pass.  Block-mean
            aggregation dilutes MI, so the coarse pass must under-bid the
            final threshold to avoid false dismissals; refinement
            re-applies the full ``sigma``.
        init_delay_step: stride of the coarse delay grid probed when
            choosing an initial window (default ``max(1, s_min // 2)``).
            Algorithm 1 seeds the search at delay 0 only, but the MI
            landscape is flat along the delay axis away from a true lag, so
            a local search seeded at 0 can never reach a distant delay;
            probing a coarse grid of delays at each restart makes every
            delay basin reachable while LAHC still does the fine
            positioning.  (Without this, TYCOS_L could not approach the
            brute-force recall Table 4 reports on delayed data.)
    """

    sigma: float = 0.3
    epsilon_ratio: float = 0.25
    s_min: int = 8
    s_max: int = 200
    td_max: int = 20
    delta: int = 1
    history_length: int = 5
    max_idle: int = 3
    k: int = 4
    use_normalized: bool = True
    jitter: float = 0.0
    seed: int = 0
    significance_permutations: int = 0
    coarse_sigma_ratio: float = 0.5
    init_delay_step: Optional[int] = None

    def __post_init__(self) -> None:
        if self.init_delay_step is not None and self.init_delay_step < 1:
            raise ValueError(f"init_delay_step must be >= 1, got {self.init_delay_step}")
        if self.significance_permutations < 0:
            raise ValueError(
                f"significance_permutations must be >= 0, got {self.significance_permutations}"
            )
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not 0 <= self.epsilon_ratio < 1:
            raise ValueError(f"epsilon_ratio must be in [0, 1), got {self.epsilon_ratio}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.s_min < self.k + 2:
            raise ValueError(
                f"s_min must be >= k + 2 = {self.k + 2} for the KSG estimator "
                f"to be defined on minimal windows, got {self.s_min}"
            )
        if self.s_max < self.s_min:
            raise ValueError(f"s_max ({self.s_max}) must be >= s_min ({self.s_min})")
        if self.td_max < 0:
            raise ValueError(f"td_max must be >= 0, got {self.td_max}")
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        if self.history_length < 1:
            raise ValueError(f"history_length must be >= 1, got {self.history_length}")
        if self.max_idle < 1:
            raise ValueError(f"max_idle must be >= 1, got {self.max_idle}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if not 0 < self.coarse_sigma_ratio <= 1:
            raise ValueError(
                f"coarse_sigma_ratio must be in (0, 1], got {self.coarse_sigma_ratio}"
            )

    @property
    def epsilon(self) -> float:
        """The noise threshold ``epsilon = epsilon_ratio * sigma`` (Def. 6.4)."""
        return self.epsilon_ratio * self.sigma

    def delay_grid(self) -> List[int]:
        """The coarse delay grid probed for initial windows.

        Holds ``-td_max``, 0 and ``td_max`` (Def. 5.1's delay range),
        plus the multiples of ``init_delay_step`` (default ``s_min // 2``)
        strictly between them, in ascending order.
        """
        step = self.init_delay_step if self.init_delay_step is not None else max(1, self.s_min // 2)
        inner = range(step, self.td_max, step)
        return sorted({-self.td_max, 0, self.td_max, *inner, *(-tau for tau in inner)})

    def segment_overlap(self) -> int:
        """Overlap (samples) between consecutive timeline segments.

        ``s_max + td_max`` is the largest footprint a feasible window can
        have, so that much overlap makes every feasible window fully
        contained in at least one segment (the containment lemma of
        :mod:`repro.core.segmentation`); ``s_min`` more keeps some working
        context past a footprint for the noise probes and LAHC rings
        near it.
        """
        return self.s_max + self.td_max + self.s_min

    def refinement_margin(self) -> int:
        """Samples added around a coarse hit's footprint before refining.

        ``s_max + td_max`` -- one maximal window footprint -- so a coarse
        LAHC that settled a whole window away from the true optimum still
        leaves the optimum inside the refinement cell.
        """
        return self.s_max + self.td_max

    def scaled(self, **changes: Any) -> "TycosConfig":
        """A copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **changes)


# Paper Table 2, rescaled from wall-clock durations to the sample counts of
# our simulators (energy: minute resolution, smart city: 5-minute
# resolution).  The paper's absolute sizes (s_max = 10080 samples = 7 days)
# target a year of minute data; our simulated traces are shorter, so the
# bounds are scaled down proportionally while keeping the Table-2 ratios.
ENERGY_CONFIG = TycosConfig(
    sigma=0.3,
    epsilon_ratio=0.25,
    s_min=8,
    s_max=360,
    td_max=60,
    jitter=1e-6,
)

SMARTCITY_CONFIG = TycosConfig(
    sigma=0.2,
    epsilon_ratio=0.25,
    s_min=8,
    s_max=288,
    td_max=24,
    jitter=1e-6,
)
