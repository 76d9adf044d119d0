"""Table 1: which methods identify which relation types, with/without delay.

Reproduces the paper's effectiveness matrix: nine synthetic relations are
planted into one time series pair (Section 8.3 A), once without delay and
once with a large delay, and five methods -- PCC, MASS, MatrixProfile,
AMIC and TYCOS -- are asked to locate them.

Method adapters follow each method's published usage:

* **PCC** has no window search and no delay concept, so it is graded on
  the aligned full relation segment (|r| >= threshold).
* **MASS** requires a query; per the paper it gets the x-side segment and
  must find a *shape* match at the aligned position in Y.
* **MatrixProfile** sweeps several subsequence lengths and joins across
  all offsets, so it can see shifted shapes -- but only affine ones.
* **AMIC** searches multi-scale windows top-down but only at delay 0.
* **TYCOS** runs the full TYCOS_LMN search.

Detection of the "independent" placebo means *correctly reporting
nothing* inside its segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.amic import amic_search
from repro.baselines.mass import mass_distance_profile
from repro.baselines.matrix_profile import matrix_profile_scan
from repro.baselines.pearson import pcc
from repro.core.config import TycosConfig
from repro.core.tycos import tycos_lmn
from repro.core.window import TimeDelayWindow
from repro.data.composer import ComposedPair, standard_pair
from repro.data.relations import relation_names
from repro.experiments.similarity import detects
from repro.reporting import check, format_table, title

__all__ = ["Table1Result", "run_table1", "METHODS"]

METHODS = ("PCC", "MASS", "MatrixProfile", "AMIC", "TYCOS")


@dataclass
class Table1Result:
    """The detection matrix: (method, relation, delay) -> detected."""

    delays: Tuple[int, ...]
    cells: Dict[Tuple[str, str, int], bool] = field(default_factory=dict)

    def detected(self, method: str, relation: str, delay: int) -> bool:
        """Whether ``method`` identified ``relation`` at ``delay``."""
        return self.cells[(method, relation, delay)]

    def methods(self) -> List[str]:
        """The methods that were actually evaluated, in canonical order."""
        present = {m for m, _, __ in self.cells}
        return [m for m in METHODS if m in present]

    def to_text(self) -> str:
        """Render the matrix the way Table 1 lays it out."""
        methods = self.methods()
        blocks = [title("Table 1: identified relation types")]
        for delay in self.delays:
            headers = ["Relation"] + methods
            rows = []
            for relation in relation_names():
                rows.append(
                    [relation]
                    + [check(self.cells[(m, relation, delay)]) for m in methods]
                )
            blocks.append(f"\ntd = {delay}")
            blocks.append(format_table(headers, rows))
        return "\n".join(blocks)


def _grade(
    found: Sequence[TimeDelayWindow],
    pair: ComposedPair,
    min_cover: float = 0.7,
) -> Dict[str, bool]:
    """Per-relation detection verdict for a set of extracted windows."""
    verdict: Dict[str, bool] = {}
    for planted in pair.planted:
        hit = detects(found, planted.window, min_cover=min_cover)
        if planted.dependent:
            verdict[planted.name] = hit
        else:
            # Detecting independence = staying silent on that segment.
            verdict[planted.name] = not hit
    return verdict


def _tycos_windows(pair: ComposedPair, delay: int, seed: int) -> List[TimeDelayWindow]:
    config = TycosConfig(
        sigma=0.45,
        s_min=16,
        s_max=220,
        td_max=max(10, abs(delay) + 10),
        significance_permutations=20,
        seed=seed,
        # Shuffled segments leave no MI gradient along the delay axis, so
        # the initial probe must visit every delay once per restart.
        init_delay_step=1,
    )
    result = tycos_lmn(config).search(pair.x, pair.y)
    return [r.window for r in result.windows]


def _amic_windows(pair: ComposedPair, seed: int) -> List[TimeDelayWindow]:
    # AMIC's rigid binary splits rarely align with planted segments, so its
    # windows are partially diluted by background noise; the paper's Table-2
    # sigma (0.2-0.3) rather than the stricter TYCOS gate keeps the
    # comparison fair.
    config = TycosConfig(sigma=0.28, s_min=16, s_max=220, td_max=0, seed=seed)
    result = amic_search(pair.x, pair.y, config)
    return [r.window for r in result.windows]


def _pcc_verdicts(pair: ComposedPair, threshold: float = 0.85) -> Dict[str, bool]:
    """PCC on the aligned full segment: only linear/monotonic can pass."""
    verdict: Dict[str, bool] = {}
    for planted in pair.planted:
        xs = pair.x[planted.start : planted.end + 1]
        ys = pair.y[planted.start : planted.end + 1]  # aligned: no delay concept
        hit = abs(pcc(xs, ys)) >= threshold
        verdict[planted.name] = hit if planted.dependent else not hit
    return verdict


def _mass_verdicts(pair: ComposedPair, rel_threshold: float = 0.35) -> Dict[str, bool]:
    """MASS with the x-segment as query, graded at the aligned position.

    A relation counts as found when the distance profile at the query's own
    position is below ``rel_threshold * sqrt(2m)`` -- i.e. the y side holds
    a similar *shape* where the x pattern sits.
    """
    verdict: Dict[str, bool] = {}
    for planted in pair.planted:
        query = pair.x[planted.start : planted.end + 1]
        profile = mass_distance_profile(query, pair.y)
        cutoff = rel_threshold * np.sqrt(2.0 * query.size)
        # Aligned grading: the similar shape must sit where the query sits.
        lo = max(0, planted.start - 5)
        hi = min(profile.size, planted.start + 6)
        hit = bool(profile[lo:hi].min() <= cutoff) if hi > lo else False
        verdict[planted.name] = hit if planted.dependent else not hit
    return verdict


def _matrix_profile_verdicts(
    pair: ComposedPair,
    lengths: Sequence[int] = (32, 64),
    rel_threshold: float = 0.25,
) -> Dict[str, bool]:
    """MatrixProfile AB-join over several lengths; matches may be shifted,
    but the matched shape must come from the relation's own echo."""
    matches = matrix_profile_scan(pair.x, pair.y, lengths, threshold_factor=rel_threshold)
    verdict: Dict[str, bool] = {}
    for planted in pair.planted:
        y_lo = planted.start + planted.delay
        y_hi = planted.end + planted.delay
        hit = any(
            planted.start <= m.start_a <= planted.end - m.length + 1
            and y_lo <= m.start_b <= y_hi - m.length + 1
            for m in matches
        )
        verdict[planted.name] = hit if planted.dependent else not hit
    return verdict


def run_table1(
    delays: Tuple[int, ...] = (0, 150),
    segment_length: int = 150,
    seed: int = 0,
    methods: Sequence[str] = METHODS,
) -> Table1Result:
    """Run the Table-1 experiment.

    Args:
        delays: the td values to test (the paper reports 0 and 150).
        segment_length: samples per planted relation.
        seed: randomness seed for data and searches.
        methods: subset of :data:`METHODS` to evaluate.

    Returns:
        The detection matrix as a :class:`Table1Result`.
    """
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}; choose from {METHODS}")
    result = Table1Result(delays=tuple(delays))
    for delay in delays:
        rng = np.random.default_rng(seed)
        pair = standard_pair(rng, segment_length=segment_length, delay=delay)
        verdicts: Dict[str, Dict[str, bool]] = {}
        if "PCC" in methods:
            verdicts["PCC"] = _pcc_verdicts(pair)
        if "MASS" in methods:
            verdicts["MASS"] = _mass_verdicts(pair)
        if "MatrixProfile" in methods:
            verdicts["MatrixProfile"] = _matrix_profile_verdicts(pair)
        if "AMIC" in methods:
            verdicts["AMIC"] = _grade(_amic_windows(pair, seed), pair)
        if "TYCOS" in methods:
            verdicts["TYCOS"] = _grade(_tycos_windows(pair, delay, seed), pair)
        for method, verdict in verdicts.items():
            for relation, hit in verdict.items():
                result.cells[(method, relation, delay)] = hit
    return result
