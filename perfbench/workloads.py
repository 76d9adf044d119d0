"""The benchmark's three workloads: inputs, one operation, grading, checks.

Every input is a pure function of the seed.  A workload builds
``INSTANCES`` independent inputs from it (``instance`` 0, 1, ...) and its
operations cycle through them, so one run's median averages over inputs
as well as over repetitions.  The program sees only the generated arrays,
through its public entry points: ``Tycos.search`` (``pair_gallery``),
``auto_plan`` + ``execute_plan`` (``pair_episodic``) and ``cascade_scan``
(``scan_mixed``).  Each workload runs as a closed loop with one caller and
``n_jobs=1``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro import Tycos, TycosConfig
from repro.analysis import cascade_scan, planner
from repro.analysis.pairwise import PairwiseReport
from repro.core import BatchScorer, PairView, TimeDelayWindow, TycosResult
from repro.data.composer import ComposedPair, compose
from repro.data.relations import RELATIONS, relation_names
from repro.experiments.similarity import covers, detects
from repro.mi import KSGEstimator

#: Delays the dependent gallery relations cycle through.
GALLERY_DELAYS = (0, 10, 20, 30)
GALLERY_SEGMENT = 150

#: (start, length, delay) of the delayed-copy episodes on the episodic pair.
EPISODES: Tuple[Tuple[int, int, int], ...] = ((1200, 300, 5), (4200, 280, -7), (6800, 320, -3))
EPISODE_LENGTH = 8000

SCAN_LENGTH = 300
SCAN_WALKS = 3
SCAN_SERIES = 24
SCAN_DELAYS = (0, 10, 20)
SCAN_TD_MAX = 24
SCAN_SEGMENT = 200
SCAN_WINDOW = 200


def _rng(seed: int, instance: int) -> np.random.Generator:
    return np.random.default_rng([seed, instance])


@dataclass(frozen=True)
class Grade:
    """Planted-truth grading of one operation's output.

    ``recall`` is ``found / planted`` over planted dependencies (a
    relation segment, an episode, a series pair).  ``precision`` is
    ``1 - false_pos / reported`` over the items the output reports: the
    gallery's planted units (its ``independent`` placebo segment is the
    false positive), the episodic pair's windows (one covering no episode
    is a false positive), the scan's correlated pairs (one that was not
    planted is a false positive).
    """

    planted: int
    found: int
    reported: int
    false_pos: int

    @property
    def recall(self) -> float:
        return self.found / self.planted

    @property
    def precision(self) -> float:
        return 1.0 - self.false_pos / self.reported if self.reported else 0.0


def gallery_pair(seed: int, instance: int = 0) -> ComposedPair:
    """All nine Table-1 relations in one rank-normalized composed pair.

    Segments of ``GALLERY_SEGMENT`` samples in Table-1 order; the eight
    dependent ones echo at delays cycling through ``GALLERY_DELAYS`` and
    the independent placebo sits at delay 0.
    """
    plan = []
    dependent = 0
    for name in relation_names():
        delay = 0
        if RELATIONS[name].dependent:
            delay = GALLERY_DELAYS[dependent % len(GALLERY_DELAYS)]
            dependent += 1
        plan.append((name, GALLERY_SEGMENT, delay))
    return compose(plan, _rng(seed, instance), gap=max(GALLERY_DELAYS) + 25)


def _ar1(rng: np.random.Generator, n: int, phi: float = 0.9) -> np.ndarray:
    shocks = rng.normal(size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + shocks[i]
        out[i] = acc
    return out


def episode_pair(seed: int, instance: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Two AR(1) walks with the three ``EPISODES`` copied from x into y."""
    rng = _rng(seed, instance)
    x = _ar1(rng, EPISODE_LENGTH)
    y = _ar1(rng, EPISODE_LENGTH)
    for start, length, delay in EPISODES:
        y[start + delay : start + delay + length] = x[start : start + length] + 0.1 * rng.normal(
            size=length
        )
    return x, y


def mixed_collection(
    seed: int, instance: int = 0
) -> Tuple[Dict[str, np.ndarray], FrozenSet[Tuple[str, str]]]:
    """The ``scan_mixed`` collection and its planted (source, target) pairs.

    ``SCAN_WALKS`` lag-shifted noisy copies of one random walk (every two
    of them a linear pair), each Table-1 relation as an
    ``<name>_x``/``<name>_y`` pair with one ``SCAN_SEGMENT``-sample
    segment echoed at a delay from ``SCAN_DELAYS``, and white noise
    filling the collection to ``SCAN_SERIES`` series.
    """
    rng = _rng(seed, instance)
    series: Dict[str, np.ndarray] = {}
    planted = set()
    base = np.cumsum(rng.normal(size=SCAN_LENGTH))
    for i in range(SCAN_WALKS):
        series[f"walk{i}"] = np.roll(base, 3 * i) + rng.normal(scale=0.15, size=SCAN_LENGTH)
        planted.update((f"walk{j}", f"walk{i}") for j in range(i))
    gap = 60
    for index, name in enumerate(relation_names()):
        delay = SCAN_DELAYS[index % len(SCAN_DELAYS)] if RELATIONS[name].dependent else 0
        lead = SCAN_LENGTH - SCAN_SEGMENT - gap - delay
        pair = compose([(name, SCAN_SEGMENT, delay)], rng, gap=gap, lead=lead)
        series[f"{name}_x"], series[f"{name}_y"] = pair.x, pair.y
        if RELATIONS[name].dependent:
            planted.add((f"{name}_x", f"{name}_y"))
    for i in range(SCAN_SERIES - len(series)):
        series[f"noise{i}"] = rng.normal(size=SCAN_LENGTH)
    return series, frozenset(planted)


def _warm(x: np.ndarray, y: np.ndarray, config: TycosConfig) -> None:
    """Touch the lazy state a first search would pay for (kernels, digamma table)."""
    KSGEstimator(k=config.k).mi(x[: config.s_max], y[: config.s_max])


def _windows_digest(result: TycosResult) -> str:
    h = hashlib.sha256()
    for r in result.windows:
        w = r.window
        h.update(f"{w.start},{w.end},{w.delay},{r.mi.hex()},{r.nmi.hex()};".encode())
    return h.hexdigest()


def check_windows(
    result: TycosResult, x: np.ndarray, y: np.ndarray, config: TycosConfig, rescore: bool
) -> List[str]:
    """Problems with a search result: infeasible or sub-sigma windows.

    ``rescore`` additionally recomputes every window's score with a fresh
    scorer over the same pair, which the first operation of a run pays;
    every later operation on an input must match that input's first
    digest.
    """
    n = x.size
    problems = []
    for r in result.windows:
        w = r.window
        if not w.is_feasible(n, config.s_min, config.s_max, config.td_max):
            problems.append(f"infeasible window {w}")
        if r.nmi < config.sigma:
            problems.append(f"window {w} reports nmi {r.nmi} < sigma {config.sigma}")
    if rescore and not problems:
        scorer = BatchScorer(PairView(x, y, jitter=config.jitter, seed=config.seed), config)
        for r in result.windows:
            if scorer.value(r.window) < config.sigma - 1e-9:
                problems.append(f"window {r.window} rescores below sigma {config.sigma}")
    return problems


@dataclass(frozen=True)
class PairCase:
    """One generated pair with its planted windows."""

    x: np.ndarray
    y: np.ndarray
    truth: Sequence[TimeDelayWindow]
    placebo: Sequence[TimeDelayWindow] = ()


class PairWorkload:
    """Shared digest and checks of the two single-pair workloads."""

    INSTANCES: int
    config: TycosConfig
    engine: Tycos
    cases: List[PairCase]

    def run(self, instance: int) -> TycosResult:
        raise NotImplementedError

    def digest(self, result: TycosResult) -> str:
        return _windows_digest(result)

    def grade(self, result: TycosResult, instance: int) -> Grade:
        raise NotImplementedError

    def check(self, result: TycosResult, instance: int, rescore: bool) -> List[str]:
        case = self.cases[instance]
        return check_windows(result, case.x, case.y, self.config, rescore)


class PairGallery(PairWorkload):
    """``Tycos.search`` on the Table-1 pair (the paper's effectiveness workload)."""

    name = "pair_gallery"
    # Whether circle, cross or sine is found depends on the input, so
    # recall is averaged over six inputs.
    INSTANCES = 6

    def __init__(self, seed: int) -> None:
        self.cases = []
        for instance in range(self.INSTANCES):
            pair = gallery_pair(seed, instance)
            placebo = [p.window for p in pair.planted if not p.dependent]
            self.cases.append(PairCase(pair.x, pair.y, pair.truth_windows(), placebo))
        self.config = TycosConfig(
            sigma=0.45,
            s_min=16,
            s_max=220,
            td_max=max(GALLERY_DELAYS) + 10,
            significance_permutations=20,
            seed=seed,
            init_delay_step=1,
        )
        self.engine = Tycos(self.config)
        _warm(self.cases[0].x, self.cases[0].y, self.config)

    def run(self, instance: int) -> TycosResult:
        case = self.cases[instance]
        return self.engine.search(case.x, case.y)

    def grade(self, result: TycosResult, instance: int) -> Grade:
        case = self.cases[instance]
        found = [r.window for r in result.windows]
        hits = sum(detects(found, t) for t in case.truth)
        placebo = sum(detects(found, t) for t in case.placebo)
        return Grade(len(case.truth), hits, hits + placebo, placebo)


class PairEpisodic(PairWorkload):
    """``auto_plan`` + ``execute_plan`` on the episodic pair (coarse=8 on one core)."""

    name = "pair_episodic"
    # One input's search costs up to 1.5x another's (more noise windows
    # to rule out), so the median averages over more inputs.
    INSTANCES = 8

    def __init__(self, seed: int) -> None:
        truth = [TimeDelayWindow(s, s + m - 1, d) for s, m, d in EPISODES]
        self.cases = [PairCase(*episode_pair(seed, i), truth) for i in range(self.INSTANCES)]
        self.config = TycosConfig(
            sigma=0.75,
            s_min=32,
            s_max=96,
            td_max=8,
            jitter=1e-6,
            seed=3,
            init_delay_step=1,
            coarse_sigma_ratio=0.85,
        )
        self.engine = Tycos(self.config)
        _warm(self.cases[0].x, self.cases[0].y, self.config)

    def run(self, instance: int) -> TycosResult:
        case = self.cases[instance]
        plan = planner.auto_plan(case.x.size, 1, 1, self.config)
        return planner.execute_plan(case.x, case.y, engine=self.engine, plan=plan)

    def grade(self, result: TycosResult, instance: int) -> Grade:
        truth = self.cases[instance].truth
        found = [r.window for r in result.windows]
        spurious = sum(not any(covers(w, t) for t in truth) for w in found)
        return Grade(len(truth), sum(detects(found, t) for t in truth), len(found), spurious)


class ScanMixed:
    """``cascade_scan`` over the mixed collection: every cascade stage runs."""

    name = "scan_mixed"
    INSTANCES = 3

    def __init__(self, seed: int) -> None:
        self.cases = [mixed_collection(seed, i) for i in range(self.INSTANCES)]
        # screen_window=200: at the default window of 64 stage 1 prunes
        # almost nothing and a 100-series scan ran for more than 10
        # minutes.  A small td_max: the screen's memory grows with the
        # delay band (6.7 GB for 24 series at td_max=160, n=1000).
        self.config = TycosConfig(
            sigma=0.5,
            s_min=24,
            s_max=100,
            td_max=SCAN_TD_MAX,
            jitter=1e-6,
            seed=1,
            significance_permutations=10,
            init_delay_step=1,
        )
        first = next(iter(self.cases[0][0].values()))
        _warm(first, first[::-1].copy(), self.config)

    def run(self, instance: int) -> PairwiseReport:
        series, _ = self.cases[instance]
        return cascade_scan(series, self.config, screen_window=SCAN_WINDOW, n_jobs=1)

    def digest(self, report: PairwiseReport) -> str:
        payload = repr(
            (
                report.findings,
                report.skipped,
                report.failures,
                report.pairs_screened,
                report.pairs_pruned_fft,
                report.pairs_pruned_nmi,
                report.pairs_searched,
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def grade(self, report: PairwiseReport, instance: int) -> Grade:
        planted = self.cases[instance][1]
        correlated = {(f.source, f.target) for f in report.correlated()}
        hits = len(correlated & planted)
        return Grade(len(planted), hits, len(correlated), len(correlated) - hits)

    def check(self, report: PairwiseReport, instance: int, rescore: bool) -> List[str]:
        """Ledger balance and no failed pair; ``rescore`` re-searches every correlated pair.

        The re-search must return feasible windows scoring at least sigma
        whose count, best NMI and delay range equal the pair's finding.
        """
        cfg = self.config
        problems = [f"pair failed: {f}" for f in report.failures]
        ledger = report.pairs_pruned_fft + report.pairs_pruned_nmi + report.pairs_searched
        if ledger != report.pairs_screened:
            problems.append(
                f"cascade ledger fft+nmi+searched={ledger} != screened={report.pairs_screened}"
            )
        series = self.cases[instance][0]
        engine = Tycos(cfg) if rescore else None
        for f in report.correlated():
            if f.best_nmi < cfg.sigma:
                problems.append(f"{f.source}->{f.target} best nmi {f.best_nmi} < sigma")
            if f.delay_range is None or max(map(abs, f.delay_range)) > cfg.td_max:
                problems.append(f"{f.source}->{f.target} delay range {f.delay_range} out of bounds")
            if engine is None:
                continue
            x, y = series[f.source], series[f.target]
            result = engine.search(x, y)
            problems.extend(check_windows(result, x, y, cfg, rescore=False))
            again = (
                len(result.windows),
                max((r.nmi for r in result.windows), default=0.0),
                result.delay_range(),
            )
            if again != (f.windows, f.best_nmi, f.delay_range):
                problems.append(f"{f.source}->{f.target} re-search gives {again}, scan gave {f}")
        return problems


WORKLOADS = {w.name: w for w in (PairGallery, PairEpisodic, ScanMixed)}
