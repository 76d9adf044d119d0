"""Tests for the noise theory (Section 6): predicate, initial pruning,
subsequent direction blocking."""

import numpy as np

from repro.core.config import TycosConfig
from repro.core.neighborhood import Neighbor
from repro.core.noise import NoiseDetector, find_initial_window, is_noise
from repro.core.thresholds import BatchScorer
from repro.core.window import PairView, TimeDelayWindow


def _scorer_for(x, y, **cfg_kwargs):
    # sigma/s_min chosen so the noise threshold epsilon = sigma/4 clears
    # the small-sample null distribution of normalized MI: at m=32 the null
    # stays below ~0.15 while planted near-deterministic relations score
    # close to 1.
    defaults = dict(sigma=0.8, s_min=32, s_max=120, td_max=0, init_delay_step=1)
    defaults.update(cfg_kwargs)
    config = TycosConfig(**defaults)
    pair = PairView(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return BatchScorer(pair, config), config, pair


class TestNoisePredicate:
    def test_definition_64(self):
        # noise iff following < eps AND concatenation decreases the score.
        assert is_noise(0.01, 0.3, 0.5, epsilon=0.1)
        assert not is_noise(0.2, 0.3, 0.5, epsilon=0.1)   # following too strong
        assert not is_noise(0.01, 0.6, 0.5, epsilon=0.1)  # concat improved
        assert not is_noise(0.01, 0.5, 0.5, epsilon=0.1)  # concat equal

    def test_zero_epsilon_never_flags(self):
        assert not is_noise(0.0, 0.1, 0.5, epsilon=0.0)


class TestInitialNoisePruning:
    def _planted(self, rng, start=200, m=80, delay=0):
        n = 400
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        seg = rng.uniform(0, 1, m)
        x[start : start + m] = seg
        y[start + delay : start + delay + m] = seg + 0.01 * rng.normal(size=m)
        return x, y

    def test_skips_leading_noise(self, rng):
        x, y = self._planted(rng)
        scorer, config, pair = _scorer_for(x, y)
        w0 = find_initial_window(scorer, config, pair.n, scan_from=0)
        assert w0 is not None
        # The initial window must land inside the planted region, far past
        # the 200 samples of leading noise.
        assert w0.start >= 180
        assert scorer.value(w0) >= config.epsilon

    def test_finds_delayed_start(self, rng):
        x, y = self._planted(rng, delay=3)
        scorer, config, pair = _scorer_for(x, y, td_max=5)
        w0 = find_initial_window(scorer, config, pair.n, scan_from=0)
        assert w0 is not None
        assert w0.delay == 3

    def test_all_noise_returns_none(self, rng):
        x = rng.uniform(0, 1, 300)
        y = rng.uniform(0, 1, 300)
        scorer, config, pair = _scorer_for(x, y)
        assert find_initial_window(scorer, config, pair.n, scan_from=0) is None

    def test_scan_from_respected(self, rng):
        x, y = self._planted(rng, start=50, m=60)
        scorer, config, pair = _scorer_for(x, y)
        w0 = find_initial_window(scorer, config, pair.n, scan_from=150)
        # The planted region lies before scan_from; nothing promising after.
        assert w0 is None or w0.start >= 150


class TestSubsequentNoiseDetection:
    def _detector(self, rng):
        n = 400
        x = rng.uniform(0, 1, n)
        y = rng.uniform(0, 1, n)
        # Strong relation inside [100, 260); noise elsewhere.
        seg = rng.uniform(0, 1, 160)
        x[100:260] = seg
        y[100:260] = seg + 0.01 * rng.normal(size=160)
        scorer, config, pair = _scorer_for(x, y)
        return NoiseDetector(scorer=scorer, config=config, n=pair.n), scorer

    def test_blocks_forward_growth_into_noise(self, rng):
        detector, scorer = self._detector(rng)
        # Window ending right at the edge of the relation: growing forward
        # concatenates pure noise.
        window = TimeDelayWindow(218, 259, delay=0)
        detector.inspect(window, scorer.value(window))
        assert (0, 1, 0) in detector.blocked
        assert detector.prunes >= 1

    def test_blocks_backward_growth_into_noise(self, rng):
        detector, scorer = self._detector(rng)
        window = TimeDelayWindow(100, 141, delay=0)
        detector.inspect(window, scorer.value(window))
        assert (-1, 0, 0) in detector.blocked

    def test_no_block_inside_relation(self, rng):
        detector, scorer = self._detector(rng)
        window = TimeDelayWindow(140, 200, delay=0)
        detector.inspect(window, scorer.value(window))
        # Both growth directions stay inside the relation: no pruning.
        assert (0, 1, 0) not in detector.blocked
        assert (-1, 0, 0) not in detector.blocked

    def test_reset_clears_blocks(self, rng):
        detector, scorer = self._detector(rng)
        window = TimeDelayWindow(218, 259, delay=0)
        detector.inspect(window, scorer.value(window))
        assert detector.blocked
        detector.reset()
        assert not detector.blocked

    def test_filter_neighbors_respects_blocks(self, rng):
        detector, _ = self._detector(rng)
        detector.blocked.add((0, 1, 0))
        neighbors = [
            Neighbor(TimeDelayWindow(0, 10), (0, 1, 0)),
            Neighbor(TimeDelayWindow(0, 10), (0, 1, 1)),
            Neighbor(TimeDelayWindow(0, 10), (0, -1, 0)),
        ]
        kept = detector.filter_neighbors(neighbors)
        assert [nb.direction for nb in kept] == [(0, -1, 0)]

    def test_zero_value_window_not_inspected(self, rng):
        detector, _ = self._detector(rng)
        detector.inspect(TimeDelayWindow(10, 40, delay=0), 0.0)
        assert not detector.blocked
        assert detector.prunes == 0


class TestBatchedProbes:
    """``batched=True`` scores the same probes in one stacked call."""

    def _pair(self, rng):
        x = rng.integers(0, 5, 400).astype(float)  # unjittered, tied
        y = rng.integers(0, 5, 400).astype(float)
        y[100:260] = x[97:257]
        return x, y

    def test_inspect_matches_sequential_probes(self, rng):
        x, y = self._pair(rng)
        runs = []
        for batched in (False, True):
            scorer, config, pair = _scorer_for(x, y, td_max=4)
            detector = NoiseDetector(scorer=scorer, config=config, n=pair.n, batched=batched)
            blocks = []
            for start, end, delay in [
                (218, 259, 3), (100, 141, 3), (140, 200, 3), (10, 60, -4), (300, 398, 0),
            ]:
                window = TimeDelayWindow(start, end, delay)
                detector.reset()
                detector.inspect(window, scorer.value(window))
                blocks.append(sorted(detector.blocked))
            runs.append((blocks, detector.prunes, scorer.evaluations, scorer.cache_hits))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0  # some direction was blocked

    def test_seeding_matches_sequential_grid(self, rng):
        x, y = self._pair(rng)
        runs = []
        for batched in (False, True):
            scorer, config, pair = _scorer_for(x, y, td_max=6)
            seeds = [
                find_initial_window(scorer, config, pair.n, scan_from, batched=batched)
                for scan_from in (0, 90, 250)
            ]
            runs.append((seeds, scorer.evaluations, scorer.cache_hits))
        assert runs[0] == runs[1]
        assert any(seed is not None for seed in runs[0][0])
