"""Tests for batched neighborhood scoring and the capped scorer memo.

The batched path's contract is *exact* equality: ``value_many`` must
produce the same floats, the same cache contents (in the same LRU
order), and the same bookkeeping counters as scoring one window at a
time, for both scorer classes -- only the amount of redundant kernel
work may differ.  The memo is read back through ``score()`` on both
sides, which serves every window as a hit.  The stacked kernels
themselves are gated in ``tests/mi/test_stacked.py``.
"""

import numpy as np
import pytest

import repro.core.thresholds as thresholds
from repro.core.config import TycosConfig
from repro.core.neighborhood import neighborhood
from repro.core.thresholds import BatchScorer, IncrementalScorer
from repro.core.tycos import Tycos
from repro.core.window import PairView, TimeDelayWindow

# Padded kernel rows invite inf - inf and 0 / 0; none may happen.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _arrays(windows):
    """``(starts, ends, delays)`` arrays of a window list."""
    return tuple(np.array(column, dtype=np.int64) for column in zip(*(w.key() for w in windows)))


def _hex(scores):
    return [(s.mi.hex(), s.nmi.hex(), s.ratio.hex()) for s in scores]


def _coupled_pair(n=400, lag=7, seed=9):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=n))
    x = base + rng.normal(scale=0.1, size=n)
    y = np.roll(base, lag) + rng.normal(scale=0.1, size=n)
    return x, y


def _tied_pair(n=400, lag=9, seed=4):
    """Unjittered rank-coded pair: few distinct values, ties everywhere.

    A delayed noisy copy of a coarse walk, binned to small integers, so
    the k-NN selection and marginal counts keep hitting exact ties.
    """
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(size=n))
    x = np.digitize(walk, np.quantile(walk, np.linspace(0, 1, 9)[1:-1])).astype(float)
    y = np.roll(x, lag) + rng.integers(0, 2, size=n)
    return x, y


def _ring(rng, n, count, delay, td_max):
    """A batch of same-delay windows shaped like a delta-neighbor ring."""
    windows = []
    for _ in range(count):
        size = int(rng.integers(8, 40))
        start = int(rng.integers(td_max, n - size - td_max))
        windows.append(TimeDelayWindow(start=start, end=start + size - 1, delay=delay))
    return windows


class TestScoreManyEquality:
    """A batch scored by ``value_many`` equals its windows scored one by one."""

    @pytest.mark.parametrize("scorer_cls", [BatchScorer, IncrementalScorer])
    def test_batched_floats_equal_scalar_floats(self, scorer_cls):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        pair = PairView(x, y)
        rng = np.random.default_rng(3)
        windows = _ring(rng, pair.n, 12, delay=2, td_max=6) + _ring(
            rng, pair.n, 12, delay=-3, td_max=6
        )

        scalar = scorer_cls(PairView(x, y), config)
        expected = [scalar.score(w) for w in windows]
        batched = scorer_cls(pair, config)
        batched.value_many(*_arrays(windows))

        assert batched.evaluations == scalar.evaluations
        assert batched.cache_hits == scalar.cache_hits
        assert list(batched._cache.items()) == list(scalar._cache.items())
        got = [batched.score(w) for w in windows]  # memo hits only
        assert got == expected  # exact float equality, not approximate
        assert batched.evaluations == scalar.evaluations

    def test_value_many_equals_scalar_values(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        rng = np.random.default_rng(4)
        windows = _ring(rng, len(x), 10, delay=1, td_max=6)
        scalar = BatchScorer(PairView(x, y), config)
        batched = BatchScorer(PairView(x, y), config)
        values = batched.value_many(*_arrays(windows))
        assert values.dtype == np.float64
        assert values.tolist() == [scalar.value(w) for w in windows]

    def test_raw_mi_objective(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6, use_normalized=False)
        windows = _ring(np.random.default_rng(6), len(x), 10, delay=-2, td_max=6)
        scalar = BatchScorer(PairView(x, y), config)
        batched = BatchScorer(PairView(x, y), config)
        expected = [scalar.value(w) for w in windows]
        assert expected == [scalar.score(w).mi for w in windows]
        assert batched.value_many(*_arrays(windows)).tolist() == expected

    def test_duplicates_in_one_batch_hit_the_cache(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        scorer = BatchScorer(PairView(x, y), config)
        w = TimeDelayWindow(start=50, end=80, delay=2)
        values = scorer.value_many(*_arrays([w, w, w]))
        assert values[0] == values[1] == values[2]
        assert scorer.evaluations == 1
        assert scorer.cache_hits == 2

    def test_empty_batch(self):
        x, y = _coupled_pair()
        scorer = BatchScorer(PairView(x, y), TycosConfig(s_min=8, s_max=60, td_max=6))
        empty = np.empty(0, dtype=np.int64)
        assert scorer.value_many(empty, empty, empty).shape == (0,)
        assert scorer.evaluations == scorer.cache_hits == 0

    def test_batch_propagates_scalar_path_errors(self):
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        scorer = BatchScorer(PairView(x, y), config)
        infeasible = TimeDelayWindow(start=0, end=30, delay=-5)  # y range < 0
        with pytest.raises(IndexError):
            scorer.value_many(*_arrays([infeasible]))

    @pytest.mark.parametrize("scorer_cls", [BatchScorer, IncrementalScorer])
    def test_memo_order_matches_reference(self, scorer_cls, monkeypatch):
        # A memo smaller than a batch: hits, repeats and evictions inside
        # one call leave the same table, in the same order, as calling
        # value() on each window in input order.
        monkeypatch.setattr(thresholds, "CACHE_CAPACITY", 5)
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        rng = np.random.default_rng(8)
        ring = _ring(rng, len(x), 9, delay=1, td_max=6)
        batches = [ring[:4], ring[2:] + ring[:2], ring[3:6] + ring[3:6] + ring[7:]]
        reference = scorer_cls(PairView(x, y), config)
        batched = scorer_cls(PairView(x, y), config)
        for batch in batches:
            expected = [reference.value(w) for w in batch]
            assert batched.value_many(*_arrays(batch)).tolist() == expected
            assert list(batched._cache.items()) == list(reference._cache.items())
            assert batched.evaluations == reference.evaluations
            assert batched.cache_hits == reference.cache_hits


class TestLongWindows:
    """Windows of 4,096 samples and more join the padded pass."""

    @pytest.mark.parametrize("make_pair", [_coupled_pair, _tied_pair])
    def test_value_many_equals_scalar_values(self, make_pair):
        x, y = make_pair(n=4200)
        config = TycosConfig(s_min=8, s_max=4150, td_max=6)
        # One short window pads out to the longest row.
        windows = [
            TimeDelayWindow(start=20, end=20 + size - 1, delay=delay)
            for size, delay in ((40, 1), (4000, -2), (4095, 3), (4096, 0), (4097, -6))
        ]
        scalar = BatchScorer(PairView(x, y), config)
        batched = BatchScorer(PairView(x, y), config)

        def unbatched(window):
            raise AssertionError(f"{window} left the padded pass")

        batched.score = unbatched
        values = batched.value_many(*_arrays(windows))
        assert [v.hex() for v in values.tolist()] == [scalar.value(w).hex() for w in windows]
        assert batched.evaluations == scalar.evaluations == len(windows)


class TestStackedRings:
    """``value_many`` on tied unjittered data equals sequential ``score()``."""

    CONFIG = TycosConfig(s_min=16, s_max=140, td_max=40, init_delay_step=1)

    def _batches(self, n):
        cfg = self.CONFIG
        probes = [
            TimeDelayWindow(start=120, end=120 + cfg.s_min - 1, delay=tau)
            for tau in cfg.delay_grid()
        ]
        batches = [probes]
        for center in (
            TimeDelayWindow(60, 77, 3),
            TimeDelayWindow(200, 239, -5),
            TimeDelayWindow(150, 255, 9),  # engine-size for the incremental scorer
        ):
            for radius in (1, 2):
                starts, ends, delays = neighborhood(
                    center, radius=radius, delta=1, n=n, s_min=cfg.s_min,
                    s_max=cfg.s_max, td_max=cfg.td_max,
                )
                batches.append([TimeDelayWindow(*key) for key in zip(starts, ends, delays)])
        # Mixed sizes in one batch, across the m = 32 marginal-count switch.
        batches.append([TimeDelayWindow(300 - m, 299, m % 7 - 3) for m in (16, 31, 32, 33, 90)])
        return batches

    @pytest.mark.parametrize("scorer_cls", [BatchScorer, IncrementalScorer])
    def test_value_many_equals_sequential_score(self, scorer_cls):
        x, y = _tied_pair()
        sequential = scorer_cls(PairView(x, y), self.CONFIG)
        stacked = scorer_cls(PairView(x, y), self.CONFIG)
        batches = self._batches(len(x))
        assert len(batches[0]) == 81
        for batch in batches + batches[1:2]:  # the replay is all memo hits
            if scorer_cls is IncrementalScorer:
                sequential.follow_delay(batch[0].delay)
                stacked.follow_delay(batch[0].delay)
            expected = [sequential.score(w) for w in batch]
            values = stacked.value_many(*_arrays(batch))
            assert stacked.evaluations == sequential.evaluations
            assert stacked.cache_hits == sequential.cache_hits
            assert [v.hex() for v in values.tolist()] == [s.ratio.hex() for s in expected]
            assert _hex(stacked.score(w) for w in batch) == _hex(expected)
            sequential.cache_hits += len(batch)  # the read-back's hits
        assert stacked.cache_hits > 0
        if scorer_cls is IncrementalScorer:
            assert stacked.engine.full_searches == sequential.engine.full_searches
            assert stacked.engine.full_searches > 0


def _counters(result):
    stats = result.stats
    return (
        stats.windows_evaluated,
        stats.cache_hits,
        stats.restarts,
        stats.lahc_iterations,
        stats.accepted_moves,
        stats.noise_prunes,
        stats.mi_full_searches,
        stats.mi_incremental_updates,
    )


class TestEngineEquivalence:
    """The search's stacked calls against the ``scalar_scoring`` reference."""

    @pytest.mark.parametrize("use_incremental", [False, True])
    def test_search_identical_with_and_without_batching(self, use_incremental, scalar_scoring):
        x, y = _coupled_pair(n=320)
        config = TycosConfig(sigma=0.3, s_min=8, s_max=48, td_max=8, jitter=1e-6, seed=2)
        engine = Tycos(config, use_incremental=use_incremental)
        with scalar_scoring():
            plain = engine.search(x, y)
        batched = engine.search(x, y)
        assert [r.window for r in plain.windows] == [r.window for r in batched.windows]
        assert [r.mi for r in plain.windows] == [r.mi for r in batched.windows]
        assert plain.stats.windows_evaluated == batched.stats.windows_evaluated
        assert plain.stats.cache_hits == batched.stats.cache_hits
        assert plain.stats.accepted_moves == batched.stats.accepted_moves

    @pytest.mark.parametrize("use_noise", [False, True])
    @pytest.mark.parametrize("use_incremental", [False, True])
    def test_tied_unjittered_pair_identical_for_every_variant(
        self, use_noise, use_incremental, scalar_scoring
    ):
        # No jitter: ties reach argpartition and the marginal counts.  The
        # permutation test and the noise probes run their stacked paths.
        x, y = _tied_pair(n=360)
        config = TycosConfig(
            sigma=0.3, s_min=12, s_max=110, td_max=12, init_delay_step=1,
            significance_permutations=6, seed=5,
        )
        engine = Tycos(config, use_noise=use_noise, use_incremental=use_incremental)
        with scalar_scoring():
            runs = [engine.search(x, y)]
        runs.append(engine.search(x, y))
        plain, batched = (
            [(r.window.key(), r.mi.hex(), r.nmi.hex()) for r in run.windows] for run in runs
        )
        assert plain == batched
        assert plain  # the tied pair does hold windows
        assert _counters(runs[0]) == _counters(runs[1])

    @pytest.mark.parametrize("use_incremental", [False, True])
    def test_small_memo_evicts_inside_one_batch(
        self, use_incremental, scalar_scoring, monkeypatch
    ):
        # A 7-entry memo is smaller than a seeding delay grid or a ring,
        # so value_many stores, evicts and re-scores evicted hits inside
        # one call; the search still equals the per-window reference.
        monkeypatch.setattr(thresholds, "CACHE_CAPACITY", 7)
        x, y = _coupled_pair(n=320)
        config = TycosConfig(sigma=0.3, s_min=8, s_max=48, td_max=8, jitter=1e-6, seed=2)
        engine = Tycos(config, use_incremental=use_incremental)
        with scalar_scoring():
            plain = engine.search(x, y)
        batch_sizes = []
        real = BatchScorer.value_many

        def recorded(self, starts, ends, delays):
            batch_sizes.append(len(starts))
            return real(self, starts, ends, delays)

        monkeypatch.setattr(BatchScorer, "value_many", recorded)
        batched = engine.search(x, y)
        assert max(batch_sizes) > thresholds.CACHE_CAPACITY
        assert plain.windows
        assert [(r.window.key(), r.mi.hex()) for r in plain.windows] == [
            (r.window.key(), r.mi.hex()) for r in batched.windows
        ]
        assert plain.stats.windows_evaluated == batched.stats.windows_evaluated
        assert plain.stats.cache_hits == batched.stats.cache_hits


class TestCappedMemo:
    def test_capacity_bounds_the_table(self, monkeypatch):
        monkeypatch.setattr(thresholds, "CACHE_CAPACITY", 5)
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        scorer = BatchScorer(PairView(x, y), config)
        for start in range(20, 60):
            scorer.score(TimeDelayWindow(start=start, end=start + 20, delay=0))
        assert len(scorer._cache) == 5

    def test_lru_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(thresholds, "CACHE_CAPACITY", 2)
        x, y = _coupled_pair()
        config = TycosConfig(s_min=8, s_max=60, td_max=6)
        scorer = BatchScorer(PairView(x, y), config)
        w1 = TimeDelayWindow(start=20, end=40, delay=0)
        w2 = TimeDelayWindow(start=30, end=50, delay=0)
        w3 = TimeDelayWindow(start=40, end=60, delay=0)
        scorer.score(w1)
        scorer.score(w2)
        scorer.score(w1)  # refresh w1: w2 becomes the eviction candidate
        scorer.score(w3)  # evicts w2
        evaluations = scorer.evaluations
        scorer.score(w1)
        assert scorer.evaluations == evaluations  # still cached
        scorer.score(w2)
        assert scorer.evaluations == evaluations + 1  # was evicted


class TestTopKStats:
    def test_topk_reports_incremental_engine_stats(self):
        # Windows must exceed IncrementalScorer.min_engine_size for the
        # sliding engine (whose counters these stats mirror) to engage.
        x, y = _coupled_pair(n=600)
        config = TycosConfig(sigma=0.3, s_min=100, s_max=160, td_max=8, jitter=1e-6, seed=2)
        result = Tycos(config, use_incremental=True).search_topk(x, y, k_top=3)
        assert result.stats.mi_full_searches > 0
        plain = Tycos(config.scaled(s_min=8, s_max=48), use_incremental=False).search_topk(
            x, y, k_top=3
        )
        assert plain.stats.mi_full_searches == 0
        assert plain.stats.mi_incremental_updates == 0
