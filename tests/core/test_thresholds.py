"""Tests for window scorers and the top-K filter."""

import pytest

from repro.core.config import TycosConfig
from repro.core.thresholds import (
    BatchScorer,
    IncrementalScorer,
    TopKFilter,
    make_scorer,
)
from repro.core.window import PairView, TimeDelayWindow


@pytest.fixture
def pair(rng):
    n = 400
    x = rng.normal(size=n)
    y = 0.7 * x + 0.7 * rng.normal(size=n)
    return PairView(x, y)


@pytest.fixture
def config():
    return TycosConfig(sigma=0.3, s_min=16, s_max=100, td_max=10)


class TestBatchScorer:
    def test_score_components_consistent(self, pair, config):
        scorer = BatchScorer(pair, config)
        score = scorer.score(TimeDelayWindow(50, 120))
        assert 0.0 <= score.nmi <= 1.0
        assert score.ratio >= score.nmi or score.ratio == pytest.approx(score.nmi)

    def test_cache_hits(self, pair, config):
        scorer = BatchScorer(pair, config)
        w = TimeDelayWindow(10, 60)
        scorer.score(w)
        scorer.score(w)
        assert scorer.evaluations == 1
        assert scorer.cache_hits == 1

    def test_value_respects_normalized_flag(self, pair):
        w = TimeDelayWindow(50, 150)
        norm = BatchScorer(pair, TycosConfig(sigma=0.3, s_min=16, s_max=200, td_max=5))
        raw = BatchScorer(
            pair, TycosConfig(sigma=0.3, s_min=16, s_max=200, td_max=5, use_normalized=False)
        )
        assert norm.value(w) == pytest.approx(norm.score(w).ratio)
        assert raw.value(w) == pytest.approx(raw.score(w).mi)


class TestIncrementalScorer:
    def test_matches_batch_scorer_exactly(self, pair, config):
        batch = BatchScorer(pair, config)
        incr = IncrementalScorer(pair, config)
        windows = [
            TimeDelayWindow(50, 120),
            TimeDelayWindow(50, 121),   # grow end
            TimeDelayWindow(49, 121),   # grow start
            TimeDelayWindow(55, 110),   # shrink both
            TimeDelayWindow(55, 110, delay=3),  # delay change (one-off)
            TimeDelayWindow(60, 130, delay=3),  # repeated delay -> migrate
            TimeDelayWindow(60, 131, delay=3),
        ]
        for w in windows:
            assert incr.score(w).mi == pytest.approx(batch.score(w).mi, abs=1e-12), w

    def test_disjoint_jump_resets(self, pair, config):
        incr = IncrementalScorer(pair, config)
        batch = BatchScorer(pair, config)
        a = TimeDelayWindow(0, 40)
        b = TimeDelayWindow(300, 360)
        incr.score(a)
        assert incr.score(b).mi == pytest.approx(batch.score(b).mi, abs=1e-12)

    def test_factory(self, pair, config):
        assert isinstance(make_scorer(pair, config, incremental=True), IncrementalScorer)
        scorer = make_scorer(pair, config, incremental=False)
        assert isinstance(scorer, BatchScorer)
        assert not isinstance(scorer, IncrementalScorer)


class TestTopKFilter:
    def test_fills_then_tightens(self):
        topk = TopKFilter(capacity=2)
        assert topk.sigma == 0.0
        topk.offer(TimeDelayWindow(0, 10), 0.3)
        topk.offer(TimeDelayWindow(20, 30), 0.5)
        assert topk.sigma == 0.3
        assert topk.offer(TimeDelayWindow(40, 50), 0.4)
        assert topk.sigma == 0.4
        assert not topk.offer(TimeDelayWindow(60, 70), 0.35)

    def test_windows_ordered_best_first(self):
        topk = TopKFilter(capacity=3)
        for i, v in enumerate((0.2, 0.9, 0.5)):
            topk.offer(TimeDelayWindow(i * 10, i * 10 + 5), v)
        values = [v for _, v in topk.windows()]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            TopKFilter(capacity=0)

    def test_len(self):
        topk = TopKFilter(capacity=5)
        topk.offer(TimeDelayWindow(0, 5), 0.1)
        assert len(topk) == 1
