"""End-to-end tests of the four TYCOS variants."""

import numpy as np
import pytest

from repro.core.config import TycosConfig
from repro.core.tycos import Tycos, tycos_l, tycos_lm, tycos_lmn, tycos_ln
from repro.experiments.similarity import detects


def _planted_pair(seed=0, n=500, start=200, m=120, delay=8):
    """Noise with one strong (shuffled) relation planted at a known delay."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = rng.uniform(0, 1, n)
    seg = rng.uniform(0, 1, m)
    x[start : start + m] = seg
    y[start + delay : start + delay + m] = np.sin(6 * seg) / 2 + 0.52 + 0.02 * rng.normal(size=m)
    return x, y


def _config(**kwargs):
    defaults = dict(
        sigma=0.4,
        s_min=20,
        s_max=150,
        td_max=12,
        init_delay_step=1,
        significance_permutations=10,
        seed=0,
    )
    defaults.update(kwargs)
    return TycosConfig(**defaults)


ALL_VARIANTS = [tycos_l, tycos_ln, tycos_lm, tycos_lmn]


class TestVariantNames:
    def test_names(self):
        cfg = _config()
        assert tycos_l(cfg).name == "TYCOS_L"
        assert tycos_ln(cfg).name == "TYCOS_LN"
        assert tycos_lm(cfg).name == "TYCOS_LM"
        assert tycos_lmn(cfg).name == "TYCOS_LMN"


class TestSearchFindsPlantedWindow:
    @pytest.mark.parametrize("factory", ALL_VARIANTS)
    def test_finds_delayed_relation(self, factory):
        x, y = _planted_pair()
        result = factory(_config()).search(x, y)
        assert len(result.windows) > 0
        from repro.core.window import TimeDelayWindow

        truth = TimeDelayWindow(200, 319, delay=8)
        assert detects([r.window for r in result.windows], truth, delay_tol=2)

    @pytest.mark.parametrize("factory", ALL_VARIANTS)
    def test_silent_on_pure_noise(self, factory):
        # A hill-climbing search is an extreme-value machine: over the few
        # thousand windows it probes, the small-sample null of the score
        # reaches ~0.6 occasionally, so a robust no-signal gate needs both
        # a high sigma and a meaningful permutation test.
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 400)
        y = rng.uniform(0, 1, 400)
        cfg = _config(sigma=0.65, s_min=24, significance_permutations=40)
        result = factory(cfg).search(x, y)
        assert len(result.windows) == 0

    def test_all_accepted_windows_clear_sigma(self):
        x, y = _planted_pair()
        cfg = _config()
        result = tycos_lmn(cfg).search(x, y)
        for r in result.windows:
            assert r.nmi >= min(cfg.sigma, 1.0) - 1e-9

    def test_windows_respect_constraints(self):
        x, y = _planted_pair()
        cfg = _config()
        result = tycos_lmn(cfg).search(x, y)
        for r in result.windows:
            assert r.window.is_feasible(len(x), cfg.s_min, cfg.s_max, cfg.td_max)

    def test_no_containment_in_result_set(self):
        x, y = _planted_pair()
        result = tycos_l(_config()).search(x, y)
        windows = [r.window for r in result.windows]
        for a in windows:
            for b in windows:
                if a != b:
                    assert not a.contains(b)


class TestDeterminism:
    def test_same_seed_same_result(self):
        x, y = _planted_pair()
        cfg = _config()
        a = tycos_lmn(cfg).search(x, y)
        b = tycos_lmn(cfg).search(x, y)
        assert [r.window for r in a.windows] == [r.window for r in b.windows]


class TestBatchedSeeding:
    def test_plain_variant_seeding_matches_scalar_path(self, scalar_scoring):
        """Batched delay-grid seeding is a pure perf change for TYCOS_L."""
        x, y = _planted_pair()
        engine = Tycos(_config(), use_noise=False)
        batched = engine.search(x, y)
        with scalar_scoring():
            scalar = engine.search(x, y)
        assert [(r.window, r.mi, r.nmi) for r in batched.windows] == [
            (r.window, r.mi, r.nmi) for r in scalar.windows
        ]


class TestStats:
    def test_stats_populated(self):
        x, y = _planted_pair()
        result = tycos_lmn(_config()).search(x, y)
        s = result.stats
        assert s.windows_evaluated > 0
        assert s.restarts > 0
        assert s.runtime_seconds > 0

    def test_engine_stats_populated_at_large_windows(self):
        # The hybrid scorer routes windows below its size cutoff to the
        # batch path; engine counters only move once windows exceed it.
        x, y = _planted_pair(n=900, start=200, m=400, delay=3)
        cfg = _config(s_min=120, s_max=400, td_max=4, significance_permutations=0)
        result = tycos_lmn(cfg).search(x, y)
        assert result.stats.mi_full_searches > 0

    def test_noise_variant_prunes(self):
        x, y = _planted_pair()
        ln = tycos_ln(_config()).search(x, y)
        l_plain = tycos_l(_config()).search(x, y)
        # Noise theory must reduce the evaluation count.
        assert ln.stats.windows_evaluated < l_plain.stats.windows_evaluated

    def test_delay_range(self):
        x, y = _planted_pair()
        result = tycos_lmn(_config()).search(x, y)
        lo, hi = result.delay_range()
        assert lo <= hi
        assert all(lo <= d <= hi for d in result.delays())

    def test_empty_delay_range_is_none(self):
        from repro.core.tycos import TycosResult

        assert TycosResult().delay_range() is None


class TestTopK:
    def test_topk_returns_k_best(self):
        x, y = _planted_pair()
        cfg = _config(significance_permutations=0)
        result = tycos_lmn(cfg).search_topk(x, y, k_top=3)
        assert 0 < len(result.windows) <= 3
        values = [r.nmi for r in result.windows]
        assert values == sorted(values, reverse=True)

    def test_topk_windows_are_strongest(self):
        x, y = _planted_pair()
        cfg = _config(significance_permutations=0)
        topk = tycos_lmn(cfg).search_topk(x, y, k_top=2)
        # The strongest windows must come from the planted region.
        best = topk.windows[0].window
        assert 180 <= best.start <= 330


class TestSignificanceGate:
    def test_gate_reduces_false_positives(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 400)
        y = rng.uniform(0, 1, 400)
        loose = tycos_l(_config(sigma=0.28, significance_permutations=0)).search(x, y)
        gated = tycos_l(_config(sigma=0.28, significance_permutations=25)).search(x, y)
        assert len(gated.windows) <= len(loose.windows)
