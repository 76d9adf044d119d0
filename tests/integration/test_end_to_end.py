"""Cross-module integration tests: the full pipeline on realistic data."""

import numpy as np

from repro import (
    Tycos,
    TycosConfig,
    brute_force_search,
    tycos_l,
    tycos_lmn,
)
from repro.baselines.amic import amic_search
from repro.core.results import merge_overlapping
from repro.data.composer import standard_pair
from repro.data.energy import simulate_energy
from repro.experiments.similarity import detects, window_set_similarity
from tests.helpers import overlap_fraction


class TestComposedPipeline:
    def test_full_search_on_composed_relations(self):
        rng = np.random.default_rng(7)
        pair = standard_pair(
            rng, segment_length=100, delay=20, names=["independent", "linear", "quadratic"]
        )
        cfg = TycosConfig(
            sigma=0.45,
            s_min=16,
            s_max=200,
            td_max=26,
            init_delay_step=1,
            significance_permutations=15,
            seed=0,
        )
        result = tycos_lmn(cfg).search(pair.x, pair.y)
        found = [r.window for r in result.windows]
        for planted in pair.planted:
            hit = detects(found, planted.window)
            assert hit == planted.dependent, planted.name

    def test_heuristic_tracks_brute_force(self):
        rng = np.random.default_rng(2)
        pair = standard_pair(rng, segment_length=60, delay=3, names=["linear", "sine"], gap=40)
        cfg = TycosConfig(
            sigma=0.4, s_min=16, s_max=48, td_max=5, init_delay_step=1, seed=0
        )
        exact = brute_force_search(pair.x, pair.y, cfg, aggregate=True)
        heuristic = tycos_l(cfg).search(pair.x, pair.y)
        similarity = window_set_similarity(
            merge_overlapping([r.window for r in heuristic.windows]),
            [r.window for r in exact.windows],
        )
        assert similarity >= 0.5

    def test_topk_agrees_with_fixed_sigma_peaks(self):
        rng = np.random.default_rng(4)
        pair = standard_pair(rng, segment_length=80, delay=0, names=["linear", "sine"])
        cfg = TycosConfig(
            sigma=0.4, s_min=16, s_max=120, td_max=4, init_delay_step=1, seed=0
        )
        fixed = tycos_lmn(cfg).search(pair.x, pair.y)
        topk = tycos_lmn(cfg).search_topk(pair.x, pair.y, k_top=3)
        assert topk.windows
        # Each top-K window lies in a region the fixed search also flagged.
        fixed_windows = [r.window for r in fixed.windows]
        for r in topk.windows:
            assert any(overlap_fraction(r.window, w) > 0 for w in fixed_windows)


class TestSimulatedRealData:
    def test_energy_pipeline_tycos_vs_amic(self):
        data = simulate_energy(days=3, seed=0, minutes_per_sample=4, event_density=2.0)
        x, y = data.pair("clothes_washer", "dryer")
        cfg = TycosConfig(
            sigma=0.3,
            s_min=20,
            s_max=180,
            td_max=10,
            jitter=1e-3,
            significance_permutations=10,
            seed=0,
        )
        tycos_result = tycos_lmn(cfg).search(x, y)
        amic_result = amic_search(x, y, cfg.scaled(td_max=0))
        assert len(tycos_result.windows) > 0
        # The washer-dryer lag is 10-30 minutes: TYCOS's delays must skew
        # positive, and AMIC (delay-blind) must find less than TYCOS.
        delays = tycos_result.delays()
        assert max(delays) > 0
        assert len(amic_result.windows) <= len(tycos_result.windows)

    def test_variant_equivalence_on_strong_signal(self):
        # All four variants must agree on where the strongest correlation
        # is, even if they fragment it differently.
        data = simulate_energy(days=2, seed=1, minutes_per_sample=4, event_density=2.0)
        x, y = data.pair("clothes_washer", "dryer")
        cfg = TycosConfig(
            sigma=0.35, s_min=20, s_max=120, td_max=10, jitter=1e-3, seed=0
        )
        spans = []
        for noise in (False, True):
            for incremental in (False, True):
                res = Tycos(cfg, use_noise=noise, use_incremental=incremental).search(x, y)
                merged = merge_overlapping([r.window for r in res.windows])
                assert merged, (noise, incremental)
                biggest = max(merged, key=lambda w: w.size)
                spans.append(biggest)
        anchor = spans[0]
        for other in spans[1:]:
            assert overlap_fraction(anchor, other) > 0 or abs(anchor.start - other.start) < 200
