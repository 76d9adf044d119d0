"""Tests for the ``coarse=F`` plan: coarse-to-fine multiscale search.

The contract under test: ``coarse=1`` reproduces the plain search
byte-exactly; with a real factor on the seeded long-episode workload the
search recovers 100% of the plain search's findings at bit-identical
scores while evaluating fewer full-resolution windows; and the stats
ledger (coarse evaluations, refined cells, pruned tiles, phase walls)
accounts for both stages.
"""

import numpy as np
import pytest

from repro.analysis.planner import SearchPlan, _cell_scan_hook, execute_plan
from repro.core.config import TycosConfig
from repro.core.pyramid import RefinementCell
from repro.core.tycos import Tycos, tycos_lm, tycos_lmn


def _ar1(rng, n, phi=0.9):
    """A smooth AR(1) series: the structure PAA aggregation preserves."""
    shocks = rng.normal(size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + shocks[i]
        out[i] = acc
    return out


def _episode_pair(n=8000, seed=11, episodes=((1200, 300, 5), (4200, 280, -7), (6800, 320, -3))):
    """Independent AR(1) pair with planted delayed-copy episodes.

    Long smooth episodes a coarse level can locate, quiet stretches it
    can prune: the regime the ``coarse=F`` plan exists for.  At these
    defaults, the LM variant at factor 8 cuts full-resolution evaluations
    4.48x and LMN 1.57x.
    """
    rng = np.random.default_rng(seed)
    x = _ar1(rng, n)
    y = _ar1(rng, n)
    for start, length, delay in episodes:
        y[start + delay : start + delay + length] = (
            x[start : start + length] + 0.2 * rng.normal(size=length)
        )
    return x, y


def _config(**kwargs):
    defaults = dict(
        sigma=0.75,
        s_min=32,
        s_max=96,
        td_max=8,
        jitter=1e-6,
        seed=3,
        init_delay_step=1,
        coarse_sigma_ratio=0.85,
    )
    defaults.update(kwargs)
    return TycosConfig(**defaults)


def _signature(result):
    return [(r.window.key(), r.mi, r.nmi) for r in result.windows]


def _coarse(x, y, engine, factor):
    return execute_plan(x, y, engine=engine, plan=SearchPlan(coarse=factor))


class TestFactorOneBypass:
    def test_factor_one_reproduces_plain_search_byte_exactly(self):
        rng = np.random.default_rng(2)
        n = 700
        x, y = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        seg = rng.uniform(0, 1, 80)
        x[200:280] = seg
        y[204:284] = seg + 0.01 * rng.normal(size=80)
        cfg = _config(sigma=0.3, s_min=8, s_max=60, td_max=6, significance_permutations=5)
        engine = tycos_lmn(cfg)
        plain = engine.search(x, y)
        direct = _coarse(x, y, engine, 1)
        assert _signature(direct) == _signature(plain)
        assert direct.stats.windows_evaluated == plain.stats.windows_evaluated
        assert direct.stats.coarse_windows_evaluated == 0


class TestRecallParity:
    """The headline guarantee on the long-episode workload: every plain
    finding is recovered with bit-identical scores, at every factor."""

    @pytest.fixture(scope="class")
    def pair(self):
        return _episode_pair()

    @pytest.fixture(scope="class")
    def plain(self, pair):
        return tycos_lmn(_config()).search(*pair)

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_default_margin_recovers_every_plain_window(self, pair, plain, factor):
        engine = tycos_lmn(_config())
        ms = _coarse(*pair, engine, factor)
        plain_scores = {r.window.key(): (r.mi, r.nmi) for r in plain.windows}
        ms_scores = {r.window.key(): (r.mi, r.nmi) for r in ms.windows}
        missing = sorted(set(plain_scores) - set(ms_scores))
        assert not missing, f"factor {factor} lost plain findings: {missing}"
        for key, scores in plain_scores.items():
            assert ms_scores[key] == scores  # bit-identical, not approx
        ratio = plain.stats.full_windows_evaluated / max(
            1, ms.stats.full_windows_evaluated
        )
        print(
            f"\nfactor={factor}: {plain.stats.full_windows_evaluated} -> "
            f"{ms.stats.full_windows_evaluated} full-resolution evaluations "
            f"({ratio:.2f}x), {ms.stats.cells_pruned} tiles pruned"
        )

    def test_factor_8_actually_prunes(self, pair, plain):
        ms = _coarse(*pair, tycos_lmn(_config()), 8)
        assert ms.stats.cells_pruned > 0
        assert ms.stats.full_windows_evaluated * 1.2 <= plain.stats.full_windows_evaluated

    @pytest.fixture(scope="class")
    def plain_lm(self, pair):
        return tycos_lm(_config()).search(*pair)

    def test_lm_variant_parity_and_pruning(self, pair, plain_lm):
        """The plain-seeded variant carries the structural parity argument
        (quiet-region restarts advance by exactly s_min) and the largest
        pruning upside (no noise theory to skip quiet stretches)."""
        plain = plain_lm
        ms = _coarse(*pair, tycos_lm(_config()), 8)
        assert {r.window.key() for r in plain.windows} == {
            r.window.key() for r in ms.windows
        }
        assert {(r.mi, r.nmi) for r in plain.windows} == {
            (r.mi, r.nmi) for r in ms.windows
        }
        ratio = plain.stats.full_windows_evaluated / max(
            1, ms.stats.full_windows_evaluated
        )
        print(f"\nLM factor=8 full-evaluation ratio: {ratio:.2f}x")
        assert ratio >= 2.0

    @pytest.mark.parametrize("factor", [2, 4])
    def test_lm_variant_parity_at_smaller_factors(self, pair, plain_lm, factor):
        ms = _coarse(*pair, tycos_lm(_config()), factor)
        assert _signature(ms) == _signature(plain_lm)


class TestStatsLedger:
    def test_ledger_accounts_for_both_stages(self):
        x, y = _episode_pair(n=3000, episodes=((800, 250, 5), (2100, 240, -3)))
        ms = _coarse(x, y, tycos_lmn(_config()), 8)
        s = ms.stats
        assert s.coarse_windows_evaluated > 0
        assert s.refined_cells >= 1
        assert s.full_windows_evaluated > 0
        assert s.windows_evaluated == s.full_windows_evaluated + s.coarse_windows_evaluated
        assert "coarse" in s.phase_seconds and "refine" in s.phase_seconds
        assert all(v >= 0.0 for v in s.phase_seconds.values())

    def test_short_series_falls_back_to_exhaustive(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=60), rng.normal(size=60)
        cfg = _config(sigma=0.3, s_min=8, s_max=40, td_max=4)
        plain = Tycos(cfg, use_noise=False).search(x, y)
        ms = _coarse(x, y, Tycos(cfg, use_noise=False), 8)
        assert _signature(ms) == _signature(plain)
        assert ms.stats.coarse_windows_evaluated == 0

    def test_validation(self):
        x = np.zeros(100)
        with pytest.raises(ValueError, match="coarse"):
            SearchPlan(coarse=0)
        with pytest.raises(ValueError, match="refine_margin"):
            _config(refine_margin=-1)
        with pytest.raises(ValueError, match="config or an engine"):
            execute_plan(x, x, plan=SearchPlan(coarse=2))


class TestScanHook:
    """The restart filter: phase-preserving jumps over pruned gaps."""

    def test_positions_inside_a_cell_pass_through(self):
        hook = _cell_scan_hook([RefinementCell(100, 300, -2, 2)], s_min=16)
        assert hook(150) == 150

    def test_gap_jump_preserves_scan_phase(self):
        hook = _cell_scan_hook([RefinementCell(500, 900, -2, 2)], s_min=16)
        for scan_from in (0, 3, 16, 77):
            landed = hook(scan_from)
            assert landed >= 500
            assert landed % 16 == scan_from % 16  # exhaustive search's stride
            assert landed - 16 < 500  # first in-cell stride position

    def test_scan_past_last_cell_ends(self):
        hook = _cell_scan_hook([RefinementCell(100, 300, -2, 2)], s_min=16)
        assert hook(300) is None
        assert hook(1000) is None

    def test_tiny_cell_overshoot_continues_to_next_cell(self):
        cells = [RefinementCell(100, 104, 0, 0), RefinementCell(400, 600, 0, 0)]
        hook = _cell_scan_hook(cells, s_min=64)
        landed = hook(48)
        assert landed >= 400 and landed % 64 == 48

    def test_no_cells_means_no_scan(self):
        hook = _cell_scan_hook([], s_min=16)
        assert hook(0) is None
