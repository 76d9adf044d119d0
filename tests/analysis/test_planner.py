"""Tests for the execution planner.

The contracts under test: a plan is one of exactly three shapes --
``plain``, ``segments=K``, ``coarse=F`` -- and composed shapes are
rejected; plans pickle and their spec round-trips through
``parse_plan_spec``; ``Tycos.search`` is the plain plan, byte for byte;
``auto_plan`` picks the documented shape at each workload boundary; and
the per-stage provenance (canonical phase names, plan spec, report
metadata) is recorded.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.pairwise import resolve_plan, scan_pairs
from repro.analysis.planner import (
    Phase,
    SearchPlan,
    auto_plan,
    execute_plan,
    explain_plan,
    ordered_phases,
    parse_plan_spec,
)
from repro.core.config import TycosConfig
from repro.core.tycos import Tycos, tycos_lmn


def _ar1(rng, n, phi=0.9):
    """A smooth AR(1) series: the structure PAA aggregation preserves."""
    shocks = rng.normal(size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + shocks[i]
        out[i] = acc
    return out


def _episode_pair(n=6000, seed=11, episodes=((900, 300, 5), (3100, 280, -7), (5000, 320, -3))):
    """Independent AR(1) pair with planted delayed-copy episodes."""
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


ALL_SHAPES = [
    SearchPlan(),
    SearchPlan(segments=4),
    SearchPlan(coarse=8),
    SearchPlan(coarse=8, reason="picked by auto_plan"),
]


# --------------------------------------------------------------------- #
# Grammar: the three shapes of the record


class TestPlanGrammar:
    def test_specs_cover_the_three_shapes(self):
        assert SearchPlan().spec() == "plain"
        assert SearchPlan(segments=4).spec() == "segments=4"
        assert SearchPlan(coarse=8).spec() == "coarse=8"
        # A count of 1 is the plain search, whichever field carries it.
        assert SearchPlan(segments=1, coarse=1).spec() == "plain"
        assert SearchPlan(segments=1, coarse=8).spec() == "coarse=8"

    def test_stage_parameter_validation(self):
        with pytest.raises(ValueError, match="segments"):
            SearchPlan(segments=0)
        with pytest.raises(ValueError, match="coarse"):
            SearchPlan(coarse=0)

    def test_rejects_composed_shapes(self):
        with pytest.raises(ValueError, match="at most one"):
            SearchPlan(segments=2, coarse=8)
        with pytest.raises(ValueError, match="at most one"):
            parse_plan_spec("segments=2,coarse=8")
        with pytest.raises(ValueError, match="at most one"):
            parse_plan_spec("coarse=8,segments=2")


class TestSerialization:
    @pytest.mark.parametrize("plan", ALL_SHAPES, ids=lambda p: p.spec())
    def test_pickle_round_trip(self, plan):
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.spec() == plan.spec()


# --------------------------------------------------------------------- #
# Spec parsing


class TestParsePlanSpec:
    @pytest.mark.parametrize("spec", ["plain", "segments=4", "coarse=8"])
    def test_spec_round_trips(self, spec):
        assert parse_plan_spec(spec).spec() == spec

    def test_empty_and_whitespace_mean_plain(self):
        assert parse_plan_spec("").spec() == "plain"
        assert parse_plan_spec("  Plain  ").spec() == "plain"

    def test_rejects_unknown_and_duplicate_tokens(self):
        with pytest.raises(ValueError, match="unknown plan token"):
            parse_plan_spec("warp=2")
        with pytest.raises(ValueError, match="bad plan token"):
            parse_plan_spec("segments=two")
        with pytest.raises(ValueError, match="duplicate segments"):
            parse_plan_spec("segments=2,segments=3")
        with pytest.raises(ValueError, match="duplicate coarse"):
            parse_plan_spec("coarse=2,coarse=4")

    def test_resolve_plan_surfaces(self):
        cfg = _config()
        assert resolve_plan(None, cfg, 6000, 3, 1) is None
        assert resolve_plan("segments=2", cfg, 6000, 3, 1).spec() == "segments=2"
        already = SearchPlan(segments=2)
        assert resolve_plan(already, cfg, 6000, 3, 1) is already
        assert resolve_plan("auto", cfg, 6000, 3, 1).spec() == "coarse=8"


# --------------------------------------------------------------------- #
# Tycos.search is the plain plan


class TestWrapperEquivalence:
    def test_plain_search_equals_plain_plan(self):
        rng = np.random.default_rng(2)
        x, y = rng.uniform(0, 1, 900), rng.uniform(0, 1, 900)
        seg = rng.uniform(0, 1, 80)
        x[200:280] = seg
        y[204:284] = seg + 0.01 * rng.normal(size=80)
        cfg = _config(sigma=0.3, s_min=8, s_max=60, td_max=6)
        searched = Tycos(cfg).search(x, y)
        planned = execute_plan(x, y, engine=tycos_lmn(cfg), plan=SearchPlan())
        assert _signature(planned) == _signature(searched)
        assert planned.stats.windows_evaluated == searched.stats.windows_evaluated
        assert planned.stats.plan == searched.stats.plan == "plain"


# --------------------------------------------------------------------- #
# Auto-selection


class TestAutoPlan:
    def test_short_series_gets_plain(self):
        plan = auto_plan(300, 10, 8, _config())
        assert plan.spec() == "plain"
        assert "no viable" in plan.reason

    def test_long_series_one_core_gets_coarse(self):
        plan = auto_plan(6000, 10, 1, _config())
        assert plan.spec() == "coarse=8"
        assert "viable 1/8 coarse level" in plan.reason

    def test_spare_cores_get_coarse(self):
        # Fewer pairs than cores does not shard the timeline.
        assert auto_plan(6000, 2, 4, _config()).spec() == "coarse=8"
        assert auto_plan(60000, 1, 32, _config()).spec() == "coarse=8"

    def test_saturated_pool_stays_coarse(self):
        assert auto_plan(6000, 16, 4, _config()).spec() == "coarse=8"


# --------------------------------------------------------------------- #
# Provenance: phases, metadata, explain


class TestProvenance:
    def test_phase_names_are_canonical(self):
        x, y = _episode_pair()
        cfg = _config()
        known = {phase.value for phase in Phase}
        coarse = execute_plan(x, y, cfg, plan=SearchPlan(coarse=8))
        assert set(coarse.stats.phase_seconds) <= known
        assert Phase.COARSE.value in coarse.stats.phase_seconds
        assert Phase.REFINE.value in coarse.stats.phase_seconds
        segmented = execute_plan(x, y, cfg, plan=SearchPlan(segments=2))
        assert set(segmented.stats.phase_seconds) <= known
        assert Phase.STITCH.value in segmented.stats.phase_seconds

    def test_ordered_phases_sorts_known_then_unknown(self):
        timings = {
            "stitch": 1.0,
            "lahc": 2.0,
            "coarse": 3.0,
            "zz_custom": 4.0,
            "aa_custom": 5.0,
        }
        assert ordered_phases(timings) == [
            "coarse", "lahc", "stitch", "aa_custom", "zz_custom",
        ]

    def test_scan_pairs_records_plan_metadata(self):
        rng = np.random.default_rng(7)
        n = 600
        base = rng.uniform(0, 1, n)
        series = {
            "a": base,
            "b": np.roll(base, 3) + 0.01 * rng.normal(size=n),
            "c": rng.uniform(0, 1, n),
        }
        cfg = _config(sigma=0.3, s_min=8, s_max=60, td_max=6)
        baseline = scan_pairs(series, cfg)
        assert baseline.metadata == {}
        planned = scan_pairs(series, cfg, plan="segments=2")
        assert planned.metadata == {"plan": "segments=2"}
        assert [(f.source, f.target) for f in planned.findings if f.windows] == [
            (f.source, f.target) for f in baseline.findings if f.windows
        ]

    def test_explain_plan_renders_stages(self):
        cfg = _config()
        text = explain_plan(SearchPlan(coarse=8, reason="long series"), cfg)
        assert "plan: coarse=8" in text
        assert "1/8 resolution" in text
        assert f"margin {cfg.refinement_margin()} samples" in text
        assert "reason: long series" in text
        text = explain_plan(SearchPlan(segments=4), cfg)
        assert "plan: segments=4" in text
        assert "shard the timeline into 4 spans" in text
        assert f"overlapping by {cfg.segment_overlap()} samples" in text
        assert "reason" not in text


# --------------------------------------------------------------------- #
# CLI surfaces


class TestCliExplainPlan:
    def _write_csv(self, tmp_path, n=480):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, n)
        b = np.roll(a, 2) + 0.01 * rng.normal(size=n)
        path = tmp_path / "pair.csv"
        rows = ["a,b"] + [f"{a[i]:.6f},{b[i]:.6f}" for i in range(n)]
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_tycos_search_explain_plan(self, tmp_path, capsys):
        from repro.analysis.csvio import main

        csv_path = self._write_csv(tmp_path)
        code = main([csv_path, "--x", "a", "--y", "b", "--plan", "segments=2", "--explain-plan"])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan: segments=2" in out
        assert "scan: LAHC restart loop" in out

    def test_tycos_search_explain_defaults_to_config_plan(self, tmp_path, capsys):
        from repro.analysis.csvio import main

        csv_path = self._write_csv(tmp_path)
        code = main([csv_path, "--x", "a", "--y", "b", "--explain-plan"])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan: plain" in out

    def test_tycos_scan_explain_plan(self, tmp_path, capsys):
        from repro.analysis.cascade import main

        csv_path = self._write_csv(tmp_path)
        code = main([csv_path, "--plan", "coarse=8", "--explain-plan"])
        out = capsys.readouterr().out
        assert code == 0
        assert "plan: coarse=8" in out
        assert "rescore: refine surviving coarse cells" in out

    def test_tycos_search_runs_explicit_plan(self, tmp_path, capsys):
        from repro.analysis.csvio import main

        csv_path = self._write_csv(tmp_path)
        code = main(
            [csv_path, "--x", "a", "--y", "b", "--s-min", "8", "--s-max", "60",
             "--td-max", "6", "--sigma", "0.3", "--plan", "segments=2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "correlated windows" in out
