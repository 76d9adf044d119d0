"""Tests for the all-pairs prescreen cascade.

The contract under test -- the cascade's recall gate: a
cascade scan's surviving findings are byte-identical to the unscreened
``scan_pairs`` reference, every truly correlated pair survives the
screens on the tracked workload, the per-stage counters account for
every screened pair, and ``screen_margin=inf`` turns the cascade into
the plain scan exactly.
"""

import warnings

import numpy as np
import pytest

import repro.analysis.cascade as cascade_mod
from repro.analysis.cascade import cascade_scan, coarse_nmi_score, fft_screen_score, main
from repro.analysis.pairwise import scan_pairs
from repro.analysis.planner import SearchPlan
from repro.analysis.store import DATA_FILENAME, MANIFEST_FILENAME, SeriesStore
from repro.core.config import TycosConfig
from repro.core.tycos import tycos_lmn


def _config(**kwargs):
    # sigma=0.5 / s_min=24 / 10 permutations keep finite-sample KSG noise
    # below sigma on the white-noise pairs, so the unscreened reference's
    # correlated set is the planted couplings, not estimator flukes --
    # the precondition for asserting that pruned pairs lose nothing.
    defaults = dict(
        sigma=0.5, s_min=24, s_max=48, td_max=6, jitter=1e-6, seed=1,
        significance_permutations=10,
    )
    defaults.update(kwargs)
    return TycosConfig(**defaults)


def _snapshot(report):
    return (report.findings, report.skipped, report.failures)


def _ledger(report):
    return (
        report.pairs_screened,
        report.pairs_pruned_fft,
        report.pairs_pruned_nmi,
        report.pairs_searched,
    )


@pytest.fixture(scope="module")
def collection():
    """The tracked 8-series workload: 4 coupled, 4 independent noise."""
    rng = np.random.default_rng(77)
    n = 240
    base = np.cumsum(rng.normal(size=n))
    series = {}
    for i in range(4):
        series[f"coupled{i}"] = np.roll(base, i * 3) + rng.normal(scale=0.15, size=n)
    for i in range(4):
        series[f"noise{i}"] = rng.normal(size=n)
    return series


@pytest.fixture(scope="module")
def unscreened(collection):
    return scan_pairs(collection, _config())


class TestRecallParity:
    def test_surviving_findings_byte_identical(self, collection, unscreened):
        report = cascade_scan(collection, _config(), screen_window=120)
        reference = {(f.source, f.target): f for f in unscreened.findings}
        assert report.findings  # the screens must not flatten the workload
        for finding in report.findings:
            assert finding == reference[(finding.source, finding.target)]

    def test_correlated_pairs_survive(self, collection, unscreened):
        report = cascade_scan(collection, _config(), screen_window=120)
        surviving = {(f.source, f.target) for f in report.findings}
        for finding in unscreened.correlated():
            assert (finding.source, finding.target) in surviving

    def test_margin_inf_is_byte_equal_to_plain_scan(self, collection, unscreened):
        report = cascade_scan(collection, _config(), screen_margin=float("inf"))
        assert _snapshot(report) == _snapshot(unscreened)
        assert report.pairs_searched == report.pairs_screened
        assert report.pairs_pruned_fft == 0
        assert report.pairs_pruned_nmi == 0

    def test_noise_pairs_are_pruned(self, collection):
        report = cascade_scan(collection, _config(), screen_window=120)
        # 22 of the 28 pairs are pruned before any KSG estimate.
        assert report.pairs_pruned_fft >= 0.70 * report.pairs_screened
        pruned = set(report.skipped)
        assert ("noise0", "noise1") in pruned


def _ar1(rng, n, phi=0.9):
    """A smooth AR(1) series: the structure PAA aggregation preserves."""
    shocks = rng.normal(size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + shocks[i]
        out[i] = acc
    return out


class TestPlannedStage3:
    """Stage 3 refining every survivor through ``coarse=8`` keeps the
    correlated-pair set of the plain stage 3."""

    @pytest.fixture(scope="class")
    def episodic(self):
        # Three series share noisy copies of one AR(1) base walk's two
        # episodes, each at a small lag; five are white noise.  The FFT
        # screen catches the coupled pairs on their episodes, and the quiet
        # stretches between episodes are what the coarse pass prunes.
        rng = np.random.default_rng(2024)
        n = 4000
        base = _ar1(rng, n)
        series = {}
        for i in range(3):
            own = _ar1(rng, n)
            lag = (i * 2) % 6
            for start, length in ((500, 240), (2900, 260)):
                own[start + lag : start + lag + length] = (
                    base[start : start + length] + 0.2 * rng.normal(size=length)
                )
            series[f"coupled{i}"] = own
        for i in range(5):
            series[f"noise{i}"] = rng.normal(size=n)
        return series

    def test_coarse_plan_keeps_the_correlated_pairs(self, episodic):
        config = TycosConfig(
            sigma=0.75, s_min=32, s_max=96, td_max=8, jitter=1e-6, seed=3,
            init_delay_step=1, coarse_sigma_ratio=0.85,
        )
        reports = [
            cascade_scan(episodic, config, screen_window=256, engine=tycos_lmn(config), plan=plan)
            for plan in (None, SearchPlan(coarse=8))
        ]
        plain, planned = ([(f.source, f.target) for f in r.correlated()] for r in reports)
        assert plain
        assert planned == plain
        assert reports[0].metadata == {}
        assert reports[1].metadata == {"plan": "coarse=8"}
        for report in reports:
            assert report.pairs_screened == 28  # C(8, 2)
            assert report.pairs_pruned_fft > 0
            assert (
                report.pairs_pruned_fft + report.pairs_pruned_nmi + report.pairs_searched
                == report.pairs_screened
            )


class TestCounterAccounting:
    def test_counters_account_for_every_pair(self, collection):
        report = cascade_scan(collection, _config(), screen_window=120)
        assert report.pairs_screened == 28  # C(8, 2)
        assert (
            report.pairs_pruned_fft + report.pairs_pruned_nmi + report.pairs_searched
            == report.pairs_screened
        )
        assert report.pairs_searched == len(report.findings) + len(report.failures)
        assert len(report.skipped) == report.pairs_pruned_fft + report.pairs_pruned_nmi

    def test_plain_scan_leaves_counters_at_zero(self, unscreened):
        assert unscreened.pairs_screened == 0
        assert unscreened.pairs_searched == 0

    def test_ledger_rendered_in_report_text(self, collection):
        report = cascade_scan(collection, _config(), screen_window=120)
        text = report.to_text()
        assert f"{report.pairs_screened} pairs screened" in text
        assert f"{report.pairs_pruned_fft} pruned by the FFT screen" in text

    def test_pruned_pairs_are_not_credited_to_a_pre_filter(self, rng):
        # Four series, only a/b coupled: the screens prune the other pairs,
        # and the ledger line is the report's only account of them.
        n = 240
        base = np.cumsum(rng.normal(size=n))
        series = {
            "a": base + rng.normal(scale=0.1, size=n),
            "b": np.roll(base, 4) + rng.normal(scale=0.1, size=n),
            "c": rng.normal(size=n),
            "d": rng.normal(size=n),
        }
        report = cascade_scan(series, _config(), screen_window=120)
        assert len(report.skipped) == 5
        text = report.to_text()
        assert "pre-filter" not in text
        assert f"{report.pairs_pruned_fft} pruned by the FFT screen" in text

    def test_explicit_pairs_and_margin_zero(self, collection):
        pairs = [("noise0", "noise1"), ("coupled0", "coupled1")]
        report = cascade_scan(
            collection, _config(), pairs=pairs, screen_margin=0.0, screen_window=120
        )
        assert report.pairs_screened == 2
        assert report.skipped == [("noise0", "noise1")]
        assert [(f.source, f.target) for f in report.findings] == [("coupled0", "coupled1")]

    def test_rejects_negative_margin(self, collection):
        with pytest.raises(ValueError, match="screen_margin"):
            cascade_scan(collection, _config(), screen_margin=-0.1)

    def test_rejects_unknown_pair(self, collection):
        with pytest.raises(KeyError, match="zzz"):
            cascade_scan(collection, _config(), pairs=[("zzz", "noise0")])


class TestForcedPool:
    """``many_cores`` reports four cores, so ``n_jobs=2`` pools on any host."""

    def test_stage_3_runs_on_the_pool(self, collection, many_cores, pool_sizes):
        """``n_jobs`` reaches the stage-3 searches, not only stage 1."""
        series = {name: collection[name] for name in ("coupled0", "coupled1", "coupled2", "noise0")}
        serial = cascade_scan(series, _config(), screen_window=120)
        assert pool_sizes == []
        report = cascade_scan(series, _config(), screen_window=120, n_jobs=2)
        assert report.findings == serial.findings
        assert report.skipped == serial.skipped
        # The 6 pairs fit one screen block, so stage 1 runs in process and
        # the one pool is stage 3's.
        assert pool_sizes == [2]

    def test_store_backed_pooled_screen_matches_serial(
        self, collection, tmp_path, monkeypatch, many_cores, pool_sizes
    ):
        """Pool workers attached to a store build their screen states from
        its views: the report equals the serial in-memory cascade, and the
        scan leaves nothing in the store directory but the series."""
        serial = cascade_scan(collection, _config(), screen_window=120)
        store = SeriesStore.write(tmp_path / "store", collection)
        # Blocks of 3 split the 28 pairs into several stage-1 pool tasks.
        monkeypatch.setattr(cascade_mod, "_SCREEN_BLOCK", 3)
        pooled = cascade_scan(
            store.series(),
            _config(),
            screen_window=120,
            n_jobs=2,
            store_path=store.path,
        )
        # One pool for the stage-1 blocks, one for the stage-3 searches.
        assert pool_sizes == [2, 2]
        assert _snapshot(pooled) == _snapshot(serial)
        assert _ledger(pooled) == _ledger(serial)
        assert sorted(p.name for p in store.path.iterdir()) == [MANIFEST_FILENAME, DATA_FILENAME]


class TestTopK:
    def test_top_k_ranks_strongest_first(self, collection):
        report = cascade_scan(collection, _config(), screen_window=120)
        top = report.top(2)
        assert len(top) == 2
        assert top[0].best_nmi >= top[1].best_nmi
        assert top == report.correlated()[:2]

    def test_top_zero_is_empty(self, unscreened):
        assert unscreened.top(0) == []

    def test_top_rejects_negative(self, unscreened):
        with pytest.raises(ValueError, match=">= 0"):
            unscreened.top(-1)


class TestScreens:
    def test_coupled_pair_scores_high(self, collection):
        score = fft_screen_score(
            collection["coupled0"], collection["coupled1"], window=120, td_max=6
        )
        assert score > 0.9

    def test_noise_pair_scores_low(self, collection):
        score = fft_screen_score(
            collection["noise0"], collection["noise1"], window=120, td_max=6
        )
        assert score < 0.6

    def test_anticorrelated_pair_scores_high(self, rng):
        x = np.cumsum(rng.normal(size=300))
        score = fft_screen_score(x, -x + rng.normal(scale=0.05, size=300), 100, 0)
        assert score > 0.9

    def test_short_series_abstain(self, rng):
        # No window fits and no MASS probe runs: the screen must return
        # inf (pass), never a prunable 0.
        score = fft_screen_score(rng.normal(size=5), rng.normal(size=5), 50, 0)
        assert score == float("inf")

    def test_short_series_are_never_pruned(self, rng):
        series = {"a": rng.normal(size=6), "b": rng.normal(size=6)}
        config = _config(s_min=6, s_max=6, td_max=0)
        report = cascade_scan(series, config, screen_window=50)
        assert report.skipped == []
        assert report.pairs_searched == 1

    def test_non_finite_series_are_never_pruned(self):
        # A NaN or an inf must not read as a flat, prunable series: the
        # screens abstain, so the cascade reports exactly the unscreened
        # scan's failures, and no numpy warning escapes either scan.
        rng = np.random.default_rng(4)
        series = {f"w{i}": np.cumsum(rng.normal(size=300)) for i in range(5)}
        series["w1"][120] = np.nan
        series["w3"][40] = np.inf
        config = _config(significance_permutations=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = cascade_scan(series, config, screen_window=64)
            reference = scan_pairs(series, config)
        assert len(reference.failures) == 7
        assert report.failures == reference.failures
        assert not [pair for pair in report.skipped if {"w1", "w3"} & set(pair)]


def _probe_pair(plant, n=600, probe=128, td_max=4, seed=3):
    """A white-noise pair, coupled at lag 2 at one of the three probe positions.

    ``plant`` indexes the positions ``coarse_nmi_score`` probes (None
    plants nothing): the noise probes score at most about 0.05, a
    planted position about 0.8.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    if plant is not None:
        s = np.linspace(td_max, n - probe - td_max, 3).astype(int)[plant]
        y[s + 2 : s + 2 + probe] = x[s : s + probe] + rng.normal(scale=0.2, size=probe)
    return x, y


class TestCoarseNmiCut:
    """With a ``cut``, stage 2 stops at the first probe row that reaches it,
    and decides ``score < cut`` exactly as the full maximum does."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The row count of every stacked probe pass ``coarse_nmi_score`` makes."""
        calls = []
        real = cascade_mod.normalized_mi_many

        def counted(xs, ys, k=4):
            calls.append(len(xs))
            return real(xs, ys, k)

        monkeypatch.setattr(cascade_mod, "normalized_mi_many", counted)
        return calls

    @pytest.mark.parametrize("plant, rows", [(0, 1), (1, 2), (2, 3), (None, 3)])
    def test_verdict_matches_full_maximum(self, plant, rows, passes):
        x, y = _probe_pair(plant)
        full = coarse_nmi_score(x, y, td_max=4)
        assert passes == [9, 9, 9]  # one 2 * td_max + 1 row per position
        passes.clear()
        score = coarse_nmi_score(x, y, td_max=4, cut=0.3)
        assert (score < 0.3) == (full < 0.3) == (plant is None)
        assert passes == [9] * rows
        if plant is None:
            assert score.hex() == full.hex()  # a pruned pair scores every probe

    def test_cut_at_the_maximum_is_reached(self, passes):
        x, y = _probe_pair(None)
        full = coarse_nmi_score(x, y, td_max=4)
        assert coarse_nmi_score(x, y, td_max=4, cut=full) == full
        assert coarse_nmi_score(x, y, td_max=4, cut=np.nextafter(full, 1.0)) == full

    @pytest.mark.parametrize("cut", [float("inf"), 0.3, 0.0])
    def test_non_finite_probe_raises(self, cut):
        # The cascade's stage 2 turns the raise into an abstention (see
        # TestScreens::test_non_finite_series_are_never_pruned).
        x, y = _probe_pair(0)
        x[10] = np.nan  # inside the first position's probes
        with pytest.raises(ValueError, match="finite"):
            coarse_nmi_score(x, y, td_max=4, cut=cut)

    @pytest.mark.parametrize("cut", [float("inf"), 0.3])
    def test_too_short_lagged_series_abstain(self, cut):
        x, y = np.random.default_rng(5).normal(size=(2, 135))
        assert coarse_nmi_score(x, y, td_max=4, cut=cut) == float("inf")

    def test_cascade_passes_the_stage_2_cut(self, collection, monkeypatch):
        # Stage 1 passes every pair; each stage-2 verdict at the cut equals
        # the verdict of the full maximum, and both kinds occur.
        seen = []
        real = cascade_mod.coarse_nmi_score

        def spy(x, y, **kwargs):
            score = real(x, y, **kwargs)
            cut = kwargs["cut"]
            seen.append((cut, score < cut, real(x, y, td_max=kwargs["td_max"]) < cut))
            return score

        monkeypatch.setattr(cascade_mod, "coarse_nmi_score", spy)
        report = cascade_scan(
            collection, _config(significance_permutations=0), screen_threshold=0.0,
            nmi_threshold=0.3, screen_margin=0.25, screen_window=120,
        )
        assert len(seen) == report.pairs_screened == 28
        assert {cut for cut, _, _ in seen} == {0.3 - 0.25}
        assert all(pruned == reference for _, pruned, reference in seen)
        assert report.pairs_pruned_nmi == sum(pruned for _, pruned, _ in seen) > 0
        assert report.pairs_searched > 0


class TestContainment:
    def test_failed_state_build_abstains_serially(self, collection, monkeypatch):
        # A series whose screen state cannot be built makes the serial
        # stage 1 abstain (every pair scores inf and passes), as the pooled
        # path does, instead of failing the whole scan.
        import repro.analysis.screen_state as screen_state_mod

        real = screen_state_mod.build_screen_state
        poisoned = collection["noise0"]

        def build(values, geometry):
            if values is poisoned:
                raise RuntimeError("state build failed")
            return real(values, geometry)

        monkeypatch.setattr(screen_state_mod, "build_screen_state", build)
        report = cascade_scan(collection, _config(), screen_window=120)
        assert report.pairs_screened == 28
        assert report.pairs_pruned_fft == 0
        assert (
            report.pairs_pruned_fft + report.pairs_pruned_nmi + report.pairs_searched
            == report.pairs_screened
        )


class TestCli:
    @pytest.fixture
    def csv_file(self, tmp_path, rng):
        n = 240
        base = np.cumsum(rng.normal(size=n))
        columns = {
            "a": base + rng.normal(scale=0.1, size=n),
            "b": np.roll(base, 4) + rng.normal(scale=0.1, size=n),
            "c": rng.normal(size=n),
            "d": rng.normal(size=n),
        }
        path = tmp_path / "data.csv"
        with path.open("w") as handle:
            handle.write(",".join(columns) + "\n")
            for row in zip(*columns.values()):
                handle.write(",".join(f"{v:.6f}" for v in row) + "\n")
        return path

    _FAST = ["--s-min", "8", "--s-max", "40", "--td-max", "6",
             "--permutations", "0", "--screen-window", "120"]

    def test_screened_scan(self, csv_file, capsys):
        assert main([str(csv_file)] + self._FAST) == 0
        out = capsys.readouterr().out
        assert "pairs screened" in out
        assert "a -> b" in out

    def test_top_k_listing(self, csv_file, capsys):
        assert main([str(csv_file), "--top-k", "1"] + self._FAST) == 0
        out = capsys.readouterr().out
        assert "top 1 pairs:" in out

    def test_no_screen_mode(self, csv_file, capsys):
        assert main([str(csv_file), "--no-screen"] + self._FAST) == 0
        out = capsys.readouterr().out
        assert "pairs screened" not in out

    def test_store_pack_and_rescan(self, csv_file, tmp_path, capsys):
        store_dir = tmp_path / "packed.store"
        assert main([str(csv_file), "--store", str(store_dir)] + self._FAST) == 0
        first = capsys.readouterr().out
        # The packed store is itself a valid scan input.
        assert main([str(store_dir)] + self._FAST) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_store_flag_rejected_for_store_input(self, csv_file, tmp_path, capsys):
        store_dir = tmp_path / "packed.store"
        assert main([str(csv_file), "--store", str(store_dir)] + self._FAST) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([str(store_dir), "--store", str(tmp_path / "other")] + self._FAST)
