"""Tests for the process-pool pairwise scan.

The contract under test: for any worker count and transport,
``scan_pairs(..., n_jobs=N)`` returns a report byte-identical to the
serial scan -- findings and failures, each in submission order -- and
one poisoned pair never aborts the scan.
"""

import numpy as np
import pytest

from repro.analysis.pairwise import PairFailure, scan_pairs
from repro.analysis.parallel import resolve_n_jobs
from repro.core.config import TycosConfig


def _config(**kwargs):
    defaults = dict(sigma=0.3, s_min=8, s_max=40, td_max=6, jitter=1e-6, seed=1)
    defaults.update(kwargs)
    return TycosConfig(**defaults)


def _snapshot(report):
    return (report.findings, report.skipped, report.failures)


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(77)
    n = 240
    base = np.cumsum(rng.normal(size=n))
    return {
        "a": base + rng.normal(scale=0.1, size=n),
        "b": np.roll(base, 4) + rng.normal(scale=0.1, size=n),
        "c": rng.normal(size=n),
        "d": rng.normal(size=n),
    }


@pytest.fixture(scope="module")
def serial_report(collection):
    return scan_pairs(collection, _config())


class TestParallelDeterminism:
    def test_two_workers_match_serial(self, collection, serial_report):
        # 6 pairs over 2 workers: four chunks per worker rounds up to
        # one pair per chunk.
        parallel = scan_pairs(collection, _config(), n_jobs=2, force_parallel=True)
        assert _snapshot(parallel) == _snapshot(serial_report)

    def test_pickle_transport_matches_serial(self, collection, serial_report, monkeypatch):
        """Without a shared block (no /dev/shm), series are pickled instead."""
        import repro.analysis.parallel as parallel_mod

        calls = []

        def no_shared_memory(series):
            calls.append(list(series))
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(parallel_mod, "pack_series", no_shared_memory)
        parallel = scan_pairs(collection, _config(), n_jobs=2, force_parallel=True)
        assert calls == [list(collection)]
        assert _snapshot(parallel) == _snapshot(serial_report)

    def test_explicit_pair_order_is_preserved(self, collection):
        pairs = [("d", "c"), ("a", "b"), ("b", "c")]
        serial = scan_pairs(collection, _config(), pairs=pairs)
        parallel = scan_pairs(collection, _config(), pairs=pairs, n_jobs=2)
        assert [(f.source, f.target) for f in serial.findings] == pairs
        assert _snapshot(parallel) == _snapshot(serial)


class TestFailureContainment:
    @pytest.fixture(scope="class")
    def poisoned(self):
        rng = np.random.default_rng(5)
        n = 240
        base = np.cumsum(rng.normal(size=n))
        return {
            "good": base + rng.normal(scale=0.1, size=n),
            "alsogood": np.roll(base, 3) + rng.normal(scale=0.1, size=n),
            "bad": np.full(n, np.nan),
        }

    def test_serial_scan_survives_a_poisoned_pair(self, poisoned):
        report = scan_pairs(poisoned, _config())
        assert len(report.findings) == 1  # (good, alsogood)
        assert len(report.failures) == 2  # every pair touching "bad"
        assert all(isinstance(f, PairFailure) for f in report.failures)
        assert all("finite" in f.error for f in report.failures)

    def test_parallel_failures_match_serial(self, poisoned):
        serial = scan_pairs(poisoned, _config())
        parallel = scan_pairs(poisoned, _config(), n_jobs=2)
        assert _snapshot(parallel) == _snapshot(serial)

    def test_failures_are_reported_in_text(self, poisoned):
        report = scan_pairs(poisoned, _config())
        assert "2 pairs failed" in report.to_text()

    def test_unknown_names_still_raise_upfront(self, poisoned):
        with pytest.raises(KeyError, match="unknown series"):
            scan_pairs(poisoned, _config(), pairs=[("good", "zz")], n_jobs=2)


class TestNJobsHandling:
    def test_resolve_all_cores(self):
        import os

        assert resolve_n_jobs(-1) == max(1, os.cpu_count() or 1)

    def test_resolve_rejects_zero_and_negatives(self):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(0)
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(-2)

    def test_n_jobs_one_is_the_serial_path(self, collection, serial_report):
        report = scan_pairs(collection, _config(), n_jobs=1)
        assert _snapshot(report) == _snapshot(serial_report)

    def test_empty_pair_list(self, collection):
        report = scan_pairs(collection, _config(), pairs=[], n_jobs=2)
        assert report.findings == [] and report.skipped == [] and report.failures == []

    def test_mismatched_lengths_rejected(self):
        series = {"a": np.zeros(100), "b": np.zeros(99)}
        with pytest.raises(ValueError, match="share a length"):
            scan_pairs(series, _config(), n_jobs=2)

    def test_workers_clamped_to_pair_count(self, collection, monkeypatch):
        """Asking for more workers than pairs must not spawn idle workers."""
        import repro.analysis.parallel as parallel_mod

        recorded = []
        real_executor = parallel_mod.ProcessPoolExecutor

        class RecordingExecutor(real_executor):  # type: ignore[valid-type, misc]
            def __init__(self, *args, **kwargs):
                recorded.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", RecordingExecutor)
        pairs = [("a", "b"), ("c", "d")]
        report = scan_pairs(collection, _config(), pairs=pairs, n_jobs=6, force_parallel=True)
        assert recorded == [2]
        serial = scan_pairs(collection, _config(), pairs=pairs)
        assert _snapshot(report) == _snapshot(serial)

    def test_single_pair_with_many_workers_runs_serially(self, collection, monkeypatch):
        """One pair clamps to one worker, which is the in-process serial path."""
        import repro.analysis.parallel as parallel_mod

        def fail(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("a process pool was spawned for a single pair")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", fail)
        pairs = [("a", "b")]
        report = scan_pairs(collection, _config(), pairs=pairs, n_jobs=4)
        serial = scan_pairs(collection, _config(), pairs=pairs)
        assert _snapshot(report) == _snapshot(serial)


class TestOneCoreSerialFallback:
    """On a 1-core host a pool only adds dispatch overhead, so parallel
    requests are served serially -- loudly (a logged warning plus a report
    note), identically (same findings), and overridably (force_parallel)."""

    def _one_core(self, monkeypatch):
        import repro.analysis.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 1)

    def test_effective_workers_falls_back_on_one_core(self, monkeypatch):
        from repro.analysis.parallel import effective_workers

        self._one_core(monkeypatch)
        assert effective_workers(4, 10) == (1, True)

    def test_effective_workers_single_task_is_not_a_fallback(self, monkeypatch):
        """Clamping to one task is ordinary sizing, not the 1-core fallback."""
        from repro.analysis.parallel import effective_workers

        self._one_core(monkeypatch)
        assert effective_workers(4, 1) == (1, False)

    def test_force_parallel_overrides_one_core(self, monkeypatch):
        from repro.analysis.parallel import effective_workers

        self._one_core(monkeypatch)
        assert effective_workers(4, 10, force_parallel=True) == (4, False)

    def test_fallback_scan_matches_serial_and_is_noted(
        self, collection, serial_report, monkeypatch, caplog
    ):
        self._one_core(monkeypatch)
        with caplog.at_level("WARNING", logger="repro.analysis.parallel"):
            report = scan_pairs(collection, _config(), n_jobs=2)
        assert _snapshot(report) == _snapshot(serial_report)
        assert any("1-core host" in note for note in report.notes)
        assert "(note:" in report.to_text()
        assert any("1-core host" in rec.message for rec in caplog.records)
