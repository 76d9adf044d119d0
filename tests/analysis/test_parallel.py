"""Tests for the process-pool pairwise scan.

The contract under test: for any worker count and transport,
``scan_pairs(..., n_jobs=N)`` returns a report byte-identical to the
serial scan -- findings and failures, each in submission order -- and
one poisoned pair never aborts the scan.
"""

import numpy as np
import pytest

import repro.analysis.parallel as parallel_mod
from repro.analysis.pairwise import PairFailure, scan_pairs
from repro.analysis.parallel import effective_workers, resolve_n_jobs
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
    def test_two_workers_match_serial(self, collection, serial_report, many_cores, pool_sizes):
        # 6 pairs over 2 workers: four chunks per worker rounds up to
        # one pair per chunk.
        parallel = scan_pairs(collection, _config(), n_jobs=2)
        assert pool_sizes == [2]
        assert _snapshot(parallel) == _snapshot(serial_report)

    def test_pickle_transport_matches_serial(
        self, collection, serial_report, many_cores, monkeypatch
    ):
        """Without a shared block (no /dev/shm), series are pickled instead."""
        calls = []

        def no_shared_memory(series):
            calls.append(list(series))
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(parallel_mod, "pack_series", no_shared_memory)
        parallel = scan_pairs(collection, _config(), n_jobs=2)
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

    def test_workers_clamped_to_pair_count(self, collection, many_cores, pool_sizes):
        """Asking for more workers than pairs must not spawn idle workers."""
        pairs = [("a", "b"), ("c", "d")]
        report = scan_pairs(collection, _config(), pairs=pairs, n_jobs=6)
        assert pool_sizes == [2]
        serial = scan_pairs(collection, _config(), pairs=pairs)
        assert _snapshot(report) == _snapshot(serial)

    def test_single_pair_with_many_workers_runs_serially(
        self, collection, many_cores, monkeypatch
    ):
        """One pair clamps to one worker, which is the in-process serial path."""

        def fail(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("a process pool was spawned for a single pair")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", fail)
        pairs = [("a", "b")]
        report = scan_pairs(collection, _config(), pairs=pairs, n_jobs=4)
        serial = scan_pairs(collection, _config(), pairs=pairs)
        assert _snapshot(report) == _snapshot(serial)


class TestWorkerCount:
    """One rule sizes every pool: the request, capped by cores and tasks."""

    def _cores(self, monkeypatch, count):
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: count)

    def test_capped_by_cores(self, monkeypatch):
        self._cores(monkeypatch, 1)
        assert effective_workers(4, 10) == 1
        self._cores(monkeypatch, 2)
        assert effective_workers(4, 10) == 2
        assert effective_workers(1, 10) == 1

    def test_capped_by_tasks(self, monkeypatch):
        self._cores(monkeypatch, 8)
        assert effective_workers(4, 10) == 4
        assert effective_workers(4, 3) == 3
        assert effective_workers(4, 1) == 1
        assert effective_workers(4, 0) == 1

    def test_minus_one_means_all_cores(self, monkeypatch):
        self._cores(monkeypatch, 3)
        assert effective_workers(-1, 10) == 3
        self._cores(monkeypatch, None)  # undeterminable: one core
        assert effective_workers(-1, 10) == 1

    def test_rejects_zero_and_negatives(self):
        with pytest.raises(ValueError, match="n_jobs"):
            effective_workers(0, 10)
        with pytest.raises(ValueError, match="n_jobs"):
            effective_workers(-2, 10)

    def test_one_core_scan_runs_in_process(self, collection, serial_report, monkeypatch):
        def fail(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("a process pool was spawned on a 1-core host")

        self._cores(monkeypatch, 1)
        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", fail)
        report = scan_pairs(collection, _config(), n_jobs=2)
        assert _snapshot(report) == _snapshot(serial_report)
