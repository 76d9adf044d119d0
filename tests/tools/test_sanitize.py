"""Tests for the runtime determinism sanitizer."""

import json
import os
import subprocess
import sys

import pytest

import tools.tycoslint.sanitize as sanitize_mod
from tools.tycoslint.sanitize import (
    REPO_ROOT,
    build_payload,
    canonical_bytes,
    field_diff,
    main,
    run_matrix,
)

WORKER_LENGTH = 300


def run_worker(out, *, hashseed, n_jobs=1, n_segments=1, inject=False):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    command = [
        sys.executable,
        "-m",
        "tools.tycoslint.sanitize",
        "--worker",
        "--out",
        str(out),
        "--length",
        str(WORKER_LENGTH),
        "--seed",
        "0",
        "--n-segments",
        str(n_segments),
        "--n-jobs",
        str(n_jobs),
    ]
    if inject:
        command.append("--inject")
    subprocess.run(command, cwd=REPO_ROOT, env=env, check=True, timeout=300)
    return out.read_bytes()


class TestFieldDiff:
    def test_equal_payloads_produce_no_diff(self):
        payload = {"a": [1, 2], "b": {"c": "x"}}
        assert field_diff(payload, dict(payload)) == []

    def test_value_mismatch_names_the_path(self):
        lines = field_diff({"scan": {"findings": [1, 2]}}, {"scan": {"findings": [1, 3]}})
        assert lines == ["$.scan.findings[1]: 2 != 3"]

    def test_missing_keys_reported_on_both_sides(self):
        lines = field_diff({"a": 1}, {"b": 2})
        assert "$.a: only in first" in lines
        assert "$.b: only in second" in lines

    def test_length_mismatch_reported(self):
        lines = field_diff([1, 2, 3], [1, 2])
        assert lines[0] == "$: length 3 != 2"

    def test_type_mismatch_short_circuits(self):
        assert field_diff({"a": 1}, [1]) == ["$: type dict != list"]


class TestCanonicalBytes:
    def test_key_order_does_not_matter(self):
        first = canonical_bytes({"b": 1, "a": [2.5]})
        second = canonical_bytes({"a": [2.5], "b": 1})
        assert first == second

    def test_roundtrips_through_json(self):
        payload = {"x": [1, 2.0, "s"], "y": None}
        assert json.loads(canonical_bytes(payload)) == payload


class TestPayload:
    def test_in_process_build_is_repeatable(self):
        first = build_payload(WORKER_LENGTH, 0, 1, 1, inject=False)
        second = build_payload(WORKER_LENGTH, 0, 1, 1, inject=False)
        assert canonical_bytes(first) == canonical_bytes(second)
        assert first["search"]["windows"], "workload must find coupled windows"
        assert {f["source"] for f in first["scan"]["findings"]} <= {"a", "b", "c"}

    def test_timing_fields_are_excluded(self):
        payload = build_payload(WORKER_LENGTH, 0, 1, 1, inject=False)
        text = canonical_bytes(payload).decode()
        assert "runtime_seconds" not in text
        assert "phase_seconds" not in text
        assert "n_jobs" not in text


@pytest.mark.slow
class TestSubprocessMatrix:
    def test_reports_identical_across_hashseed_and_n_jobs(self, tmp_path):
        reference = run_worker(tmp_path / "ref.json", hashseed=0, n_jobs=1)
        across_seed = run_worker(tmp_path / "seed.json", hashseed=4242, n_jobs=1)
        across_jobs = run_worker(tmp_path / "jobs.json", hashseed=0, n_jobs=2)
        assert across_seed == reference
        assert across_jobs == reference

    def test_injected_nondeterminism_is_caught_with_field_diff(self, tmp_path):
        first = run_worker(tmp_path / "h0.json", hashseed=0, inject=True)
        second = run_worker(tmp_path / "h1.json", hashseed=4242, inject=True)
        assert first != second
        lines = field_diff(json.loads(first), json.loads(second))
        assert lines and all(line.startswith("$.hash_probe") for line in lines)


def test_worker_mode_requires_out():
    with pytest.raises(SystemExit) as excinfo:
        main(["--worker"])
    assert excinfo.value.code == 2


def test_matrix_refuses_a_one_core_host(tmp_path, monkeypatch):
    # Pools are capped at the cores, so one core would diff serial
    # against serial: the gate must fail instead of passing vacuously.
    def no_child(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("a variant ran on a 1-core host")

    monkeypatch.setattr(sanitize_mod.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(sanitize_mod, "_run_child", no_child)
    with pytest.raises(SystemExit, match="at least 2 cores"):
        run_matrix(300, 0, False, tmp_path)
