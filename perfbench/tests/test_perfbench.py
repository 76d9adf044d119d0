"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

from repro import Tycos, TycosConfig  # noqa: E402
from repro.core import TimeDelayWindow  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _collection_arrays(seed, instance):
    series, _ = workloads.mixed_collection(seed, instance)
    return [series[name] for name in sorted(series)]


def _gallery_arrays(seed, instance):
    pair = workloads.gallery_pair(seed, instance)
    return [pair.x, pair.y]


GENERATORS = {
    "pair_gallery": _gallery_arrays,
    "pair_episodic": lambda seed, instance: list(workloads.episode_pair(seed, instance)),
    "scan_mixed": _collection_arrays,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_a_function_of_the_seed(name):
    first, again, other, sibling = (
        GENERATORS[name](seed, instance) for seed, instance in ((7, 0), (7, 0), (8, 0), (7, 1))
    )
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    assert any(a.tobytes() != b.tobytes() for a, b in zip(first, other))
    assert any(a.tobytes() != b.tobytes() for a, b in zip(first, sibling))


def test_scan_collection_plants_walks_and_gallery_pairs():
    series, planted = workloads.mixed_collection(0)
    walks = workloads.SCAN_WALKS
    assert len(series) == workloads.SCAN_SERIES
    assert len(planted) == walks * (walks - 1) // 2 + 8
    assert all(source in series and target in series for source, target in planted)


BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_unique_and_well_formed():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def test_episodic_precision_counts_a_spurious_window():
    workload = workloads.PairEpisodic(0)
    hits = [SimpleNamespace(window=t) for t in workload.cases[0].truth]
    spurious = SimpleNamespace(window=TimeDelayWindow(100, 163, 0))
    clean = workload.grade(SimpleNamespace(windows=hits), 0)
    noisy = workload.grade(SimpleNamespace(windows=hits + [spurious]), 0)
    assert clean.recall == noisy.recall == 1.0
    assert (clean.precision, noisy.precision) == (1.0, 0.75)


def test_self_time_subtracts_covered_child_time():
    # 0: [0, 10] root; 1: [1, 4] and 2: [3, 6] overlap under 0 (cover 5);
    # 3: [2, 3] under 1; 4: [8, 12] under 0 runs past its parent (cover 2).
    start = [0.0, 1.0, 3.0, 2.0, 8.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def _originals():
    out = []
    for module, path, _ in spans.TARGETS:
        owner, attr = spans._resolve(module, path)
        out.append(vars(owner)[attr])
    return out


def _traced_search(seed):
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        recorder.current_op = 0
        x, y = workloads.episode_pair(seed)
        Tycos(TycosConfig(s_min=8, s_max=24, td_max=2)).search(x[:150], y[:150])
    finally:
        recorder.uninstall()
    return recorder


def test_install_wraps_and_uninstall_restores_every_function():
    before = _originals()
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert all(a is not b for a, b in zip(_originals(), before))
    finally:
        recorder.uninstall()
    assert all(a is b for a, b in zip(_originals(), before))
    _traced_search(1)
    assert all(a is b for a, b in zip(_originals(), before))


def test_spans_nest_and_layer_metrics_cover_every_declared_layer():
    recorder = _traced_search(2)
    arrays = recorder.arrays()
    names = [recorder.names[i] for i in arrays["name_id"]]
    assert names[0] == "search.Tycos.search" and arrays["parent"][0] == -1
    assert "planner.execute_plan" in names and "scoring.value_many" in names
    assert (arrays["end"] >= arrays["start"]).all()
    assert len(recorder.plan_stats[0]) == 1

    metrics, arrays = spans.layer_metrics(recorder, {0: None})
    # Every BENCHMARK.json layer metric but trace.overhead (a ratio of
    # operation times) comes from the spans; the rest are sample counts.
    declared = {m["name"] for m in BENCH["per_layer"]} - {"trace.overhead"}
    assert set(metrics) - declared == {"pairwise.pair_samples"}
    assert declared <= set(metrics)
    assert metrics["lahc.self_s"] > 0 and metrics["scoring.s"] > 0
    assert np.all(arrays["self"] <= arrays["end"] - arrays["start"] + 1e-12)
