"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload pair_gallery --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed``.  Operations run back
to back on them (a closed loop, one caller, ``n_jobs=1``) for
``--seconds`` after the first one, and at least until every input has
been run and one has been repeated.  Every operation's output is checked
-- windows feasible and at least sigma, the cascade ledger balanced, the
digest equal to the first one on the same input -- before its time is
recorded; a failed check makes the run exit 1.

``--trace 0`` reports the end-to-end metrics.  ``wall_s`` is each
operation's seconds divided by the mean of the calibration loops timed
just before and just after it, median over operations, times
``CALIBRATION_REF_S``: operation time at a fixed reference speed.
The raw median is in the summary.  ``--trace 1`` runs each input
untraced, then traced, and reports the per-layer metrics of the traced
operations (see ``spans.py``) plus ``trace.overhead``; the spans are
written to ``.perfbench-trace/<workload>.npz``.  The last line of
standard output is the result object; the lines before it carry
provenance and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5
#: A fixed scale for ``wall_s``: about the median seconds
#: ``_calibration_seconds`` took over 70 runs on a shared 2-vCPU host
#: (Python 3.11, numpy 2.4).  On such a host whole minutes run up to 2x
#: slower than others; the calibration loop, which needs no part of the
#: program, slows with them, so dividing by it keeps ``wall_s`` comparable
#: across those stretches.
CALIBRATION_REF_S = 0.085
#: One set-up in a fresh interpreter: import the program, generate the
#: inputs, build the engine and warm its lazy state; prints the seconds.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "began = time.perf_counter()\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))\n"
    "print(time.perf_counter() - began)\n"
)


def _commit() -> Optional[str]:
    """The checkout's git commit, or None when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over ``SETUP_REPEATS`` fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


def _calibration_seconds() -> float:
    """Time a fixed loop shaped like the KSG kernels, without the program.

    Max-norm distance blocks of about 450 samples (the size of the
    search's distance workspaces, so the loop feels cache pressure as the
    search does), a k-th neighbour partition, marginal counts and a
    pure-Python loop: host slowdowns hit it and the searches alike.  Its
    blocks are allocated afresh, as the search's are, so it also pays
    what the host charges for fresh pages.
    """
    a = np.random.default_rng(0).random(6000)
    began = time.perf_counter()
    acc = 0.0
    for i in range(0, 5400, 200):
        x, y = a[i : i + 450], a[i + 100 : i + 550]
        dx, dy = np.abs(x[:, None] - x[None, :]), np.abs(y[:, None] - y[None, :])
        eps = np.partition(np.maximum(dx, dy), 4, axis=1)[:, 4:5]
        acc += float((dx < eps).sum() + (dy < eps).sum())
        for j in range(1500):
            acc += j * 0.5
    return time.perf_counter() - began


def _provenance(bench: Dict[str, Any], workload: str, seed: int) -> Dict[str, Any]:
    return {
        "workload": workload,
        "why": {w["name"]: w["why"] for w in bench["workloads"]}[workload],
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "loop": "closed, one caller, n_jobs=1",
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"provenance": _provenance(bench, args.workload, args.seed)}), flush=True)

    recorder = spans.SpanRecorder() if args.trace else None
    # Untraced runs visit the inputs round-robin; traced runs visit each
    # input twice in a row, untraced then traced, so both medians cover
    # the same inputs.
    visits = 2 if recorder else 1
    instances = workload.INSTANCES
    untraced: List[float] = []
    calibrated: List[float] = []
    calibrations: List[float] = []
    traced: List[float] = []
    traced_reports: Dict[int, Any] = {}
    problems: List[str] = []
    references: Dict[int, str] = {}
    grades: Dict[int, Any] = {}
    attempted = failed = 0
    deadline = None
    if recorder is None:
        calibrations.append(_calibration_seconds())
    while True:
        op = attempted
        instance = (op // visits) % instances
        tracing = recorder is not None and op % 2 == 1
        if tracing:
            recorder.current_op = op
            recorder.install()
        out = None
        began = time.perf_counter()
        try:
            out = workload.run(instance)
        except Exception as exc:  # noqa: BLE001 - a raised operation is a counted failure
            issues = [f"op {op} raised {type(exc).__name__}: {exc}"]
        finally:
            elapsed = time.perf_counter() - began
            if tracing:
                recorder.uninstall()
        attempted += 1
        if recorder is None:
            calibrations.append(_calibration_seconds())
        if out is not None:
            issues = workload.check(out, instance, rescore=op == 0)
            digest = workload.digest(out)
            if instance not in references:
                references[instance] = digest
                grades[instance] = workload.grade(out, instance)
            elif digest != references[instance]:
                issues.append(f"op {op} output digest differs from the first on input {instance}")
        if issues:
            failed += max(1, len(getattr(out, "failures", ())))
            problems.extend(issues)
        elif tracing:
            traced.append(elapsed)
            traced_reports[op] = out
        else:
            untraced.append(elapsed)
            if recorder is None:
                calibrated.append(2 * elapsed / (calibrations[-2] + calibrations[-1]))
        if deadline is None:
            # The measured window opens once the first operation is checked.
            deadline = time.perf_counter() + args.seconds
        if recorder is None:
            enough = len(grades) == instances and attempted > instances
        else:
            enough = bool(untraced and traced)
        if time.perf_counter() >= deadline and (enough or failed):
            break

    correct = not problems
    summary: Dict[str, Any] = {
        "workload": args.workload,
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "inputs": instances,
        "raw_wall_s_p50": statistics.median(untraced) if untraced else None,
        "raw_wall_s_max": max(untraced, default=None),
        "calibration_s_p50": statistics.median(calibrations) if calibrations else None,
        "op_s": {"untraced": untraced, "traced": traced},
        "error_rate": failed / attempted,
        "problems": problems[:20],
    }
    if grades:
        graded = [grades[i] for i in sorted(grades)]
        summary["grades"] = [vars(g) for g in graded]
        summary["false_pos"] = sum(g.false_pos for g in graded)
        summary["recall"] = statistics.fmean(g.recall for g in graded)
        summary["precision"] = statistics.fmean(g.precision for g in graded)

    metrics: Dict[str, Dict[str, Any]] = {}
    if correct and recorder is None:
        metrics = {
            "wall_s": _metric(CALIBRATION_REF_S * statistics.median(calibrated), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "recall": _metric(summary["recall"], "ratio"),
            "precision": _metric(summary["precision"], "ratio"),
        }
    elif correct:
        layers, arrays = spans.layer_metrics(recorder, traced_reports)
        layers["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: _metric(layers.pop(name), unit) for name, unit in units.items()}
        summary["bases"] = dict(layers, **{"trace.traced_ops": len(traced)})
        out_dir = ROOT / ".perfbench-trace"
        out_dir.mkdir(exist_ok=True)
        spans.write(out_dir / f"{args.workload}.npz", recorder, arrays)
    print(json.dumps({"summary": summary}), flush=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
