"""Runtime determinism sanitizer: byte-diff reports across hostile settings.

The static rules (TY110s) catch the *patterns* that break determinism;
this harness checks the *property* end to end: the pinned workload --- a
coupled pair plus a pairwise scan, the same shape the tier-1 tests pin
--- must serialize to byte-identical reports however the run is
scheduled.  Each variant runs in a fresh child interpreter because
``PYTHONHASHSEED`` must be set before Python starts:

* ``PYTHONHASHSEED`` 0 vs 4242 -- catches anything whose output order
  leaks from ``str`` hashing (set/dict iteration feeding results);
* ``n_jobs`` 1 vs 2 -- catches scheduling-order leaks.  Pools are capped
  at the host's cores, so on one core the ``n_jobs=2`` variants would
  run serially and the gate would compare serial against serial: the
  matrix refuses to run on fewer than 2 cores;
* ``n_segments`` 1 vs 3 (the ``plain`` and ``segments=3`` plans),
  compared *within* each segment count -- segmenting legitimately
  changes which restarts are attempted (``segments=k`` differs from
  ``plain`` by design, see :mod:`repro.analysis.planner`), so classes
  are never diffed against each other; the scan section, which has no
  segment dependence, *is* compared across every variant.

On a mismatch the sanitizer fails loudly with a field-level diff of the
parsed payloads, not just "bytes differ".  ``--inject`` plants an
artificial nondeterminism (a ``list()`` over a set of strings, whose
order follows ``PYTHONHASHSEED``) to prove the failure path works; CI
runs ``--smoke`` without injection and expects exit 0.

Usage::

    python -m tools.tycoslint.sanitize --smoke           # CI gate
    python -m tools.tycoslint.sanitize                   # full workload
    python -m tools.tycoslint.sanitize --smoke --inject  # must FAIL
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "build_payload",
    "canonical_bytes",
    "field_diff",
    "run_matrix",
    "main",
]

REPO_ROOT = Path(__file__).resolve().parents[2]

FORMAT = "tycoslint-sanitizer/1"

#: (PYTHONHASHSEED, n_jobs) variants run for every segment count.
VARIANTS: Tuple[Tuple[str, int], ...] = (("0", 1), ("0", 2), ("4242", 1), ("4242", 2))

#: Segment counts; payloads are compared within each class only.
SEGMENT_CLASSES: Tuple[int, ...] = (1, 3)


# --------------------------------------------------------------------- #
# Workload (runs inside the child interpreter)


def _make_series(length: int, seed: int) -> Dict[str, Any]:
    """The pinned workload data: a coupled pair plus an uncoupled series.

    Mirrors the tier-1 segmented-search fixture: uniform noise with
    delayed-copy episodes at fixed fractional positions, so every length
    carries correlated windows for the search to find.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, length)
    y = rng.uniform(-1.0, 1.0, length)
    for fraction, span, delay in ((0.07, 70, 4), (0.37, 90, -3), (0.71, 80, 6)):
        start = int(fraction * length)
        stop = min(start + span, length - abs(delay) - 1)
        if stop <= start:
            continue
        y[start + delay : stop + delay] = x[start:stop]
    noise = rng.uniform(-1.0, 1.0, length)
    return {"a": x, "b": y, "c": noise}


def _make_config(seed: int) -> Any:
    from repro.core.config import TycosConfig

    return TycosConfig(
        sigma=0.3,
        s_min=8,
        s_max=60,
        td_max=10,
        jitter=1e-6,
        init_delay_step=1,
        significance_permutations=10,
        seed=seed,
    )


def build_payload(
    length: int,
    seed: int,
    n_segments: int,
    n_jobs: int,
    inject: bool,
) -> Dict[str, Any]:
    """Run the pinned workload and distill a canonical, clock-free payload.

    Wall-clock values (``runtime_seconds``, per-phase timings) are
    deliberately excluded: they attribute a run, they are not results.
    """
    from repro.analysis.pairwise import scan_pairs
    from repro.analysis.planner import SearchPlan, execute_plan

    series = _make_series(length, seed)
    config = _make_config(seed=3)
    # n_jobs is deliberately NOT recorded: like PYTHONHASHSEED it is a
    # knob the report must not depend on.  n_segments stays because it
    # legitimately shapes the result (see module docstring).
    payload: Dict[str, Any] = {
        "format": FORMAT,
        "params": {"length": length, "seed": seed, "n_segments": n_segments},
    }
    if inject:
        # Artificial nondeterminism: list() over a set of strings follows
        # PYTHONHASHSEED.  Exists to prove the sanitizer fails loudly.
        payload["hash_probe"] = list({f"probe-{i:02d}" for i in range(24)})

    result = execute_plan(
        series["a"],
        series["b"],
        config,
        plan=SearchPlan(segments=n_segments),
        n_jobs=n_jobs,
    )
    payload["search"] = {
        "windows": [
            [*r.window.key(), float(r.mi), float(r.nmi)] for r in result.windows
        ],
        "segments": result.stats.segments,
        "stitch_dedups": result.stats.stitch_dedups,
        "stitch_rescores": result.stats.stitch_rescores,
    }

    report = scan_pairs(series, config, n_jobs=n_jobs)
    payload["scan"] = {
        "findings": [
            {
                "source": f.source,
                "target": f.target,
                "windows": f.windows,
                "best_nmi": float(f.best_nmi),
                "delay_range": list(f.delay_range) if f.delay_range else None,
            }
            for f in report.findings
        ],
        "skipped": [list(pair) for pair in report.skipped],
        "failures": [[f.source, f.target, f.error] for f in report.failures],
    }
    return payload


def canonical_bytes(payload: Dict[str, Any]) -> bytes:
    """Stable serialization: the bytes the matrix diffs."""
    return json.dumps(payload, sort_keys=True, indent=1).encode("utf-8") + b"\n"


# --------------------------------------------------------------------- #
# Field-level diff


def field_diff(first: Any, second: Any, prefix: str = "$") -> List[str]:
    """Recursive structural diff of two parsed JSON payloads."""
    if type(first) is not type(second):
        return [
            f"{prefix}: type {type(first).__name__} != {type(second).__name__}"
        ]
    diffs: List[str] = []
    if isinstance(first, dict):
        for key in sorted(set(first) | set(second)):
            here = f"{prefix}.{key}"
            if key not in first:
                diffs.append(f"{here}: only in second")
            elif key not in second:
                diffs.append(f"{here}: only in first")
            else:
                diffs.extend(field_diff(first[key], second[key], here))
    elif isinstance(first, list):
        if len(first) != len(second):
            diffs.append(f"{prefix}: length {len(first)} != {len(second)}")
        for index, (a, b) in enumerate(zip(first, second)):
            diffs.extend(field_diff(a, b, f"{prefix}[{index}]"))
    elif first != second:
        diffs.append(f"{prefix}: {first!r} != {second!r}")
    return diffs


# --------------------------------------------------------------------- #
# Matrix driver (parent process)


def _child_env(hashseed: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = str(REPO_ROOT / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not extra else src + os.pathsep + extra
    return env


def _run_child(
    out: Path,
    length: int,
    seed: int,
    n_segments: int,
    n_jobs: int,
    hashseed: str,
    inject: bool,
) -> None:
    command = [
        sys.executable,
        "-m",
        "tools.tycoslint.sanitize",
        "--worker",
        "--out",
        str(out),
        "--length",
        str(length),
        "--seed",
        str(seed),
        "--n-segments",
        str(n_segments),
        "--n-jobs",
        str(n_jobs),
    ]
    if inject:
        command.append("--inject")
    subprocess.run(
        command, cwd=REPO_ROOT, env=_child_env(hashseed), check=True, timeout=900
    )


def _variant_name(n_segments: int, hashseed: str, n_jobs: int) -> str:
    return f"segments={n_segments} hashseed={hashseed} n_jobs={n_jobs}"


def run_matrix(
    length: int,
    seed: int,
    inject: bool,
    work_dir: Path,
) -> Tuple[bool, List[str]]:
    """Run every variant; returns ``(ok, human-readable problem lines)``.

    Byte-compares payloads within each ``n_segments`` class, and the
    scan section (segment-independent) across every variant.  Exits
    non-zero on a host with fewer than 2 cores, where the ``n_jobs=2``
    variants would not pool.
    """
    cores = os.cpu_count() or 1
    if cores < 2:
        raise SystemExit(
            f"sanitize: needs at least 2 cores, this host has {cores}; on one "
            "core the n_jobs=2 variants would not run a process pool"
        )
    problems: List[str] = []
    payloads: Dict[Tuple[int, str, int], bytes] = {}
    for n_segments in SEGMENT_CLASSES:
        for hashseed, n_jobs in VARIANTS:
            out = work_dir / f"report-s{n_segments}-h{hashseed}-j{n_jobs}.json"
            _run_child(out, length, seed, n_segments, n_jobs, hashseed, inject)
            payloads[(n_segments, hashseed, n_jobs)] = out.read_bytes()

    for n_segments in SEGMENT_CLASSES:
        reference_key = (n_segments, *VARIANTS[0])
        reference = payloads[reference_key]
        for hashseed, n_jobs in VARIANTS[1:]:
            candidate = payloads[(n_segments, hashseed, n_jobs)]
            if candidate == reference:
                continue
            problems.append(
                f"byte mismatch: {_variant_name(*reference_key)} "
                f"vs {_variant_name(n_segments, hashseed, n_jobs)}"
            )
            problems.extend(
                "  " + line
                for line in field_diff(
                    json.loads(reference), json.loads(candidate)
                )[:40]
            )

    # The scan has no segment dependence: one reference across all runs.
    scan_reference_key = (SEGMENT_CLASSES[0], *VARIANTS[0])
    scan_reference = json.loads(payloads[scan_reference_key])["scan"]
    for key, raw in payloads.items():
        scan = json.loads(raw)["scan"]
        lines = field_diff(scan_reference, scan, prefix="$.scan")
        if lines:
            problems.append(
                f"scan mismatch: {_variant_name(*scan_reference_key)} vs "
                f"{_variant_name(*key)}"
            )
            problems.extend("  " + line for line in lines[:40])
    return not problems, problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tycoslint-sanitize",
        description="Determinism sanitizer: byte-diff pinned-workload reports "
        "across PYTHONHASHSEED / n_jobs / n_segments variants.",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small workload for CI (shorter series)"
    )
    parser.add_argument(
        "--inject",
        action="store_true",
        help="plant an artificial hash-order nondeterminism (the run must fail)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload data seed")
    parser.add_argument(
        "--length", type=int, default=None, help="series length (overrides --smoke)"
    )
    parser.add_argument(
        "--keep-dir",
        metavar="DIR",
        default=None,
        help="write the per-variant payloads here (kept for inspection)",
    )
    # Internal: single-variant child mode.
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--n-segments", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--n-jobs", type=int, default=1, help=argparse.SUPPRESS)
    options = parser.parse_args(argv)

    length = options.length
    if length is None:
        length = 600 if options.smoke else 2000

    if options.worker:
        if options.out is None:
            parser.error("--worker requires --out")
        payload = build_payload(
            length, options.seed, options.n_segments, options.n_jobs, options.inject
        )
        Path(options.out).write_bytes(canonical_bytes(payload))
        return 0

    def drive(work_dir: Path) -> int:
        total = len(SEGMENT_CLASSES) * len(VARIANTS)
        print(
            f"sanitize: {total} variants, length={length}, "
            f"segment classes {SEGMENT_CLASSES}, "
            f"hashseed/n_jobs {VARIANTS}"
            + (" [INJECTED NONDETERMINISM]" if options.inject else "")
        )
        ok, problems = run_matrix(length, options.seed, options.inject, work_dir)
        if ok:
            print("sanitize: all reports byte-identical within their class")
            return 0
        for line in problems:
            print(line, file=sys.stderr)
        print("sanitize: FAILED -- reports are not deterministic", file=sys.stderr)
        return 1

    if options.keep_dir is not None:
        keep = Path(options.keep_dir)
        keep.mkdir(parents=True, exist_ok=True)
        return drive(keep)
    with tempfile.TemporaryDirectory(prefix="tycoslint-sanitize-") as tmp:
        return drive(Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
