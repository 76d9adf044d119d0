"""Print every output a search or scan refactor must keep bit-identical.

For each benchmark input (``perfbench/workloads.py``, imported read-only)
the tool runs the workload's operation once and prints one line per
reading:

* ``pair_gallery`` / ``pair_episodic``: every window's key, ``mi.hex()``
  and ``nmi.hex()``, and every non-timing :class:`SearchStats` field;
* ``scan_mixed``: every finding (``best_nmi.hex()``), the skipped pairs,
  the failures, the metadata and the cascade ledger.

Two runs print the same text exactly when the outputs are bit-identical,
so diffing the output of two source trees proves a change neutral::

    python -m tools.parity --seeds 1 2 > new.txt
    python -m tools.parity --seeds 1 2 --src ../parent/src > old.txt
    diff old.txt new.txt

``--workloads`` picks workloads (default: all three) and ``--instances N``
runs only each workload's first ``N`` inputs per seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

__all__ = ["WORKLOADS", "parity_lines", "main"]

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The benchmark's workloads, in the order they are printed.
WORKLOADS = ("pair_gallery", "pair_episodic", "scan_mixed")

#: ``SearchStats`` fields that hold clock readings.
_TIMING_FIELDS = frozenset({"phase_seconds", "runtime_seconds"})


def _workloads_module() -> Any:
    """``perfbench/workloads.py``, imported from the repository checkout."""
    bench = str(REPO_ROOT / "perfbench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads


def _search_lines(result: Any) -> Iterator[str]:
    stats = result.stats
    for f in dataclasses.fields(stats):
        if f.name not in _TIMING_FIELDS:
            yield f"stats {f.name}={getattr(stats, f.name)!r}"
    for r in result.windows:
        yield f"window {r.window.key()} mi={r.mi.hex()} nmi={r.nmi.hex()}"


def _scan_lines(report: Any) -> Iterator[str]:
    for f in report.findings:
        yield (
            f"finding {f.source}->{f.target} windows={f.windows} "
            f"best_nmi={f.best_nmi.hex()} delays={f.delay_range}"
        )
    for source, target in report.skipped:
        yield f"skipped {source}->{target}"
    for failure in report.failures:
        yield f"failure {failure.source}->{failure.target} {failure.error}"
    for key in sorted(report.metadata):
        yield f"metadata {key}={report.metadata[key]!r}"
    yield (
        f"ledger screened={report.pairs_screened} fft={report.pairs_pruned_fft} "
        f"nmi={report.pairs_pruned_nmi} searched={report.pairs_searched}"
    )


def parity_lines(workload: str, seed: int, instances: Optional[int] = None) -> Iterator[str]:
    """The parity readings of one workload's inputs at one seed.

    Args:
        workload: a name from :data:`WORKLOADS`.
        seed: the benchmark seed the inputs are generated from.
        instances: run only the first ``instances`` inputs (all when None).
    """
    bench = _workloads_module().WORKLOADS[workload](seed)
    count = bench.INSTANCES if instances is None else min(instances, bench.INSTANCES)
    for instance in range(count):
        out = bench.run(instance)
        lines = _scan_lines(out) if workload == "scan_mixed" else _search_lines(out)
        prefix = f"{workload} seed={seed} input={instance}"
        for line in lines:
            yield f"{prefix} {line}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.parity", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--instances", type=int, default=None, metavar="N")
    parser.add_argument(
        "--src", type=Path, default=REPO_ROOT / "src",
        help="source tree to import the program from (default: this checkout's src/)",
    )
    args = parser.parse_args(argv)
    if args.instances is not None and args.instances < 1:
        parser.error("--instances must be >= 1")
    sys.path.insert(0, str(args.src.resolve()))
    for workload in args.workloads:
        for seed in args.seeds:
            for line in parity_lines(workload, seed, args.instances):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
