"""CSV ingestion and the ``tycos-search`` command-line tool.

Real adoption of a correlation-search library starts from files on disk.
This module reads column-oriented CSV time series (header row naming the
columns, one row per time step) and drives either a single-pair search or
a full pairwise scan from the command line::

    tycos-search data.csv --x temperature --y consumption --sigma 0.3
    tycos-search plugs.csv --all-pairs --td-max 48 --s-max 240
    tycos-search long.csv --x a --y b --plan segments=4 --n-jobs 4
    tycos-search long.csv --x a --y b --plan coarse=8 --profile
    tycos-search long.csv --x a --y b --plan auto --explain-plan

Only the standard library's ``csv`` module is used -- no dataframe
dependency.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro._types import FloatArray
from repro.analysis.pairwise import resolve_plan, scan_pairs
from repro.core.config import TycosConfig
from repro.core.tycos import SearchStats

__all__ = ["read_csv_series", "main"]


def read_csv_series(
    path: str | Path,
    columns: Optional[Sequence[str]] = None,
    delimiter: str = ",",
) -> Dict[str, FloatArray]:
    """Read named time series from a header-row CSV file.

    Args:
        path: file to read.
        columns: subset of columns to load (default: every numeric column).
        delimiter: field separator.

    Returns:
        Mapping of column name -> float array.  Rows where a requested
        column is empty or non-numeric raise, because silently dropping
        samples would desynchronize the series.  Blank lines at the end of
        the file are ignored; a blank line followed by more data raises.

    Raises:
        ValueError: on a missing header, an unknown requested column, a
            non-numeric cell, or a blank line followed by more data.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if columns is None:
            wanted = header
        else:
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"{path}: unknown columns {missing}; file has {header}")
            wanted = list(columns)
        idx = {name: header.index(name) for name in wanted}
        data: Dict[str, List[float]] = {name: [] for name in wanted}
        blank_line: Optional[int] = None
        for row_no, row in enumerate(reader, start=2):
            # A blank line; a line of delimiters is a row of missing cells.
            if len(row) <= 1 and not "".join(row).strip():
                blank_line = blank_line or row_no
                continue
            if blank_line is not None:
                raise ValueError(
                    f"{path}:{blank_line}: blank line inside the data; dropping "
                    "it would shift the time axis"
                )
            for name, col in idx.items():
                try:
                    data[name].append(float(row[col]))
                except (IndexError, ValueError) as exc:
                    raise ValueError(
                        f"{path}:{row_no}: column {name!r} is not numeric: "
                        f"{row[col] if col < len(row) else '<missing>'!r}"
                    ) from exc
    return {name: np.asarray(values, dtype=np.float64) for name, values in data.items()}


def _build_config(args: argparse.Namespace) -> TycosConfig:
    return TycosConfig(
        sigma=args.sigma,
        epsilon_ratio=args.epsilon_ratio,
        s_min=args.s_min,
        s_max=args.s_max,
        td_max=args.td_max,
        jitter=args.jitter,
        significance_permutations=args.permutations,
        seed=args.seed,
        init_delay_step=args.delay_step,
        refine_margin=args.refine_margin,
    )


def _print_profile(stats: SearchStats) -> None:
    """Render the per-phase wall-time breakdown of one search.

    Rows follow the canonical :class:`repro.analysis.planner.Phase`
    order: stage walls first (coarse pre-pass, full-resolution
    refinement), then the restart-loop breakdown, then the segment
    stitch.  ``coarse``/``refine`` are stage walls that *contain*
    seeding/scoring/lahc time of their stage, so the rows are a profile,
    not a partition.
    """
    from repro.analysis.planner import ordered_phases

    phases = dict(stats.phase_seconds)
    if not phases:
        print("profile: no phase timings recorded")
        return
    total = stats.runtime_seconds or sum(phases.values())
    print(f"profile ({total:.2f}s wall):")
    for phase in ordered_phases(phases):
        seconds = phases[phase]
        share = 100.0 * seconds / total if total > 0 else 0.0
        print(f"  {phase:<8} {seconds:8.3f}s  {share:5.1f}%")
    if stats.coarse_windows_evaluated:
        print(
            f"  pruning: {stats.coarse_windows_evaluated} coarse evaluations kept "
            f"{stats.refined_cells} cells, pruned {stats.cells_pruned} tiles; "
            f"{stats.full_windows_evaluated} full-resolution evaluations"
        )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``tycos-search``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="tycos-search",
        description="Search CSV time series for multi-scale time delay correlations.",
    )
    parser.add_argument("csv", help="CSV file with a header row naming the series")
    parser.add_argument("--x", help="source column (with --y: single-pair mode)")
    parser.add_argument("--y", help="target column")
    parser.add_argument("--all-pairs", action="store_true", help="scan every column pair")
    parser.add_argument("--sigma", type=float, default=0.3)
    parser.add_argument("--epsilon-ratio", type=float, default=0.25)
    parser.add_argument("--s-min", type=int, default=20)
    parser.add_argument("--s-max", type=int, default=200)
    parser.add_argument("--td-max", type=int, default=48)
    parser.add_argument("--jitter", type=float, default=1e-6)
    parser.add_argument("--permutations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--delay-step", type=int, default=None)
    parser.add_argument(
        "--n-jobs", type=int, default=1,
        help="worker processes: pairs for --all-pairs, timeline segments for "
             "--x/--y with --plan segments=K (-1: all cores; default: serial)",
    )
    parser.add_argument(
        "--refine-margin", type=int, default=None,
        help="full-resolution samples added around each coarse hit before "
             "a --plan coarse=F search refines it (default: s_max + td_max, "
             "one maximal window footprint)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a per-phase wall-time breakdown of the search "
             "(single-pair mode only)",
    )
    parser.add_argument(
        "--plan", default=None, metavar="SPEC",
        help="execution plan: 'plain' (the default), 'segments=K' "
             "(shard the timeline into K stitched segments), 'coarse=F' "
             "(locate on a 1/F-resolution level, then refine at full "
             "resolution), or 'auto' to pick from the workload shape",
    )
    parser.add_argument(
        "--explain-plan", action="store_true",
        help="print the chosen plan (steps, parameters, rationale) "
             "without running the search",
    )
    args = parser.parse_args(argv)

    if not args.all_pairs and not (args.x and args.y):
        parser.error("either --all-pairs or both --x and --y are required")
    if args.profile and args.all_pairs:
        parser.error("--profile needs single-pair mode (--x/--y)")

    config = _build_config(args)

    if args.explain_plan:
        from repro.analysis.planner import SearchPlan, explain_plan

        if args.all_pairs:
            series = read_csv_series(args.csv)
            names = list(series)
            n_pairs = len(names) * (len(names) - 1) // 2
            series_len = series[names[0]].size if names else 0
        else:
            series = read_csv_series(args.csv, columns=[args.x, args.y])
            n_pairs = 1
            series_len = series[args.x].size
        chosen = resolve_plan(args.plan, config, series_len, n_pairs, args.n_jobs)
        print(explain_plan(chosen or SearchPlan(), config))
        return 0

    if args.all_pairs:
        series = read_csv_series(args.csv)
        report = scan_pairs(series, config, n_jobs=args.n_jobs, plan=args.plan)
        print(report.to_text())
        return 0

    from repro.analysis.planner import execute_plan

    series = read_csv_series(args.csv, columns=[args.x, args.y])
    plan = resolve_plan(args.plan, config, series[args.x].size, 1, args.n_jobs)
    result = execute_plan(
        series[args.x], series[args.y], config, plan=plan, n_jobs=args.n_jobs
    )
    segmented = f" over {result.stats.segments} segments" if result.stats.segments else ""
    coarse = (
        f", {result.stats.coarse_windows_evaluated} coarse"
        if result.stats.coarse_windows_evaluated
        else ""
    )
    print(f"{len(result.windows)} correlated windows "
          f"({result.stats.windows_evaluated} evaluated{coarse}{segmented}, "
          f"{result.stats.runtime_seconds:.2f}s)")
    for r in result.windows:
        w = r.window
        print(f"  [{w.start}, {w.end}] delay={w.delay:+d} nmi={r.nmi:.2f} mi={r.mi:.3f}")
    if result.stats.serial_fallback:
        print("(note: n_jobs served serially: 1-core host, pool dispatch "
              "would only add overhead)")
    if args.profile:
        _print_profile(result.stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
