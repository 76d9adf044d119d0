"""Mining recurring patterns from extracted correlation windows.

The paper's interpretation of its Table-3 findings is all about
recurrence: "the correlation occurs frequently from 6.00 to 7.00",
"frequent activities of kitchen from 16.00 to 19.00".  This module turns
that reading into code: given the windows TYCOS extracted from a long
recording, group them by their phase within a period (a day, a week) and
report the recurring time-of-day bands, their support, and their typical
delay -- the "pattern mining on extracted correlations" the paper lists
as follow-up work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.results import WindowResult
from repro.reporting import format_table, title

__all__ = ["RecurringPattern", "RecurrenceReport", "mine_recurrence"]


@dataclass(frozen=True)
class RecurringPattern:
    """A recurring correlation band within the period.

    Attributes:
        phase_start: band start as a phase offset within the period
            (samples into the period).
        phase_end: band end (samples into the period, inclusive).
        support: number of distinct periods contributing a window.
        occurrences: total windows in the band.
        median_delay: median delay of the contributing windows.
        mean_nmi: mean normalized MI of the contributing windows.
    """

    phase_start: int
    phase_end: int
    support: int
    occurrences: int
    median_delay: float
    mean_nmi: float


@dataclass
class RecurrenceReport:
    """Recurring patterns mined from a window set."""

    period: int
    patterns: List[RecurringPattern] = field(default_factory=list)

    def to_text(self, samples_per_hour: float = 0.0) -> str:
        """Render the mined bands; with ``samples_per_hour`` given, the
        phases are also printed as clock times."""
        headers = ["phase band", "support", "windows", "median delay", "mean nmi"]
        rows = []
        for p in self.patterns:
            band = f"[{p.phase_start}, {p.phase_end}]"
            if samples_per_hour > 0:
                h0 = p.phase_start / samples_per_hour
                h1 = p.phase_end / samples_per_hour
                band += f" ({h0:04.1f}h-{h1:04.1f}h)"
            rows.append(
                [band, p.support, p.occurrences, f"{p.median_delay:+.0f}", f"{p.mean_nmi:.2f}"]
            )
        return title(f"Recurring correlations (period = {self.period})") + "\n" + format_table(
            headers, rows
        )


def mine_recurrence(
    windows: Sequence[WindowResult],
    period: int,
    min_support: int = 2,
    gap_tolerance: int | None = None,
) -> RecurrenceReport:
    """Group extracted windows into recurring phase bands.

    Args:
        windows: the search output (e.g. ``result.windows``).
        period: the recurrence period in samples (e.g. one day).
        min_support: minimum number of *distinct periods* a band must draw
            windows from to count as recurring.
        gap_tolerance: phase gap that still merges two windows into one
            band (default: ``period // 24``, i.e. an hour for daily data).

    Returns:
        A :class:`RecurrenceReport`, strongest-support bands first.
    """
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    if gap_tolerance is None:
        gap_tolerance = max(1, period // 24)
    if not windows:
        return RecurrenceReport(period=period)

    # Each window contributes its phase interval (may wrap at the period).
    entries: List[Tuple[int, int, int, WindowResult]] = []  # (phase_lo, phase_hi, cycle, w)
    for r in windows:
        cycle = r.window.start // period
        lo = r.window.start % period
        hi = lo + r.window.size - 1
        entries.append((lo, hi, cycle, r))
    entries.sort(key=lambda e: e[0])

    # Merge phase intervals closer than the tolerance into bands.
    bands: List[List[Tuple[int, int, int, WindowResult]]] = []
    for entry in entries:
        if bands and entry[0] <= max(e[1] for e in bands[-1]) + gap_tolerance:
            bands[-1].append(entry)
        else:
            bands.append([entry])

    report = RecurrenceReport(period=period)
    for band in bands:
        cycles = {e[2] for e in band}
        if len(cycles) < min_support:
            continue
        results = [e[3] for e in band]
        report.patterns.append(
            RecurringPattern(
                phase_start=min(e[0] for e in band),
                phase_end=min(max(e[1] for e in band), period - 1),
                support=len(cycles),
                occurrences=len(band),
                median_delay=float(np.median([r.window.delay for r in results])),
                mean_nmi=float(np.mean([r.nmi for r in results])),
            )
        )
    report.patterns.sort(key=lambda p: (-p.support, -p.occurrences))
    return report
