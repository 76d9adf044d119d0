"""Result containers for correlation search.

The TYCOS problem statement asks for a set ``S`` of windows with
``I_w >= sigma`` in which no window contains another.  :class:`ResultSet`
enforces that invariant on insertion; :func:`merge_overlapping` is the
overlapped-window aggregation used when grading the brute-force baseline
(Section 8.4 B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.core.window import TimeDelayWindow

__all__ = ["WindowResult", "ResultSet", "merge_overlapping"]


@dataclass(frozen=True)
class WindowResult:
    """A correlated window together with its scores.

    Attributes:
        window: the time delay window.
        mi: raw KSG mutual information (nats).
        nmi: normalized MI in [0, 1].
    """

    window: TimeDelayWindow
    mi: float
    nmi: float

    @property
    def delay(self) -> int:
        """Convenience accessor for the window's delay."""
        return self.window.delay


class ResultSet:
    """Windows accepted by a search, no one of which contains another.

    Two windows conflict when one contains the other (the problem
    statement's constraint).  On a conflict the higher-scoring window
    wins: inserting a better window evicts the worse conflicting ones;
    inserting a worse one is a no-op.
    """

    def __init__(self) -> None:
        self._items: List[WindowResult] = []

    def insert(self, result: WindowResult, value: Optional[float] = None) -> bool:
        """Insert a result, resolving conflicts in favor of higher scores.

        Args:
            result: the candidate.
            value: score used for conflict resolution (defaults to nmi).

        Returns:
            True when the candidate ended up in the set.
        """
        if value is None:
            value = result.nmi
        w = result.window
        conflicting = [r for r in self._items if r.window.contains(w) or w.contains(r.window)]
        if conflicting:
            best_existing = max(r.nmi for r in conflicting)
            if value <= best_existing:
                return False
            self._items = [r for r in self._items if r not in conflicting]
        self._items.append(result)
        return True

    def insert_prioritized(self, items: Iterable[Tuple[WindowResult, float]]) -> int:
        """Insert many scored results in fixed ``(score, start, delay)`` priority.

        The segmented-search stitcher collects candidates from segments
        that finish in arbitrary order; inserting them as they arrive
        would make conflict resolution depend on scheduling.  Sorting by
        descending score with ``(start, delay, end)`` as the tie-break
        fixes the priority, so the surviving set is identical no matter
        which segment produced a candidate first (ties are kept
        first-wins by :meth:`insert`'s ``value <= best_existing`` test).

        Returns:
            The number of candidates that ended up in the set.
        """
        ordered = sorted(
            items,
            key=lambda item: (
                -item[1],
                item[0].window.start,
                item[0].window.delay,
                item[0].window.end,
            ),
        )
        inserted = 0
        for result, value in ordered:
            if self.insert(result, value):
                inserted += 1
        return inserted

    def windows(self) -> List[TimeDelayWindow]:
        """The accepted windows in start order."""
        return [r.window for r in sorted(self._items, key=lambda r: r.window.key())]

    def results(self) -> List[WindowResult]:
        """The accepted results in start order."""
        return sorted(self._items, key=lambda r: r.window.key())

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[WindowResult]:
        return iter(self.results())

    def delays(self) -> List[int]:
        """Delays of the accepted windows (for Table-3 style summaries)."""
        return [r.window.delay for r in self.results()]


def merge_overlapping(
    windows: Iterable[TimeDelayWindow], n: Optional[int] = None
) -> List[TimeDelayWindow]:
    """Aggregate overlapping windows into maximal covering windows.

    The brute-force baseline reports every feasible window above threshold,
    which floods the output with near-duplicates; Section 8.4 B aggregates
    them before comparing against TYCOS.  Windows whose X intervals overlap
    are unioned; the merged window keeps the delay of the largest
    contributing window (the dominant correlation), clamped -- when the
    series length ``n`` is given -- so its Y interval fits the series.
    """
    items = sorted(windows, key=lambda w: (w.start, w.end))
    merged: List[TimeDelayWindow] = []
    for w in items:
        if merged and merged[-1].overlaps(w):
            prev = merged[-1]
            dominant = prev if prev.size >= w.size else w
            merged[-1] = TimeDelayWindow(
                start=min(prev.start, w.start),
                end=max(prev.end, w.end),
                delay=dominant.delay,
            )
        else:
            merged.append(w)
    if n is not None:
        merged = [
            TimeDelayWindow(
                start=w.start,
                end=w.end,
                delay=max(-w.start, min(w.delay, n - 1 - w.end)),
            )
            for w in merged
            if w.end < n
        ]
    return merged
