"""Comparison helpers shared by test modules."""

from repro.core.window import TimeDelayWindow


def overlap_fraction(a: TimeDelayWindow, b: TimeDelayWindow) -> float:
    """Jaccard overlap of the X intervals of two windows, in [0, 1]."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start) + 1
    return inter / union
