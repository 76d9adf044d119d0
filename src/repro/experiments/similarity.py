"""Window-set comparison metrics used by the evaluation.

Two uses:

* Detection grading (Tables 1 and 3): did a method locate a window that
  covers a planted ground-truth window, at (roughly) the right delay?
* Accuracy grading (Table 4): what fraction of the windows one method
  extracts are also extracted -- "cover a similar range of indices" in the
  paper's words -- by a reference method?
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.window import TimeDelayWindow

__all__ = ["covers", "detects", "window_set_similarity"]


def covers(
    candidate: TimeDelayWindow,
    truth: TimeDelayWindow,
    min_cover: float = 0.7,
    delay_tol: Optional[int] = None,
) -> bool:
    """Does ``candidate`` cover the ground-truth window?

    Args:
        candidate: an extracted window.
        truth: the planted window.
        min_cover: minimum fraction of the *smaller* of the two X intervals
            that the intersection must reach.  Extracted windows are often
            legitimately smaller than a planted segment (normalized MI
            peaks below the full segment size), and a candidate mostly
            inside the truth is a detection either way.
        delay_tol: when given, additionally require
            ``|candidate.delay - truth.delay| <= delay_tol``.

    Returns:
        True when both conditions hold.
    """
    inter = min(candidate.end, truth.end) - max(candidate.start, truth.start) + 1
    if inter <= 0:
        return False
    if inter / min(candidate.size, truth.size) < min_cover:
        return False
    if delay_tol is not None and abs(candidate.delay - truth.delay) > delay_tol:
        return False
    return True


def detects(
    extracted: Iterable[TimeDelayWindow],
    truth: TimeDelayWindow,
    min_cover: float = 0.7,
    delay_tol: Optional[int] = None,
) -> bool:
    """True when any extracted window covers the ground truth."""
    return any(covers(w, truth, min_cover=min_cover, delay_tol=delay_tol) for w in extracted)


def window_set_similarity(
    test: Sequence[TimeDelayWindow],
    reference: Sequence[TimeDelayWindow],
    min_cover: float = 0.5,
) -> float:
    """Fraction of reference windows that the test set also covers.

    Follows Section 8.4 B: "two windows are considered to be similar if
    they cover a similar range of indices".  Two windows count as similar
    when their X-interval intersection covers at least ``min_cover`` of
    the *smaller* of the two -- an aggregated brute-force window typically
    spans a whole correlated region, while a heuristic search reports the
    peak inside it, and the peak sitting inside the region is agreement,
    not disagreement.  Delays are not compared because the aggregated
    reference merges windows across delays.

    Args:
        test: windows extracted by the method under evaluation.
        reference: windows of the reference method.
        min_cover: intersection-over-smaller-window needed to match.

    Returns:
        A fraction in [0, 1]; 1.0 when both sets are empty, 0.0 when only
        one is.
    """
    if not reference:
        return 1.0 if not test else 0.0
    matched = 0
    for ref in reference:
        if any(covers(t, ref, min_cover=min_cover) for t in test):
            matched += 1
    return matched / len(reference)
