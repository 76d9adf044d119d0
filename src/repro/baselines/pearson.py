"""Pearson Correlation Coefficient baseline (paper Section 8.1).

PCC is the traditional linear-correlation metric the paper compares
against.  It has no window-search mechanism of its own, so -- like the
paper -- we evaluate it as a sliding scan: the coefficient of every
fixed-size window at a given delay.  Detection succeeds when some window
reaches the threshold in absolute value; only linear (and, loosely,
monotonic) relations can do so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "pcc",
    "sliding_pcc",
    "sliding_pcc_band",
    "roll_sum_rows",
    "PccWindow",
    "pcc_scan",
]


def roll_sum_rows(
    block: np.ndarray,
    window: int,
    prefix: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row-wise rolling window sums of a 2-D block, via cumulative sums.

    The band kernel's one batched primitive, exposed so the cascade's
    collection-level screen state (:mod:`repro.analysis.screen_state`)
    computes its per-series and per-pair moments with the *same* recipe:
    ``cumsum(axis=1)`` accumulates each row in exactly the order of the
    1-D path, so every valid prefix carries floats bit-identical to
    ``sliding_pcc``'s ``roll_sum`` on that row alone.

    Args:
        block: ``(rows, width)`` float64 block.
        window: rolling window size ``m``.
        prefix: optional ``(rows, width + 1)`` float64 work array for the
            zero-prefixed cumulative sums (allocated when omitted).
        out: optional ``(rows, width - m + 1)`` float64 array to write
            the sums into (allocated when omitted).

    Returns:
        ``(rows, width - m + 1)`` rolling sums.
    """
    rows, width = block.shape
    if prefix is None:
        prefix = np.empty((rows, width + 1))
    prefix[:, 0] = 0.0
    np.cumsum(block, axis=1, out=prefix[:, 1:])
    return np.subtract(prefix[:, window:], prefix[:, :-window], out=out)


def pcc(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient of a paired sample.

    Returns 0.0 for degenerate (zero-variance) inputs instead of NaN,
    matching how a correlation scan must treat flat sensor stretches.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def sliding_pcc(x: np.ndarray, y: np.ndarray, window: int, delay: int = 0) -> np.ndarray:
    """PCC of every length-``window`` window of (x, y_delayed), vectorized.

    Args:
        x: first series.
        y: second series (same length).
        window: window size ``m >= 2``.
        delay: pairing shift; ``y[i + delay]`` is matched with ``x[i]``.

    Returns:
        Array of coefficients; entry ``s`` covers ``x[s : s + m]`` paired
        with ``y[s + delay : s + delay + m]``.  Empty when nothing fits.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    n = x.size
    lo = max(0, -delay)
    hi = min(n, n - delay)  # exclusive bound on x index
    xs = x[lo:hi]
    ys = y[lo + delay : hi + delay]
    m = window
    if xs.size < m:
        return np.empty(0)
    # Rolling sums via cumulative sums: O(n) regardless of window size.
    def roll_sum(a: np.ndarray) -> np.ndarray:
        c = np.concatenate([[0.0], np.cumsum(a)])
        return c[m:] - c[:-m]

    sx = roll_sum(xs)
    sy = roll_sum(ys)
    sxx = roll_sum(xs * xs)
    syy = roll_sum(ys * ys)
    sxy = roll_sum(xs * ys)
    cov = sxy - sx * sy / m
    varx = sxx - sx * sx / m
    vary = syy - sy * sy / m
    denom = np.sqrt(np.maximum(varx, 0.0) * np.maximum(vary, 0.0))
    out = np.zeros_like(cov)
    ok = denom > 1e-12
    out[ok] = cov[ok] / denom[ok]
    return np.clip(out, -1.0, 1.0)


def sliding_pcc_band(
    x: np.ndarray, y: np.ndarray, window: int, delays: Sequence[int]
) -> List[np.ndarray]:
    """:func:`sliding_pcc` for a whole delay band in one batched pass.

    The per-delay path runs five O(n) rolling sums per delay from Python;
    this kernel stacks every delay's aligned slices into one zero-padded
    ``(len(delays), n)`` block and performs the identical cumulative-sum
    arithmetic across the whole band in single numpy calls.  Because the
    accumulation order within each row is exactly the per-delay order and
    the trailing zero padding never enters a valid prefix, every returned
    coefficient is **bit-identical** to ``sliding_pcc(x, y, window, d)``
    -- asserted by the tier-1 suite, so the cascade's stage-1 screen and
    :func:`pcc_scan` can use whichever path is convenient without the
    results depending on it.

    Args:
        x: first series.
        y: second series (same length).
        window: window size ``m >= 2``.
        delays: pairing shifts to evaluate (any order, duplicates kept).

    Returns:
        One coefficient array per entry of ``delays``, each bit-identical
        to the corresponding :func:`sliding_pcc` call (empty when nothing
        fits at that delay).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("x and y must have equal length")
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    n = x.size
    m = window
    band = [int(d) for d in delays]
    if not band:
        return []
    lengths = [max(0, min(n, n - d) - max(0, -d)) for d in band]
    out_lengths = [max(0, length - m + 1) for length in lengths]
    width = max(lengths)
    if width < m:
        return [np.empty(0) for _ in band]
    rows = len(band)
    xs = np.zeros((rows, width))
    ys = np.zeros((rows, width))
    for j, d in enumerate(band):
        lo = max(0, -d)
        length = lengths[j]
        if length:
            xs[j, :length] = x[lo : lo + length]
            ys[j, :length] = y[lo + d : lo + d + length]

    # Batched rolling sums: one cumsum over the whole band per moment.
    sx = roll_sum_rows(xs, m)
    sy = roll_sum_rows(ys, m)
    sxx = roll_sum_rows(xs * xs, m)
    syy = roll_sum_rows(ys * ys, m)
    sxy = roll_sum_rows(xs * ys, m)
    cov = sxy - sx * sy / m
    varx = sxx - sx * sx / m
    vary = syy - sy * sy / m
    denom = np.sqrt(np.maximum(varx, 0.0) * np.maximum(vary, 0.0))
    out = np.zeros_like(cov)
    ok = denom > 1e-12
    out[ok] = cov[ok] / denom[ok]
    out = np.clip(out, -1.0, 1.0)
    return [out[j, : out_lengths[j]].copy() for j in range(rows)]


@dataclass(frozen=True)
class PccWindow:
    """A window located by the PCC scan."""

    start: int
    end: int
    delay: int
    coefficient: float


def pcc_scan(
    x: np.ndarray,
    y: np.ndarray,
    window: int,
    td_max: int = 0,
    threshold: float = 0.8,
    delays: Optional[List[int]] = None,
) -> List[PccWindow]:
    """Scan for windows whose |PCC| reaches a threshold, across delays.

    This gives PCC the fairest possible shot in the Table-1 comparison: a
    full sweep over all delays in ``[-td_max, td_max]`` (or an explicit
    delay list), not just the synchronous alignment.

    Returns:
        Non-overlapping detected windows (greedy by |coefficient|).
    """
    if delays is None:
        delays = list(range(-td_max, td_max + 1))
    candidates: List[PccWindow] = []
    for delay, coeffs in zip(delays, sliding_pcc_band(x, y, window, delays)):
        offset = max(0, -delay)
        for s in np.nonzero(np.abs(coeffs) >= threshold)[0]:
            candidates.append(
                PccWindow(
                    start=int(s) + offset,
                    end=int(s) + offset + window - 1,
                    delay=delay,
                    coefficient=float(coeffs[s]),
                )
            )
    candidates.sort(key=lambda w: -abs(w.coefficient))
    picked: List[PccWindow] = []
    for cand in candidates:
        if all(cand.end < p.start or cand.start > p.end for p in picked):
            picked.append(cand)
    picked.sort(key=lambda w: w.start)
    return picked
