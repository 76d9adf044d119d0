"""Time delay windows (paper Definitions 4.2 - 4.5, 6.2, 6.3).

A :class:`TimeDelayWindow` ``w = ([t_s, t_e], tau)`` pairs the events of
``X_T`` in ``[t_s, t_e]`` with the events of ``Y_T`` in
``[t_s + tau, t_e + tau]``.  Both endpoints are inclusive sample indices.
``tau`` may be zero (synchronous), positive (Y lags X) or negative (X lags
Y), covering all shifting scenarios of Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._types import AnyArray, ArrayPair, FloatArray, WindowKey

__all__ = ["TimeDelayWindow", "PairView"]


@dataclass(frozen=True, order=True)
class TimeDelayWindow:
    """A time delay window identified by (start, end, delay).

    Attributes:
        start: first sample index on ``X_T`` (``t_s``), inclusive.
        end: last sample index on ``X_T`` (``t_e``), inclusive.
        delay: the shift ``tau`` of the Y window relative to the X window.
    """

    start: int
    end: int
    delay: int = 0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"end ({self.end}) must be >= start ({self.start})")

    @property
    def size(self) -> int:
        """Number of time steps covered, ``|w| = t_e - t_s + 1``."""
        return self.end - self.start + 1

    @property
    def y_start(self) -> int:
        """First sample index of the mapped window on ``Y_T``."""
        return self.start + self.delay

    @property
    def y_end(self) -> int:
        """Last sample index of the mapped window on ``Y_T``."""
        return self.end + self.delay

    def x_indices(self) -> range:
        """Sample indices on ``X_T``."""
        return range(self.start, self.end + 1)

    def is_feasible(self, n: int, s_min: int, s_max: int, td_max: int) -> bool:
        """Check the problem-statement constraints against a series of length n.

        Feasible means: the window fits inside both series, its size lies in
        ``[s_min, s_max]`` and ``|tau| <= td_max``.
        """
        return (
            s_min <= self.size <= s_max
            and abs(self.delay) <= td_max
            and self.start >= 0
            and self.end < n
            and self.y_start >= 0
            and self.y_end < n
        )

    def contains(self, other: "TimeDelayWindow") -> bool:
        """True when this window's X interval contains ``other``'s.

        Containment (the ``w_i (subset) w_j`` of the problem statement) is
        judged on the X-side interval: two windows over the same stretch of
        ``X_T`` describe the same underlying event regardless of the exact
        delay at which the echo on ``Y_T`` was strongest.
        """
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "TimeDelayWindow") -> bool:
        """True when the X intervals of the two windows intersect."""
        return self.start <= other.end and other.start <= self.end

    def is_consecutive_with(self, other: "TimeDelayWindow") -> bool:
        """Definition 6.2: ``other`` starts right after this window ends,
        with the same delay."""
        return other.start == self.end + 1 and other.delay == self.delay

    def concat(self, other: "TimeDelayWindow") -> "TimeDelayWindow":
        """Definition 6.3: concatenation ``w'' = w (.) w'`` of consecutive windows.

        Raises:
            ValueError: if the windows are not consecutive.
        """
        if not self.is_consecutive_with(other):
            raise ValueError(f"{self} and {other} are not consecutive")
        return TimeDelayWindow(start=self.start, end=other.end, delay=self.delay)

    def shifted(self, d_start: int = 0, d_end: int = 0, d_delay: int = 0) -> "TimeDelayWindow":
        """A copy with the three indices nudged; no feasibility check."""
        return TimeDelayWindow(
            start=self.start + d_start,
            end=self.end + d_end,
            delay=self.delay + d_delay,
        )

    def key(self) -> WindowKey:
        """Hashable identity used by caches."""
        return (self.start, self.end, self.delay)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"([{self.start}, {self.end}], tau={self.delay})"


def _one_series(values: AnyArray, name: str) -> FloatArray:
    """``values`` as a flat float64 series.

    ``(n,)``, ``(n, 1)`` and ``(1, n)`` arrays hold one series.  An array
    with more than one axis longer than 1 holds several, and flattening
    it would interleave their samples into one series.
    """
    array = np.asarray(values, dtype=np.float64)
    if sum(axis > 1 for axis in array.shape) > 1:
        raise ValueError(f"{name} must be a single series, got shape {array.shape}")
    return array.ravel()


class PairView:
    """A pair of aligned time series plus window extraction helpers.

    Wraps the raw arrays once (validating and optionally de-tying them) so
    the search can cheaply slice out the sub-series of any feasible window.

    Args:
        x: first series ``X_T``, shape ``(n,)`` or ``(n, 1)``.
        y: second series ``Y_T`` (same length, same observation period).
        jitter: when positive, add deterministic noise of this magnitude
            (relative to each series' standard deviation) to break ties.
            Integer-valued or zero-inflated sensor data otherwise produces
            duplicate points, which degrade the KSG estimator.
        seed: seed for the jitter noise.

    Raises:
        ValueError: if an input holds more than one series (two axes
            longer than 1), the lengths differ, or a series is empty or
            not finite.
    """

    x: FloatArray
    y: FloatArray

    def __init__(
        self,
        x: AnyArray,
        y: AnyArray,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        x = _one_series(x, "x")
        y = _one_series(y, "y")
        if x.size != y.size:
            raise ValueError(f"series must have equal length, got {x.size} and {y.size}")
        if x.size == 0:
            raise ValueError("series must be non-empty")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("series must be finite")
        if jitter > 0.0:
            rng = np.random.default_rng(seed)
            x = x + rng.normal(scale=jitter * (np.std(x) or 1.0), size=x.size)
            y = y + rng.normal(scale=jitter * (np.std(y) or 1.0), size=y.size)
        self.x = x
        self.y = y

    def __len__(self) -> int:
        return self.x.size

    @property
    def n(self) -> int:
        """Length of the observation period."""
        return self.x.size

    def extract(self, window: TimeDelayWindow) -> ArrayPair:
        """The paired sub-series ``(X_w, Y_w)`` of a window (Def. 4.4/4.5).

        Raises:
            IndexError: if the window does not fit inside the series.
        """
        if window.start < 0 or window.end >= self.n:
            raise IndexError(f"{window} exceeds X bounds [0, {self.n - 1}]")
        if window.y_start < 0 or window.y_end >= self.n:
            raise IndexError(f"{window} exceeds Y bounds [0, {self.n - 1}]")
        xw = self.x[window.start : window.end + 1]
        yw = self.y[window.y_start : window.y_end + 1]
        return xw, yw
