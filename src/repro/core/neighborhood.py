"""Delta-neighborhoods of a window (paper Definitions 5.1 / 5.2, Fig. 5).

A window lives in the 3-D grid (start, end, delay).  Its delta-neighbors
are the windows reachable by nudging one or more of the three indices by a
``delta`` step; the r-th neighborhood ``N_r`` is the Chebyshev ring at
radius ``r`` (in delta units) around the window -- ``N_1`` is the 26-window
shell of Fig. 5, ``N_2`` the next shell, and so on.

Every generated neighbor carries its *direction* (the sign vector of the
index offsets), which the noise-pruning layer (Section 6.2.2) uses to block
whole exploration directions once their extension is identified as noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import FrozenSet, List, Tuple

from repro.core.window import TimeDelayWindow

__all__ = ["Direction", "Neighbor", "neighborhood"]

# A direction is the sign vector (d_start, d_end, d_delay) in {-1, 0, 1}^3.
Direction = Tuple[int, int, int]


@dataclass(frozen=True)
class Neighbor:
    """A candidate window plus the direction it was generated in."""

    window: TimeDelayWindow
    direction: Direction


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


@lru_cache(maxsize=None)
def _shell(radius: int) -> Tuple[Tuple[int, int, int, Direction], ...]:
    """The (ds, de, dt, direction) offsets of the radius-r Chebyshev shell.

    The shell depends only on ``radius`` (26 entries for r=1, 98 for r=2,
    ...), so it is enumerated once and reused by every ``neighborhood``
    call, in the same ``itertools.product`` order.
    """
    steps = range(-radius, radius + 1)
    return tuple(
        (ds, de, dt, (_sign(ds), _sign(de), _sign(dt)))
        for ds, de, dt in product(steps, steps, steps)
        if max(abs(ds), abs(de), abs(dt)) == radius
    )


def neighborhood(
    window: TimeDelayWindow,
    radius: int,
    delta: int,
    n: int,
    s_min: int,
    s_max: int,
    td_max: int,
    blocked: FrozenSet[Direction] = frozenset(),
) -> List[Neighbor]:
    """The feasible delta-neighbors of ``window`` on the radius-r shell.

    Args:
        window: the current solution.
        radius: shell index r (``N_r``); offsets range over
            ``{-r*delta, ..., -delta, 0, delta, ..., r*delta}`` with
            Chebyshev norm exactly ``r`` in delta units.
        delta: the delta moving step.
        n: series length (for feasibility checks).
        s_min: minimum window size.
        s_max: maximum window size.
        td_max: maximum absolute delay.
        blocked: directions to omit -- a neighbor is skipped when its
            direction matches a blocked one on every non-zero axis of the
            blocked direction (so blocking ``(0, 1, 0)`` removes all
            end-extending moves, including diagonal ones).

    Returns:
        Feasible :class:`Neighbor` candidates (possibly empty).
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    out: List[Neighbor] = []
    w_start, w_end, w_delay = window.start, window.end, window.delay
    for ds, de, dt, direction in _shell(radius):
        if blocked and _is_blocked(direction, blocked):
            continue
        start = w_start + ds * delta
        end = w_end + de * delta
        delay = w_delay + dt * delta
        # Feasibility (TimeDelayWindow.is_feasible) checked on plain ints
        # first, so only the feasible neighbors pay window construction.
        if (
            start < 0
            or end >= n
            or not s_min <= end - start + 1 <= s_max
            or abs(delay) > td_max
            or start + delay < 0
            or end + delay >= n
        ):
            continue
        cand = TimeDelayWindow(start=start, end=end, delay=delay)
        out.append(Neighbor(window=cand, direction=direction))
    return out


@lru_cache(maxsize=4096)
def _is_blocked(direction: Direction, blocked: FrozenSet[Direction]) -> bool:
    """A direction is blocked when it moves the same way as a blocked one
    on every axis the blocked direction constrains.

    Memoized: there are only 27 directions and a handful of distinct
    blocked sets per search, but the test runs for every candidate of
    every ring.
    """
    for b in blocked:
        if all(bb == 0 or dd == bb for bb, dd in zip(b, direction)):
            if any(bb != 0 for bb in b):
                return True
    return False
