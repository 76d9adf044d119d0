"""Delta-neighborhoods of a window (paper Definitions 5.1 / 5.2, Fig. 5).

A window lives in the 3-D grid (start, end, delay).  Its delta-neighbors
are the windows reachable by nudging one or more of the three indices by a
``delta`` step; the r-th neighborhood ``N_r`` is the Chebyshev ring at
radius ``r`` (in delta units) around the window -- ``N_1`` is the 26-window
shell of Fig. 5, ``N_2`` the next shell, and so on.

Every neighbor lies in a *direction*, the sign vector of its index
offsets, which the noise-pruning layer (Section 6.2.2) uses to block whole
exploration directions once their extension is identified as noise.

A ring is built as three int arrays -- starts, ends, delays -- from a
cached offset table, so the search scores it with one
:meth:`repro.core.thresholds.BatchScorer.value_many` call and turns only
the chosen neighbor into a :class:`TimeDelayWindow`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Tuple

import numpy as np

from repro._types import IntArray
from repro.core.window import TimeDelayWindow

__all__ = ["Direction", "Ring", "neighborhood"]

# A direction is the sign vector (d_start, d_end, d_delay) in {-1, 0, 1}^3.
Direction = Tuple[int, int, int]

#: A ring as ``(starts, ends, delays)`` int arrays, one entry per window.
Ring = Tuple[IntArray, IntArray, IntArray]


@lru_cache(maxsize=256)
def _shell(radius: int, blocked: FrozenSet[Direction]) -> IntArray:
    """Read-only ``(3, K)`` (start, end, delay) offsets of the radius-r shell.

    The shell is the set of offsets with Chebyshev norm exactly
    ``radius`` (26 entries for r=1, 98 for r=2, ...), minus the blocked
    directions, in ``(delay, start, end)`` order -- the order the search
    scores a ring in.  It depends only on its arguments, so it is built
    once and shared by every ``neighborhood`` call.
    """
    steps = np.arange(-radius, radius + 1)
    delay, start, end = (a.ravel() for a in np.meshgrid(steps, steps, steps, indexing="ij"))
    offsets = np.stack((start, end, delay))
    keep = np.abs(offsets).max(axis=0) == radius
    signs = np.sign(offsets)
    for direction in blocked:
        # Blocking (0, 1, 0) removes every end-growing move, diagonal ones
        # included: a move is blocked when it matches the direction on
        # every axis the direction constrains.
        axes = [axis for axis, sign in enumerate(direction) if sign != 0]
        if axes:
            keep &= ~np.logical_and.reduce([signs[a] == direction[a] for a in axes])
    shell = np.ascontiguousarray(offsets[:, keep])
    shell.flags.writeable = False
    return shell


def neighborhood(
    window: TimeDelayWindow,
    radius: int,
    delta: int,
    n: int,
    s_min: int,
    s_max: int,
    td_max: int,
    blocked: FrozenSet[Direction] = frozenset(),
) -> Ring:
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
        The feasible neighbors as ``(starts, ends, delays)`` int arrays,
        sorted by ``(delay, start, end)`` (possibly empty).
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    offsets = _shell(radius, blocked) * delta
    starts = offsets[0] + window.start
    ends = offsets[1] + window.end
    delays = offsets[2] + window.delay
    sizes = ends - starts
    keep = (starts >= 0) & (ends < n) & (sizes >= s_min - 1) & (sizes <= s_max - 1)
    keep &= (delays >= -td_max) & (delays <= td_max)
    keep &= (starts + delays >= 0) & (ends + delays < n)
    return starts[keep], ends[keep], delays[keep]
