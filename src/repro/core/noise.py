"""The MI-based noise theory (paper Section 6).

Theorem 6.1 shows that mixing independent noise into a correlated pair can
only dilute mutual information: ``I(Z; W) = theta * eta * I(X; Y)``.  The
operational consequence (Definition 6.4) is a cheap test for whether a
segment of data is *noise* with respect to an adjacent window:

    ``w'`` is noise w.r.t. ``w``  iff  ``I(w') < epsilon`` and
    ``I(w (.) w') < I(w)``

i.e. the segment carries almost no dependence of its own *and* appending it
makes the combined window worse.  TYCOS_LN applies the test twice:

* :func:`find_initial_window` -- the Fig.-7 bottom-up procedure that locates
  a promising starting window while discarding leading noise.
* :class:`NoiseDetector` -- during neighborhood exploration, a growth
  direction whose extension segment is noise is blocked outright
  (Section 6.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from repro.core.config import TycosConfig
from repro.core.neighborhood import Direction
from repro.core.thresholds import BatchScorer
from repro.core.window import TimeDelayWindow

__all__ = ["is_noise", "best_block_over_delays", "find_initial_window", "NoiseDetector"]

#: A growth probe: the direction it tests, the segment, the concatenation.
_Probe = Tuple[Direction, TimeDelayWindow, TimeDelayWindow]


def is_noise(
    following_value: float,
    concatenated_value: float,
    followed_value: float,
    epsilon: float,
) -> bool:
    """Definition 6.4 noise predicate.

    Args:
        following_value: score of the following window ``w'``.
        concatenated_value: score of the concatenation ``w (.) w'``.
        followed_value: score of the followed window ``w`` (must be > 0 for
            the definition to apply; callers guard this).
        epsilon: the noise threshold, ``0 <= epsilon < sigma``.

    Returns:
        True when ``w'`` is noise with respect to ``w``.
    """
    return following_value < epsilon and concatenated_value < followed_value


def best_block_over_delays(
    scorer: BatchScorer,
    config: TycosConfig,
    n: int,
    pos: int,
) -> Optional[tuple[TimeDelayWindow, float]]:
    """The best-scoring minimal block at ``pos`` over the coarse delay grid.

    Algorithm 1 seeds at delay 0 only; probing a coarse delay grid at each
    candidate start is the implementation choice that makes distant delay
    basins reachable (see ``TycosConfig.init_delay_step``).  The whole
    grid is scored in one :meth:`BatchScorer.value_many` call; ties keep
    the earliest grid delay.  Both seeding paths use it: the noise-aware
    hierarchy of :func:`find_initial_window` and the plain variants'
    single probe at the scan position.

    Returns:
        ``(block, value)``, or None when no grid delay fits the series.
    """
    end = pos + config.s_min - 1
    candidates = (_feasible_or_none(pos, end, tau, n) for tau in config.delay_grid())
    blocks = [block for block in candidates if block is not None]
    values = scorer.value_many(blocks)
    best: Optional[tuple[TimeDelayWindow, float]] = None
    for block, value in zip(blocks, values):
        if best is None or value > best[1]:
            best = (block, value)
    return best


def find_initial_window(
    scorer: BatchScorer,
    config: TycosConfig,
    n: int,
    scan_from: int,
) -> Optional[TimeDelayWindow]:
    """Initial noise pruning (Section 6.2.1, Fig. 7).

    Starting at ``scan_from``, minimal windows of size ``s_min`` are
    combined hierarchically.  A combination that scores at least ``epsilon``
    becomes the initial solution.  A minimal window identified as noise
    w.r.t. the running combination causes the combination to be discarded
    (it cannot be extended past the noise) and the scan restarts on the
    noisy block itself.  Each minimal block is probed over the coarse
    delay grid so delayed correlations are reachable starting points.

    Args:
        scorer: window evaluator over the pair being searched.
        config: search parameters (s_min, s_max, epsilon ...).
        n: series length.
        scan_from: first X index still unscanned.

    Returns:
        A feasible window with score >= epsilon, or None when the rest of
        the data holds no promising start.
    """
    s_min = config.s_min
    epsilon = config.epsilon
    current: Optional[TimeDelayWindow] = None
    current_value = 0.0
    pos = scan_from
    while pos + s_min - 1 < n:
        probed = best_block_over_delays(scorer, config, n, pos)
        if probed is None:
            return None
        best_block, best_block_value = probed
        if current is None:
            if best_block_value >= epsilon:
                return best_block
            current, current_value = best_block, best_block_value
            pos += s_min
            continue
        # The continuation block at the current combination's delay (the
        # only one Def. 6.3 can concatenate).
        cont = _feasible_or_none(pos, pos + s_min - 1, current.delay, n)
        if cont is None or current.end + 1 != cont.start:
            current, current_value = best_block, best_block_value
            pos += s_min
            if current_value >= epsilon:
                return current
            continue
        cont_value = scorer.value(cont)
        combined = current.concat(cont)
        if combined.size > config.s_max:
            # The combination cannot grow further within the size bound;
            # restart the hierarchy from the newest block.
            current, current_value = best_block, best_block_value
            pos += s_min
            if current_value >= epsilon:
                return current
            continue
        combined_value = scorer.value(combined)
        # Fig. 7 step 2: the best of {current, block, combined} survives.
        best_value = max(current_value, best_block_value, combined_value)
        if best_value >= epsilon:
            if combined_value == best_value:
                return combined
            return best_block if best_block_value == best_value else current
        if is_noise(cont_value, combined_value, current_value, epsilon):
            # Steps 3.2/3.3: the block poisons the combination; drop the
            # combination entirely and restart from the block (step 4).
            current, current_value = best_block, best_block_value
        else:
            current, current_value = combined, combined_value
        pos += s_min
    return None


@dataclass
class NoiseDetector:
    """Subsequent noise detection during neighborhood exploration (6.2.2).

    Tracks, for the current LAHC solution, which growth directions have
    been proven noisy.  ``inspect`` runs the Def.-6.4 test on a growth
    move and blocks its direction on a hit; the search drops candidates
    lying in a blocked direction through ``neighborhood(blocked=)``.  The
    blocked set resets whenever the search accepts a new solution (the
    geometry changed).

    Attributes:
        prunes: number of direction blocks issued (for the stats report).
    """

    scorer: BatchScorer
    config: TycosConfig
    n: int
    blocked: Set[Direction] = field(default_factory=set)
    prunes: int = 0

    def reset(self) -> None:
        """Forget blocked directions (called after each accepted move)."""
        self.blocked.clear()

    def inspect(self, window: TimeDelayWindow, window_value: float) -> None:
        """Test the two growth directions of ``window`` and block noisy ones.

        Growth along +end concatenates the segment ``[end+1, end+blk]``;
        growth along -start prepends ``[start-blk, start-1]``.  The segment
        length is ``max(delta, s_min)`` so the KSG estimate on the segment
        is well defined even for delta = 1 (an implementation necessity the
        paper's C++ code faces equally: MI of a 1-sample segment does not
        exist).

        Neither direction's probes depend on the other's verdict, so all
        of them (segment, then concatenation; forward, then backward) are
        built first and scored in that order, in one
        :meth:`BatchScorer.value_many` call.
        """
        if window_value <= 0.0:
            return
        blk = max(self.config.delta, self.config.s_min)
        probes = [
            probe
            for probe in (self._forward_probe(window, blk), self._backward_probe(window, blk))
            if probe is not None
        ]
        windows = [w for _, segment, concat in probes for w in (segment, concat)]
        values = self.scorer.value_many(windows)
        for (direction, _, _), seg_value, concat_value in zip(probes, values[::2], values[1::2]):
            if is_noise(seg_value, concat_value, window_value, self.config.epsilon):
                self.blocked.add(direction)
                self.prunes += 1

    def _forward_probe(self, window: TimeDelayWindow, blk: int) -> Optional[_Probe]:
        direction: Direction = (0, 1, 0)
        if direction in self.blocked:
            return None
        seg_end = window.end + blk
        segment = _feasible_or_none(window.end + 1, seg_end, window.delay, self.n)
        if segment is None:
            return None
        concat = TimeDelayWindow(window.start, segment.end, window.delay)
        if concat.size > self.config.s_max or concat.y_end >= self.n:
            return None
        return direction, segment, concat

    def _backward_probe(self, window: TimeDelayWindow, blk: int) -> Optional[_Probe]:
        direction: Direction = (-1, 0, 0)
        if direction in self.blocked:
            return None
        seg_start = window.start - blk
        segment = _feasible_or_none(seg_start, window.start - 1, window.delay, self.n)
        if segment is None:
            return None
        concat = TimeDelayWindow(segment.start, window.end, window.delay)
        if concat.size > self.config.s_max or concat.y_start < 0:
            return None
        return direction, segment, concat


def _feasible_or_none(start: int, end: int, delay: int, n: int) -> Optional[TimeDelayWindow]:
    """Build a window when it fits inside both series, else None."""
    if start < 0 or end >= n or end < start:
        return None
    if start + delay < 0 or end + delay >= n:
        return None
    return TimeDelayWindow(start=start, end=end, delay=delay)
