"""Causal-direction analysis on extracted correlation windows.

The paper's conclusion: "the result of this work can also provide a
foundation for deeper data analysis, such as ... infer[ring] causal
effects from the extracted correlations."  This module takes that step
for each window TYCOS extracts:

* **Delay evidence** -- a window extracted at delay ``tau > 0`` already
  says the X-side events precede their Y-side echo.
* **Transfer-entropy evidence** -- within the window, compare
  ``TE(X -> Y)`` against ``TE(Y -> X)`` (conditional-MI based, see
  :mod:`repro.mi.cmi`); a positive gap supports X driving Y beyond what
  the delay alone shows (it controls for Y's own history).

The verdicts are deliberately conservative: correlation plus lead-lag
structure is *evidence of direction*, not proof of causation, and the
report says so in its labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.tycos import TycosResult
from repro.core.window import PairView, TimeDelayWindow
from repro.mi.cmi import transfer_entropy
from repro.reporting import format_table, title

__all__ = ["DirectionVerdict", "WindowDirection", "CausalityReport", "analyze_directions"]

#: Verdict labels, deliberately modest in their claims.
DirectionVerdict = str
X_LEADS = "x-leads-y"
Y_LEADS = "y-leads-x"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class WindowDirection:
    """Direction evidence for one extracted window.

    Attributes:
        window: the extracted window.
        te_forward: transfer entropy X -> Y inside the window (nats).
        te_backward: transfer entropy Y -> X inside the window (nats).
        verdict: combined lead-lag verdict.
    """

    window: TimeDelayWindow
    te_forward: float
    te_backward: float
    verdict: DirectionVerdict

    @property
    def te_gap(self) -> float:
        """Positive when the X -> Y direction carries more information."""
        return self.te_forward - self.te_backward


@dataclass
class CausalityReport:
    """Direction analysis over a search result."""

    directions: List[WindowDirection] = field(default_factory=list)

    def consensus(self) -> DirectionVerdict:
        """Majority verdict across windows (ties -> undecided)."""
        votes = {X_LEADS: 0, Y_LEADS: 0, UNDECIDED: 0}
        for d in self.directions:
            votes[d.verdict] += 1
        if votes[X_LEADS] > votes[Y_LEADS]:
            return X_LEADS
        if votes[Y_LEADS] > votes[X_LEADS]:
            return Y_LEADS
        return UNDECIDED

    def to_text(self) -> str:
        """Render per-window evidence plus the consensus."""
        headers = ["window", "delay", "TE(x->y)", "TE(y->x)", "verdict"]
        rows = [
            [
                f"[{d.window.start}, {d.window.end}]",
                d.window.delay,
                f"{d.te_forward:.3f}",
                f"{d.te_backward:.3f}",
                d.verdict,
            ]
            for d in self.directions
        ]
        body = format_table(headers, rows)
        return (
            title("Lead-lag direction analysis")
            + "\n"
            + body
            + f"\nconsensus: {self.consensus()}"
            + "\n(correlation + lead-lag structure, not proof of causation)"
        )


def _window_verdict(delay: int, te_gap: float, te_threshold: float) -> DirectionVerdict:
    delay_vote = np.sign(delay)
    te_vote = np.sign(te_gap) if abs(te_gap) >= te_threshold else 0
    score = delay_vote + te_vote
    if score > 0:
        return X_LEADS
    if score < 0:
        return Y_LEADS
    return UNDECIDED


def analyze_directions(
    x: np.ndarray,
    y: np.ndarray,
    result: TycosResult,
    te_lag: Optional[int] = None,
    te_threshold: float = 0.05,
    k: int = 4,
    min_window: int = 30,
) -> CausalityReport:
    """Judge the lead-lag direction of every extracted window.

    Args:
        x: the original X series the search ran on.
        y: the original Y series.
        result: the search result whose windows are analyzed.
        te_lag: history offset for the transfer entropies (default: the
            window's own |delay|, clamped to >= 1).
        te_threshold: minimum |TE gap| (nats) counted as directional
            evidence; below it only the window's delay sign votes.
        k: KSG neighbor count for the conditional MI.
        min_window: windows smaller than this are marked undecided (the
            conditional estimator needs more samples than plain KSG).

    Returns:
        A :class:`CausalityReport`.
    """
    pair = PairView(x, y)
    report = CausalityReport()
    for r in result.windows:
        w = r.window
        if w.size < min_window:
            report.directions.append(
                WindowDirection(window=w, te_forward=0.0, te_backward=0.0, verdict=UNDECIDED)
            )
            continue
        # The aligned spans covering both the window and its echo.
        lo = max(0, min(w.start, w.y_start))
        hi = min(pair.n - 1, max(w.end, w.y_end))
        xs = pair.x[lo : hi + 1]
        ys = pair.y[lo : hi + 1]
        lag = te_lag if te_lag is not None else max(1, abs(w.delay))
        if xs.size <= lag + k + 2:
            report.directions.append(
                WindowDirection(window=w, te_forward=0.0, te_backward=0.0, verdict=UNDECIDED)
            )
            continue
        forward = transfer_entropy(xs, ys, lag=lag, k=k)
        backward = transfer_entropy(ys, xs, lag=lag, k=k)
        verdict = _window_verdict(w.delay, forward - backward, te_threshold)
        report.directions.append(
            WindowDirection(window=w, te_forward=forward, te_backward=backward, verdict=verdict)
        )
    return report
