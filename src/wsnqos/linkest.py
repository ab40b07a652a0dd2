"""Sliding-window packet reception rate (PRR) per directed link.

PRR = received / sent over the last `window` transmissions; a never-used
link reports 1.0, the minimum reliability penalty in the routing cost rather
than an infinite one. engine.Link subclasses LinkStats, so each directed
link is one slotted record of its send costs and its window.
"""

from __future__ import annotations

from collections import deque


class LinkStats:
    """Ring of the most recent send outcomes on one directed link.

    `ratio` is the current PRR, kept up to date by record_outcome; prr()
    returns it, and Simulation._route reads the field directly.
    """

    __slots__ = ("window", "_outcomes", "_received", "ratio")

    def __init__(self, window: int = 100):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._outcomes: deque[bool] = deque()
        self._received = 0
        self.ratio = 1.0

    @property
    def sent_count(self) -> int:
        return len(self._outcomes)

    @property
    def received_count(self) -> int:
        return self._received

    def record_outcome(self, delivered: bool) -> None:
        """Append one outcome, evicting the oldest once the window is full."""
        if len(self._outcomes) == self.window:
            if self._outcomes.popleft():
                self._received -= 1
        self._outcomes.append(delivered)
        if delivered:
            self._received += 1
        self.ratio = self._received / len(self._outcomes)

    def prr(self) -> float:
        """Reception ratio in [0, 1]; 1.0 for a never-used link."""
        return self.ratio

    def __repr__(self) -> str:
        return (
            f"LinkStats(window={self.window}, sent={self.sent_count}, "
            f"received={self._received})"
        )
