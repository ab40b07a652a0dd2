"""Sliding-window packet reception rate (PRR) per directed link.

PRR = received / sent over the last `window` transmissions; a never-used
link reports 1.0, the minimum reliability penalty in the routing cost rather
than an infinite one. engine.Link subclasses LinkStats, so each directed
link is one slotted record of its send costs and its window.

The window is a plain list that grows by append with the link's sends, so a
link that has sent k < window times holds k outcomes, not a full block.
Once it holds `window` outcomes it is a ring: each new outcome overwrites
the oldest, at the stored index `_next`.
"""

from __future__ import annotations


class LinkStats:
    """Window of the most recent send outcomes on one directed link.

    `ratio` is the current PRR, kept up to date by record_outcome; prr()
    returns it, and Simulation._route reads the field directly.
    """

    __slots__ = ("window", "_outcomes", "_next", "_received", "ratio")

    def __init__(self, window: int = 100):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._outcomes: list[bool] = []
        # the oldest outcome's index once the window is full; 0 before
        self._next = 0
        self._received = 0
        self.ratio = 1.0

    @property
    def sent_count(self) -> int:
        return len(self._outcomes)

    @property
    def received_count(self) -> int:
        return self._received

    def record_outcome(self, delivered: bool) -> None:
        """Add one outcome, overwriting the oldest once the window is full.

        In a full window an outcome equal to the one it overwrites leaves
        the count, and so the ratio, as they were.
        """
        outcomes = self._outcomes
        n = len(outcomes)
        if n == self.window:
            i = self._next
            if outcomes[i] != delivered:
                outcomes[i] = delivered
                self._received += 1 if delivered else -1
                self.ratio = self._received / n
            self._next = (i + 1) % n
        else:
            outcomes.append(delivered)
            if delivered:
                self._received += 1
            self.ratio = self._received / (n + 1)

    def outcomes(self) -> list[bool]:
        """The outcomes in the window, oldest first, as a new list."""
        i = self._next
        return self._outcomes[i:] + self._outcomes[:i]

    def prr(self) -> float:
        """Reception ratio in [0, 1]; 1.0 for a never-used link."""
        return self.ratio

    def __repr__(self) -> str:
        return (
            f"LinkStats(window={self.window}, sent={self.sent_count}, "
            f"received={self._received})"
        )
