from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wsnqos.linkest import LinkStats


class DequeWindow:
    """The reference window: a deque that pops its oldest outcome once it
    holds `window`, with the same counters and ratio as LinkStats."""

    def __init__(self, window):
        self.window = window
        self.outcomes = deque()
        self.received = 0
        self.ratio = 1.0

    def record_outcome(self, delivered):
        if len(self.outcomes) == self.window:
            if self.outcomes.popleft():
                self.received -= 1
        self.outcomes.append(delivered)
        if delivered:
            self.received += 1
        self.ratio = self.received / len(self.outcomes)


@st.composite
def windows_and_outcomes(draw):
    # sequences up to 4x the window, their length drawn first so that long
    # ones, which wrap the ring several times, are common
    window = draw(st.integers(1, 300))
    length = draw(st.integers(0, 4 * window))
    outcomes = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    return window, outcomes


def test_bootstrap_is_one():
    assert LinkStats().prr() == 1.0


def test_first_delivery():
    stats = LinkStats()
    stats.record_outcome(True)
    assert stats.sent_count == 1
    assert stats.received_count == 1
    assert stats.prr() == 1.0


def test_window_eviction():
    stats = LinkStats(window=2)
    stats.record_outcome(True)
    stats.record_outcome(True)
    stats.record_outcome(False)
    assert stats.sent_count == 2
    assert stats.prr() == 0.5


def test_eight_of_ten():
    stats = LinkStats()
    for i in range(10):
        stats.record_outcome(i not in (3, 7))
    assert stats.prr() == pytest.approx(0.8)


def test_total_loss():
    stats = LinkStats()
    for _ in range(5):
        stats.record_outcome(False)
    assert stats.prr() == 0.0


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        LinkStats(window=0)


@given(st.lists(st.booleans(), max_size=300), st.integers(1, 50))
def test_bounds_counters_and_determinism(outcomes, window):
    a = LinkStats(window)
    b = LinkStats(window)
    for outcome in outcomes:
        a.record_outcome(outcome)
        b.record_outcome(outcome)
        assert 0.0 <= a.prr() <= 1.0
        assert a.received_count <= a.sent_count <= a.window
        assert a.prr() == b.prr()
    # counters always agree with the retained tail of the outcome list
    tail = outcomes[-window:]
    assert a.sent_count == len(tail)
    assert a.received_count == sum(tail)


@given(windows_and_outcomes())
@example((1, [True, False, False, True, True]))
@example((300, [i % 7 != 3 for i in range(1200)]))
def test_ring_matches_the_deque_window(case):
    window, outcomes = case
    ring = LinkStats(window)
    reference = DequeWindow(window)
    assert ring.outcomes() == []
    for outcome in outcomes:
        ring.record_outcome(outcome)
        reference.record_outcome(outcome)
        assert ring.sent_count == len(reference.outcomes)
        assert ring.received_count == reference.received
        assert ring.prr() == reference.ratio
        assert ring.outcomes() == list(reference.outcomes)


def test_outcomes_is_a_copy():
    stats = LinkStats(window=2)
    for outcome in (True, False, True):
        stats.record_outcome(outcome)
    window = stats.outcomes()
    assert window == [False, True]
    window.clear()
    assert stats.outcomes() == [False, True]
    assert stats.sent_count == 2


def test_converges_to_link_quality_across_seeds():
    # independent loss 0.2, window 100: the settled estimate is a
    # Binomial(100, 0.8)/100 draw, so its 95% band is +-0.08; check that
    # band and that the across-seed mean is tight around the true 0.8
    estimates = []
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        stats = LinkStats(window=100)
        for _ in range(500):
            stats.record_outcome(rng.random() >= 0.2)
        estimates.append(stats.prr())
    hits = sum(1 for e in estimates if 0.72 <= e <= 0.88)
    assert hits >= 17
    assert abs(sum(estimates) / len(estimates) - 0.8) < 0.02
