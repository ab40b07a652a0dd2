"""Receiver-side runtime: packet records, dual priority queues, deadline expiry.

Each relay keeps two FIFO queues. Real-time packets always serve before
non-real-time ones, service is never preempted, and packets whose deadline
passed while queued are discarded before the next dequeue.

Most arrivals find their node idle and never queue, so a class's queue is
not built until a packet first queues there: until then it is NO_QUEUE, one
empty tuple that every node shares, which every read, length check and pop
loop here and in the engine sees as an empty queue.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .energy import RadioParams


class TrafficClass(Enum):
    RT = "rt"
    NRT = "nrt"

    # members are singletons, so identity hashing is consistent with Enum
    # equality, and it runs in C where Enum.__hash__ runs Python code on
    # every (node, cls) key
    __hash__ = object.__hash__


@dataclass(slots=True)
class Packet:
    """One routed data unit. arrived_at is when it reached the node that
    holds it, its creation time at its source; its wait there starts then."""

    packet_id: int
    cls: TrafficClass
    source: int
    created_at: float
    deadline: float
    arrived_at: float = field(init=False)

    def __post_init__(self) -> None:
        if self.deadline <= self.created_at:
            raise ValueError("deadline must be after creation time")
        self.arrived_at = self.created_at


# the queue of a class no packet has queued in yet, shared by every node
NO_QUEUE: tuple = ()


@dataclass(slots=True)
class NodeQueues:
    """Two bounded FIFO queues plus the packet currently on the radio; each
    queue is NO_QUEUE until classify_enqueue builds its deque."""

    capacity: int = 64
    rt: deque | tuple = NO_QUEUE
    nrt: deque | tuple = NO_QUEUE
    in_service: Packet | None = None


def classify_enqueue(queues: NodeQueues, packet: Packet) -> bool:
    """Append the packet to its class queue, building the queue's deque at
    its first packet; False when the queue is full. A queue that has
    emptied keeps its deque: the check is for the sentinel, not for an
    empty queue."""
    rt = packet.cls is TrafficClass.RT
    q = queues.rt if rt else queues.nrt
    if len(q) >= queues.capacity:
        return False
    if q is NO_QUEUE:
        q = deque()
        if rt:
            queues.rt = q
        else:
            queues.nrt = q
    q.append(packet)
    return True


def dequeue_next(queues: NodeQueues) -> Packet | None:
    """Head of the RT queue, else head of the NRT queue, else None."""
    if queues.rt:
        return queues.rt.popleft()
    if queues.nrt:
        return queues.nrt.popleft()
    return None


def expire_drops(queues: NodeQueues, now: float) -> list[Packet]:
    """Remove and return every queued packet whose deadline is already past.

    The packet in service, if any, is untouched.
    """
    dropped: list[Packet] = []
    for q in (queues.rt, queues.nrt):
        if not q:
            continue
        survivors = [p for p in q if p.deadline >= now]
        if len(survivors) != len(q):
            dropped.extend(p for p in q if p.deadline < now)
            q.clear()
            q.extend(survivors)
    return dropped


def service_time(bits: int, radio: RadioParams) -> float:
    """Deterministic transmission time of a packet of `bits`: bits / bandwidth."""
    return bits / radio.bandwidth


class RateEstimator:
    """Online per-class arrival-rate estimate at one node.

    Exponentially decayed arrival counter: each arrival adds an impulse of
    mass 1/tau and the total decays with time constant tau, so the reading
    is a low-pass-filtered arrival rate. Unlike an interarrival average it
    is unbiased under bursty arrivals (relayed traffic leaves upstream nodes
    back-to-back) and decays toward zero when a stream goes quiet instead of
    freezing at its last value.

    Simulation._route repeats rate_at on `level`, `last_arrival` and `tau`
    inline, with the same float operations in the same order;
    tests/test_engine.py::test_decayed_rates_and_prr_windows_match_exactly
    keeps them in step.
    """

    __slots__ = ("tau", "level", "last_arrival")

    def __init__(self, tau: float = 1.0):
        if tau <= 0.0:
            raise ValueError("tau must be > 0")
        if not math.isfinite(1.0 / tau):
            raise ValueError(f"1 / tau must be finite, got tau = {tau!r}")
        self.tau = tau
        self.level = 0.0
        self.last_arrival = 0.0

    def observe(self, now: float) -> None:
        gap = now - self.last_arrival
        if gap > 0.0:
            self.level *= math.exp(-gap / self.tau)
            self.last_arrival = now
        self.level += 1.0 / self.tau

    def rate_at(self, now: float) -> float:
        """Estimated arrival rate as seen at time `now` (>= last arrival)."""
        gap = now - self.last_arrival
        if gap <= 0.0:
            return self.level
        return self.level * math.exp(-gap / self.tau)
