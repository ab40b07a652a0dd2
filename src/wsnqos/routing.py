"""Sender-side forwarding decision.

For each packet the sender enumerates its allowed neighbors (in radio range
and closer to the sink than itself), predicts the per-hop delay from the
neighbor's queue state (class-dependent priority wait plus the transmission
time, as SPEED times a hop from send to acknowledgement), reads the
neighbor's usable energy and link reception rate, and scores each
candidate with

    cost = alpha * delay + beta * (1 / energy) + gamma * (1 / prr)

in raw SI units. The neighbor with the smallest finite cost wins, ties going
to the lowest node id. A packet whose estimated remaining path delay cannot
meet its deadline is dropped before any energy is spent on it.

`Simulation._route` in engine.py makes the same decision in one pass over
scalars, without building these objects. The predictive check is monotone
in the delay, so the pass checks each stable candidate's delay until one
keeps the packet. A delay is at least the service time x, so alpha * x +
beta / energy + gamma / prr bounds a candidate's cost from below; once the
packet is kept, the pass skips the queue model of a candidate whose bound
cannot beat the best cost so far. The functions here are the readable
reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import RadioParams, rx_energy
# bound here because perfbench/tracer.py wraps hops_linear on this module;
# the engine now takes geometry.hop_estimate over the stored sink distance
from .geometry import Position, hops_linear  # noqa: F401
from .node import TrafficClass, service_time
from .queueing import QueueModelParams, UnstableError, wait_nrt, wait_rt


@dataclass(frozen=True)
class CostWeights:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.gamma) < 0.0:
            raise ValueError("cost weights must be >= 0")
        if self.alpha == self.beta == self.gamma == 0.0:
            raise ValueError("cost weights must not all be zero")


@dataclass(frozen=True)
class NeighborView:
    """What the sender can see of one candidate next hop."""

    node_id: int
    residual_energy: float  # J; math.inf for the sink, whose battery never drains
    queue_params: QueueModelParams
    prr: float


@dataclass
class NeighborEntry:
    """One scored row of the neighbor table."""

    node_id: int
    predicted_delay: float  # s; inf when the neighbor's queue is unstable
    usable_energy: float  # J; residual minus the receive cost of this packet
    prr: float
    cost: float


def link_cost(
    predicted_delay: float, usable_energy: float, prr: float, weights: CostWeights
) -> float:
    """Weighted cost of one candidate hop; +inf marks an unusable neighbor."""
    if not math.isfinite(predicted_delay):
        return math.inf
    if usable_energy <= 0.0 or prr <= 0.0:
        return math.inf
    return (
        weights.alpha * predicted_delay
        + weights.beta / usable_energy
        + weights.gamma / prr
    )


def predicted_hop_delay(
    packet_cls: TrafficClass, params: QueueModelParams, service_time: float
) -> float:
    """Class-dependent mean wait at the neighbor plus the packet's own
    transmission time `service_time`: the time from handing the packet to
    the neighbor until that neighbor has sent it on.

    Returns +inf when the neighbor's queue model is unstable.
    """
    try:
        if packet_cls is TrafficClass.RT:
            wait = wait_rt(params)
        else:
            wait = wait_nrt(params)
    except UnstableError:
        return math.inf
    return wait + service_time


def build_neighbor_table(
    sender: Position,
    packet_cls: TrafficClass,
    candidates: list[NeighborView],
    packet_bits: int,
    radio: RadioParams,
    weights: CostWeights,
) -> list[NeighborEntry]:
    """Score every candidate (already filtered to the allowed region)."""
    service = service_time(packet_bits, radio)
    rx_cost = rx_energy(packet_bits, radio)
    table = []
    for cand in candidates:
        delay = predicted_hop_delay(packet_cls, cand.queue_params, service)
        usable = cand.residual_energy - rx_cost
        table.append(
            NeighborEntry(
                node_id=cand.node_id,
                predicted_delay=delay,
                usable_energy=usable,
                prr=cand.prr,
                cost=link_cost(delay, usable, cand.prr, weights),
            )
        )
    return table


def select_next_hop(table: list[NeighborEntry], weights: CostWeights) -> int | None:
    """Id of the entry with minimum finite cost, lowest id on ties.

    None when the table is empty or no entry has finite cost.
    """
    best: tuple[float, int] | None = None
    for entry in table:
        c = link_cost(entry.predicted_delay, entry.usable_energy, entry.prr, weights)
        if not math.isfinite(c):
            continue
        key = (c, entry.node_id)
        if best is None or key < best:
            best = key
    return best[1] if best is not None else None


def min_finite_delay(table: list[NeighborEntry]) -> float | None:
    """Smallest finite predicted delay in the table, None when there is none."""
    best = math.inf
    for entry in table:
        if entry.predicted_delay < best:
            best = entry.predicted_delay
    return best if math.isfinite(best) else None


def predictive_drop_check(
    deadline: float, now: float, hops: int, min_hop_delay: float
) -> bool:
    """True to keep the packet, False to drop it as unable to meet its deadline.

    The remaining path is `hops` hops, hops_linear(sender, sink, spacing),
    each costing at least the best currently-predicted per-hop delay.
    """
    if now > deadline:
        return False
    return now + hops * min_hop_delay <= deadline
