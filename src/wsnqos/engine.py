"""Deterministic discrete-event core.

One run owns an event calendar keyed by (time, sequence), per-node state
(battery, dual priority queues, per-link reception statistics, arrival-rate
estimates) and a metrics ledger. Every stochastic stream (placement, each
source's per-class traffic, each directed link's loss draws) has its own
generator derived from the master seed by a stable label, so identical
(config, seed) pairs reproduce bit-identical results and changing one
stream never perturbs the others.

Idealizations, chosen to isolate the routing behavior under test: zero
propagation delay, ground-truth per-packet delivery feedback to the sender
(a free link-layer acknowledgment), senders read neighbors' current queue
and energy state at zero message cost, and the sink is mains-powered.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import SINK_ID, ScenarioConfig
from .energy import Battery, rx_energy, tx_energy
from .geometry import Position, Topology, allowed_area, delta, distance
from .linkest import LinkStats
from .node import (
    NodeQueues,
    Packet,
    RateEstimator,
    TrafficClass,
    classify_enqueue,
    dequeue_next,
    expire_drops,
    service_time,
)
# _route scores candidates inline; the readable reference path stays bound
# here so tests and perfbench/tracer.py find it by name on this module.
from .routing import (  # noqa: F401
    build_neighbor_table,
    min_finite_delay,
    predictive_drop_check,
    select_next_hop,
)


class EventKind(Enum):
    PACKET_GENERATED = "packet_generated"
    TRANSMISSION_COMPLETE = "transmission_complete"
    NODE_DEATH = "node_death"


class DropCause(Enum):
    EXPIRED = "expired"
    PREDICTIVE = "predictive"
    NO_ROUTE = "no_route"
    BUFFER_OVERFLOW = "buffer_overflow"
    NODE_DEATH = "node_death"
    LINK_LOSS = "link_loss"


@dataclass(frozen=True)
class DeliveredRecord:
    """Per-delivery detail kept only when trace collection is enabled."""

    packet_id: int
    cls: TrafficClass
    created_at: float
    deadline: float
    arrival: float
    hop_trace: tuple[tuple[int, float], ...]


@dataclass
class Metrics:
    """Counters and samples accumulated over one run."""

    generated: Counter = field(default_factory=Counter)  # cls -> n
    delivered: Counter = field(default_factory=Counter)  # cls -> n
    drops: Counter = field(default_factory=Counter)  # (cause, cls) -> n
    delays: dict = field(
        default_factory=lambda: {TrafficClass.RT: [], TrafficClass.NRT: []}
    )
    delivered_times: list[float] = field(default_factory=list)
    wait_sum: defaultdict = field(default_factory=lambda: defaultdict(float))
    wait_count: Counter = field(default_factory=Counter)  # (node, cls) -> n
    tx_by_node: Counter = field(default_factory=Counter)
    rx_by_node: Counter = field(default_factory=Counter)
    tx_by_link: Counter = field(default_factory=Counter)  # (from, to) -> n
    total_energy: float = 0.0
    energy_by_node: dict[int, float] = field(default_factory=dict)
    residual_by_node: dict[int, float] = field(default_factory=dict)
    deaths: list[tuple[float, int]] = field(default_factory=list)
    in_flight: int = 0
    end_time: float = 0.0
    sensor_count: int = 0
    delivered_records: list[DeliveredRecord] | None = None

    def generated_total(self) -> int:
        return sum(self.generated.values())

    def delivered_total(self) -> int:
        return sum(self.delivered.values())

    def drops_total(self) -> int:
        return sum(self.drops.values())

    def drop_count(self, cause: DropCause) -> int:
        return sum(n for (c, _cls), n in self.drops.items() if c is cause)

    @property
    def first_death_time(self) -> float | None:
        return self.deaths[0][0] if self.deaths else None

    def delay_stats(self, cls: TrafficClass) -> tuple[float, float, float]:
        """(mean, p95, max) end-to-end delay for one class; NaNs when empty."""
        values = self.delays[cls]
        if not values:
            return (math.nan, math.nan, math.nan)
        arr = np.asarray(values)
        return (float(arr.mean()), float(np.percentile(arr, 95)), float(arr.max()))

    def mean_wait(self, node: int, cls: TrafficClass) -> float:
        """Mean queueing wait of packets that entered service at a node."""
        count = self.wait_count[(node, cls)]
        if count == 0:
            return math.nan
        return self.wait_sum[(node, cls)] / count

    def alive_at(self, t: float) -> int:
        """Sensor nodes still alive at time t."""
        return self.sensor_count - sum(1 for when, _nid in self.deaths if when <= t)


def stream_rng(master_seed: int, label: str) -> np.random.Generator:
    """Generator for one named stochastic stream of a run."""
    tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([master_seed, tag]))


def poisson_arrival_times(rate: float, horizon: float, rng: np.random.Generator):
    """Arrival instants of a Poisson process with the given rate on (0, horizon]."""
    if rate <= 0.0 or horizon <= 0.0:
        return np.empty(0)
    chunks = []
    last = 0.0
    while last <= horizon:
        n = max(64, int(rate * (horizon - last) * 1.2) + 64)
        gaps = rng.exponential(1.0 / rate, size=n)
        chunk = last + np.cumsum(gaps)
        chunks.append(chunk)
        last = float(chunk[-1])
    times = np.concatenate(chunks)
    return times[times <= horizon]


@dataclass
class NodeState:
    node_id: int
    position: Position
    battery: Battery | None  # None: mains-powered (the sink)
    queues: NodeQueues
    alive: bool = True
    link_stats: dict[int, LinkStats] = field(default_factory=dict)
    rate_est: dict[TrafficClass, RateEstimator] = field(default_factory=dict)


class Simulation:
    """Single deterministic run of one scenario."""

    def __init__(self, cfg: ScenarioConfig, collect_traces: bool = False):
        self.cfg = cfg
        self.radio = cfg.radio_params()
        self.weights = cfg.weights()
        # per-run constants of the next-hop cost: service time x = size /
        # bandwidth, its square, the service term of the predicted delay
        # (adding 0.0 leaves a non-negative delay unchanged) and the
        # receive cost the candidate would pay
        x = cfg.packet_bits / self.radio.bandwidth
        self._x = x
        self._x2 = x * x
        self._service = x if cfg.include_service_time else 0.0
        self._rx_cost = cfg.packet_bits * self.radio.e_elec
        self.now = 0.0
        self._seq = 0
        # events are (time, seq, kind, node, cls, packet, target); the unique
        # seq breaks time ties in scheduling order, so the tuple comparison
        # never reaches the later fields
        self.heap: list[tuple] = []
        self.metrics = Metrics(sensor_count=cfg.node_count - 1)
        if collect_traces:
            self.metrics.delivered_records = []

        self.topology = self._place_nodes()
        self.sink_position = self.topology.positions[SINK_ID]
        self.nodes: dict[int, NodeState] = {}
        for nid, pos in self.topology.positions.items():
            self.nodes[nid] = NodeState(
                node_id=nid,
                position=pos,
                battery=None if nid == SINK_ID else Battery(cfg.initial_energy),
                queues=NodeQueues(capacity=cfg.queue_capacity),
                rate_est={
                    cls: RateEstimator(cfg.rate_tau) for cls in TrafficClass
                },
            )
        self.allowed_static = {
            nid: self.topology.allowed_neighbor_ids(nid)
            for nid in self.topology.positions
            if nid != SINK_ID
        }
        self._area_cache: dict[int, float] = {}
        self._loss_rngs: dict[tuple[int, int], np.random.Generator] = {}

        self.source_set = set(cfg.source_ids())
        self.alive_sources = len(self.source_set)
        self._pending_deaths = 0
        self._next_packet_id = 0

        self._arrivals: dict[tuple[int, TrafficClass], np.ndarray] = {}
        self._arrival_idx: dict[tuple[int, TrafficClass], int] = {}
        rates = {TrafficClass.RT: cfg.rate_rt, TrafficClass.NRT: cfg.rate_nrt}
        for nid in sorted(self.source_set):
            for cls in TrafficClass:
                rng = stream_rng(cfg.seed, f"traffic/{nid}/{cls.value}")
                self._arrivals[(nid, cls)] = poisson_arrival_times(
                    rates[cls], cfg.duration, rng
                )
                self._arrival_idx[(nid, cls)] = 0
                self._schedule_next_arrival(nid, cls)

    # -- setup ---------------------------------------------------------

    def _place_nodes(self) -> Topology:
        cfg = self.cfg
        rng = stream_rng(cfg.seed, "placement")
        positions = {SINK_ID: Position(cfg.sink_x, cfg.sink_y)}
        for nid in range(1, cfg.node_count):
            if nid in cfg.positions:
                x, y = cfg.positions[nid]
            else:
                x = rng.uniform(0.0, cfg.grid_width)
                y = rng.uniform(0.0, cfg.grid_height)
            positions[nid] = Position(x, y)
        return Topology(positions, SINK_ID, cfg.radio_range)

    def _loss_rng(self, u: int, v: int) -> np.random.Generator:
        key = (u, v)
        rng = self._loss_rngs.get(key)
        if rng is None:
            rng = stream_rng(self.cfg.seed, f"loss/{u}/{v}")
            self._loss_rngs[key] = rng
        return rng

    def _push(
        self,
        time: float,
        kind: EventKind,
        node: int,
        cls: TrafficClass | None = None,
        packet: Packet | None = None,
        target: int | None = None,
    ) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (time, self._seq, kind, node, cls, packet, target))

    def _schedule_next_arrival(self, nid: int, cls: TrafficClass) -> None:
        idx = self._arrival_idx[(nid, cls)]
        times = self._arrivals[(nid, cls)]
        if idx < len(times):
            self._arrival_idx[(nid, cls)] = idx + 1
            self._push(float(times[idx]), EventKind.PACKET_GENERATED, nid, cls=cls)

    # -- main loop -----------------------------------------------------

    def run(self) -> Metrics:
        horizon = self.cfg.duration
        heap = self.heap
        generated = EventKind.PACKET_GENERATED
        tx_complete = EventKind.TRANSMISSION_COMPLETE
        while heap:
            time, _seq, kind, nid, cls, packet, target = heapq.heappop(heap)
            if time > horizon:
                break
            if time < self.now:
                raise RuntimeError(
                    f"event calendar went backwards: {time!r} < {self.now!r}"
                )
            self.now = time
            if kind is generated:
                self._on_generated(nid, cls)
            elif kind is tx_complete:
                self._on_tx_complete(nid, packet, target)
            else:
                self._on_node_death(nid)
            if self.alive_sources == 0 and self._pending_deaths == 0:
                break
        self._finalize()
        return self.metrics

    # -- handlers ------------------------------------------------------

    def _on_generated(self, nid: int, cls: TrafficClass) -> None:
        node = self.nodes[nid]
        if not node.alive:
            return
        self._schedule_next_arrival(nid, cls)
        budget = (
            self.cfg.deadline_rt if cls is TrafficClass.RT else self.cfg.deadline_nrt
        )
        packet = Packet(
            packet_id=self._next_packet_id,
            cls=cls,
            size_bits=self.cfg.packet_bits,
            source=nid,
            sink=SINK_ID,
            created_at=self.now,
            deadline=self.now + budget,
        )
        self._next_packet_id += 1
        self.metrics.generated[cls] += 1
        node.rate_est[cls].observe(self.now)
        if not classify_enqueue(node.queues, packet):
            self._drop(packet, DropCause.BUFFER_OVERFLOW)
        elif node.queues.in_service is None:
            self._try_start_service(node)

    def _on_tx_complete(self, nid: int, packet: Packet, target: int) -> None:
        node = self.nodes[nid]
        node.queues.in_service = None
        if not node.alive:
            # receive debits killed the node mid-service
            self._drop(packet, DropCause.NODE_DEATH)
            return
        self._deliver(node, packet, target)
        if node.alive and node.queues.in_service is None:
            self._try_start_service(node)

    def _on_node_death(self, nid: int) -> None:
        self._pending_deaths -= 1
        node = self.nodes[nid]
        for q in (node.queues.rt, node.queues.nrt):
            while q:
                self._drop(q.popleft(), DropCause.NODE_DEATH)
        self.metrics.deaths.append((self.now, nid))
        if nid in self.source_set:
            self.alive_sources -= 1

    # -- packet lifecycle ----------------------------------------------

    def _try_start_service(self, node: NodeState) -> None:
        queues = node.queues
        if queues.in_service is not None or not node.alive:
            return
        while True:
            for p in expire_drops(queues, self.now):
                self._drop(p, DropCause.EXPIRED)
            packet = dequeue_next(queues)
            if packet is None:
                return
            decision = self._route(node, packet)
            if isinstance(decision, DropCause):
                self._drop(packet, decision)
                continue
            key = (node.node_id, packet.cls)
            self.metrics.wait_sum[key] += self.now - packet.hop_trace[-1][1]
            self.metrics.wait_count[key] += 1
            queues.in_service = packet
            self._push(
                self.now + service_time(packet, self.radio),
                EventKind.TRANSMISSION_COMPLETE,
                node.node_id,
                packet=packet,
                target=decision,
            )
            return

    def _route(self, node: NodeState, packet: Packet) -> int | DropCause:
        """Next hop for the packet, or the cause to drop it.

        One pass over the allowed, alive neighbors gives what
        build_neighbor_table, min_finite_delay and select_next_hop give,
        with the same float operations in the same order: each candidate's
        predicted delay (the closed-form priority wait, inf when its queue
        model is unstable, plus the service term) and its cost
        alpha*delay + beta/usable + gamma/prr (inf when usable <= 0 or
        prr <= 0). The lowest finite cost wins; ids ascend, so a strict
        comparison keeps the lowest id on ties. The predictive-drop check
        counts every alive candidate and takes the smallest finite delay
        over all of them, whatever their cost.
        """
        now = self.now
        nodes = self.nodes
        link_stats = node.link_stats
        x = self._x
        x2 = self._x2
        service = self._service
        rx_cost = self._rx_cost
        weights = self.weights
        alpha, beta, gamma = weights.alpha, weights.beta, weights.gamma
        is_rt = packet.cls is TrafficClass.RT
        rt, nrt = TrafficClass.RT, TrafficClass.NRT
        alive = 0
        min_delay = math.inf
        best_cost = math.inf
        best = None
        for nid in self.allowed_static[node.node_id]:
            st = nodes[nid]
            if not st.alive:
                continue
            alive += 1
            rate_est = st.rate_est
            lam1 = rate_est[rt].rate_at(now)
            lam2 = rate_est[nrt].rate_at(now)
            if lam1 < 0.0 or lam2 < 0.0:
                raise ValueError(f"arrival rate must be >= 0, got {lam1}, {lam2}")
            rho1 = lam1 * x
            if is_rt:
                if rho1 >= 1.0:
                    continue
                delay = 0.5 * (lam1 * x2 + lam2 * x2) / (1.0 - rho1)
            else:
                rho2 = lam2 * x
                if rho1 + rho2 >= 1.0:
                    continue
                delay = (
                    0.5 * (lam1 * x2 + lam2 * x2) / ((1.0 - rho1) * (1.0 - rho1 - rho2))
                )
            delay += service
            if delay < min_delay:
                min_delay = delay
            battery = st.battery
            usable = (math.inf if battery is None else battery.residual) - rx_cost
            stats = link_stats.get(nid)
            prr = 1.0 if stats is None else stats.prr()
            if usable <= 0.0 or prr <= 0.0:
                continue
            cost = alpha * delay + beta / usable + gamma / prr
            if cost < best_cost:
                best_cost = cost
                best = nid
        if alive == 0:
            return DropCause.NO_ROUTE
        if self.cfg.predictive_drop:
            area = self._allowed_area(node.node_id)
            if area > 0.0 and min_delay < math.inf:
                spacing = delta(area, alive)
                if spacing > 0.0 and not predictive_drop_check(
                    packet.deadline,
                    now,
                    node.position,
                    self.sink_position,
                    spacing,
                    min_delay,
                ):
                    return DropCause.PREDICTIVE
        if best is None:
            return DropCause.NO_ROUTE
        return best

    def _deliver(self, sender: NodeState, packet: Packet, target_id: int) -> None:
        k = packet.size_bits
        target = self.nodes[target_id]
        amount = tx_energy(k, distance(sender.position, target.position), self.radio)
        self.metrics.total_energy += sender.battery.debit(amount)
        if not sender.battery.alive:
            self._kill(sender)
            self._drop(packet, DropCause.NODE_DEATH)
            return
        self.metrics.tx_by_node[sender.node_id] += 1
        self.metrics.tx_by_link[(sender.node_id, target_id)] += 1
        stats = self._link_stats(sender, target_id)
        loss_p = self.cfg.loss_for(sender.node_id, target_id)
        if loss_p > 0.0 and self._loss_rng(sender.node_id, target_id).random() < loss_p:
            stats.record_outcome(False)
            self._drop(packet, DropCause.LINK_LOSS)
            return
        if target_id == SINK_ID:
            stats.record_outcome(True)
            if packet.deadline < self.now:
                self._drop(packet, DropCause.EXPIRED)
                return
            packet.hop_trace.append((target_id, self.now))
            self._record_delivery(packet)
            return
        if not target.alive:
            stats.record_outcome(False)
            self._drop(packet, DropCause.NODE_DEATH)
            return
        self.metrics.total_energy += target.battery.debit(rx_energy(k, self.radio))
        if not target.battery.alive:
            self._kill(target)
            stats.record_outcome(False)
            self._drop(packet, DropCause.NODE_DEATH)
            return
        self.metrics.rx_by_node[target_id] += 1
        stats.record_outcome(True)
        target.rate_est[packet.cls].observe(self.now)
        if packet.deadline < self.now:
            self._drop(packet, DropCause.EXPIRED)
            return
        packet.hop_trace.append((target_id, self.now))
        if not classify_enqueue(target.queues, packet):
            self._drop(packet, DropCause.BUFFER_OVERFLOW)
            return
        if target.queues.in_service is None:
            self._try_start_service(target)

    def _record_delivery(self, packet: Packet) -> None:
        m = self.metrics
        m.delivered[packet.cls] += 1
        m.delays[packet.cls].append(self.now - packet.created_at)
        m.delivered_times.append(self.now)
        prev = math.inf
        for nid, _when in packet.hop_trace:
            d = self.topology.distance_to_sink(nid)
            if d > prev:
                raise RuntimeError(
                    f"hop trace of packet {packet.packet_id} moved away from the sink"
                )
            prev = d
        if m.delivered_records is not None:
            m.delivered_records.append(
                DeliveredRecord(
                    packet_id=packet.packet_id,
                    cls=packet.cls,
                    created_at=packet.created_at,
                    deadline=packet.deadline,
                    arrival=self.now,
                    hop_trace=tuple(packet.hop_trace),
                )
            )

    def _kill(self, node: NodeState) -> None:
        node.alive = False
        self._pending_deaths += 1
        self._push(self.now, EventKind.NODE_DEATH, node.node_id)

    def _drop(self, packet: Packet, cause: DropCause) -> None:
        self.metrics.drops[(cause, packet.cls)] += 1

    # -- sender-visible neighbor state -----------------------------------

    def _link_stats(self, sender: NodeState, target_id: int) -> LinkStats:
        stats = sender.link_stats.get(target_id)
        if stats is None:
            stats = LinkStats(self.cfg.prr_window)
            sender.link_stats[target_id] = stats
        return stats

    def _allowed_area(self, nid: int) -> float:
        area = self._area_cache.get(nid)
        if area is None:
            pos = self.topology.positions[nid]
            if distance(pos, self.sink_position) <= 0.0:
                area = 0.0
            else:
                area = allowed_area(pos, self.sink_position, self.cfg.radio_range)
            self._area_cache[nid] = area
        return area

    def _finalize(self) -> None:
        m = self.metrics
        m.end_time = self.now
        for nid, st in self.nodes.items():
            if st.battery is not None:
                m.energy_by_node[nid] = st.battery.consumed
                m.residual_by_node[nid] = st.battery.residual
        m.in_flight = m.generated_total() - m.delivered_total() - m.drops_total()


def run(cfg: ScenarioConfig, collect_traces: bool = False) -> Metrics:
    """Run one scenario to completion and return its metrics."""
    return Simulation(cfg, collect_traces).run()
