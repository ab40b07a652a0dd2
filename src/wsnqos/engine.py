"""Deterministic discrete-event core.

One run owns an event calendar keyed by (time, sequence), the node states
in a list indexed by node id (battery, dual priority queues, arrival-rate
estimates, and a Link, which is its own PRR window, per outgoing link that
has carried a send) and a metrics ledger; events name nodes by their
states. The node and link records are slotted: they hold no instance
dictionary. The calendar has two parts: a heap holds each traffic stream's
next arrival with its cursor, so a stream with none left or a dead source
holds nothing, and the ends of sends ride a FIFO. Every send lasts the
same transmission time x and starts at the current time, which never
decreases, so sends end in the order they start.

A hop takes two frames below the event loop. run() ends each send in
place and hands a packet that reached an alive node to _arrive; an idle
node routes it (_route) and puts it on the radio there, and a busy one
queues it. When a node falls idle with packets queued, _try_start_service
hands them to _serve, the queue path's copy of the send's start.

Every stochastic stream (placement, each source's per-class traffic, each
directed link's loss draws) has its own generator derived from the master
seed by a stable label, so identical (config, seed) pairs reproduce
bit-identical results and changing one stream never perturbs the others.
A lossy link takes its loss draws LOSS_CHUNK at a time: the same doubles,
in the same order, as one scalar draw per send.

A node dies at the debit that drains its battery, inside the event that
makes it, and its queued packets are dropped then; a run ends at its
horizon or on the event that kills its last source.

Idealizations, chosen to isolate the routing behavior under test: zero
propagation delay, ground-truth per-packet delivery feedback to the sender
(a free link-layer acknowledgment), senders read neighbors' current queue
and energy state at zero message cost, and the sink is mains-powered: its
battery holds infinite charge and never drains.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import routing
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


class DropCause(Enum):
    EXPIRED = "expired"
    PREDICTIVE = "predictive"
    NO_ROUTE = "no_route"
    BUFFER_OVERFLOW = "buffer_overflow"
    NODE_DEATH = "node_death"
    LINK_LOSS = "link_loss"

    # identity hashing in C for the (cause, cls) drop keys; see TrafficClass
    __hash__ = object.__hash__


@dataclass
class Metrics:
    """Counters and samples accumulated over one run.

    The per-node and per-link tallies (wait_sum, wait_count, rx_by_node,
    tx_by_link) are kept on the run's node and link records and filled in
    by Simulation._finalize, so they read empty until run() returns. A key
    appears only when its count is nonzero. delivered and tx_by_node are
    read from the delay samples and tx_by_link, each time they are read.
    energy_by_node and residual_by_node hold the sensors only: the sink is
    mains-powered, its battery infinite.

    Each end-to-end delay is kept, 8 B per sample, for an exact p95.
    delivered_by_bucket[i] counts the deliveries after timeline point i - 1
    and at or before point i (ScenarioConfig.timeline_points), one slot per
    timeline row; the last point is the duration, so every delivery has one.
    """

    generated: Counter = field(default_factory=Counter)  # cls -> n
    drops: Counter = field(default_factory=Counter)  # (cause, cls) -> n
    delays: dict = field(
        default_factory=lambda: {
            TrafficClass.RT: array("d"), TrafficClass.NRT: array("d")
        }
    )
    delivered_by_bucket: list[int] = field(default_factory=list)
    wait_sum: defaultdict = field(default_factory=lambda: defaultdict(float))
    wait_count: Counter = field(default_factory=Counter)  # (node, cls) -> n
    rx_by_node: Counter = field(default_factory=Counter)
    tx_by_link: Counter = field(default_factory=Counter)  # (from, to) -> n
    total_energy: float = 0.0
    energy_by_node: dict[int, float] = field(default_factory=dict)
    residual_by_node: dict[int, float] = field(default_factory=dict)
    deaths: list[tuple[float, int]] = field(default_factory=list)
    in_flight: int = 0
    end_time: float = 0.0
    sensor_count: int = 0

    @property
    def delivered(self) -> Counter:
        """cls -> deliveries: one per delay sample."""
        return Counter({cls: len(d) for cls, d in self.delays.items() if d})

    @property
    def tx_by_node(self) -> Counter:
        """node -> sends, summed over its links in tx_by_link."""
        sent = Counter()
        for (u, _v), n in self.tx_by_link.items():
            sent[u] += n
        return sent

    def generated_total(self) -> int:
        return sum(self.generated.values())

    def delivered_total(self) -> int:
        return sum(len(d) for d in self.delays.values())

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
        """Sensor nodes still alive at time t. Deaths are appended in time
        order, so those at or before t are a prefix of the list."""
        return self.sensor_count - bisect_right(self.deaths, t, key=lambda d: d[0])


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int, at least one:
    the words numpy's SeedSequence makes of each int in its entropy."""
    if n < 0:
        raise ValueError(f"seed words need a non-negative int, got {n}")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def stream_rng(master_seed: int, label: str) -> np.random.Generator:
    """Generator for one named stochastic stream of a run.

    Its entropy is the pair [master_seed, tag], tag a hash of the label.
    SeedSequence takes a uint32 array as its words unchanged, so handing it
    the words it would make of the pair gives the same pool without its
    per-int coercion; default_rng would wrap the same PCG64 in the same
    Generator.
    """
    tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    words = _uint32_words(master_seed) + _uint32_words(tag)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# numpy's SeedSequence: pool size in uint32 words and hash constants
# (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _pcg64_seed_words(entropy: np.ndarray) -> np.ndarray:
    """Row i of the result is np.random.SeedSequence(entropy[i])
    .generate_state(4, np.uint64), the words PCG64 seeds itself from.

    entropy is a (K, n) uint32 array, n <= 4. SeedSequence hashes a pool
    word past the end of its entropy as 0, so a row's trailing zero words
    change nothing. This is SeedSequence's mix_entropy and generate_state
    run over all K rows at once; the hash constants advance the same way
    for every row, so they stay Python ints.
    """
    rows, n = entropy.shape
    if n > _POOL_SIZE:
        raise ValueError(f"entropy of {n} words exceeds the pool of {_POOL_SIZE}")
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        result ^= result >> 16
        return result

    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = np.empty((rows, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        state[:, i] = value
    # each uint64 is two uint32 words, low word first, on any host
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands PCG64 the seed words _pcg64_seed_words made for one stream."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes the np.uint64 type itself: an identity test answers it
        # without building a dtype
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(
                f"holds 4 uint64 seed words, not {n_words} of {np.dtype(dtype)}"
            )
        return self.words


def stream_rngs(
    master_seed: int, labels: Iterable[str]
) -> Iterator[np.random.Generator]:
    """Yields stream_rng(master_seed, label) for each label, in order.

    The first next() hashes every label and mixes every seed in one pass,
    so each stream then costs its PCG64 alone. Each row of entropy is the
    seed's words, then the tag's low and high words: a tag under 2**32 has
    one word in stream_rng, and its high word 0 here is the padding
    SeedSequence would hash anyway. The generators are built one at a time,
    so a caller that draws from each and drops it holds one at a time.
    """
    digests = b"".join(hashlib.sha256(label.encode()).digest()[:8] for label in labels)
    tags = np.frombuffer(digests, dtype=">u8")
    seed_words = _uint32_words(master_seed)
    entropy = np.zeros((len(tags), len(seed_words) + 2), dtype=np.uint32)
    entropy[:, : len(seed_words)] = seed_words
    entropy[:, -2] = tags & _MASK32
    entropy[:, -1] = tags >> 32
    for words in _pcg64_seed_words(entropy):
        yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def poisson_arrival_times(
    rate: float, horizon: float, rng: np.random.Generator, first: float | None = None
) -> array:
    """Arrival instants of a Poisson process with the given rate on (0, horizon],
    as an array('d').

    The gaps are drawn in chunks of about 1.2 x the expected count left, and
    each instant is the last instant before its chunk plus a running sum of
    the chunk's gaps, summed one gap at a time and left to right as np.cumsum
    would. The sum stops at the first instant past the horizon, so a further
    chunk is drawn only when every instant so far is within it. The first
    gap is drawn alone, so a stream with no arrival in the horizon costs one
    draw; a Generator's scalar and array draws take the same values from its
    stream, so the instants do not depend on it. A caller that has drawn
    the first gap, rng.exponential(1.0 / rate), passes it as `first`.
    """
    times = array("d")
    if rate <= 0.0 or horizon <= 0.0:
        return times
    scale = 1.0 / rate
    if first is None:
        first = rng.exponential(scale)
    if first > horizon:
        return times
    append = times.append
    append(first)
    # the first chunk is `first` and n - 1 gaps after it, summed from 0.0
    n = max(64, int(rate * horizon * 1.2) + 64) - 1
    base, run = 0.0, first
    while True:
        for gap in memoryview(rng.exponential(scale, size=n)):
            run += gap
            t = base + run
            if t > horizon:
                return times
            append(t)
        base, run = t, 0.0
        n = max(64, int(rate * (horizon - base) * 1.2) + 64)


# loss draws a lossy link takes from its generator at a time
LOSS_CHUNK = 32


class Link(LinkStats):
    """One directed link's record, built on its first send: the sender's PRR
    window for it, the transmit energy of a packet over it, its loss
    probability, the generator of its loss draws (None when the loss is 0),
    `draws`, an iterator over the link's next loss draws, and `sent`, the
    sends that left the sender's radio over the whole run, where sent_count
    counts only the outcomes in the window.

    Each send on a lossy link takes the next float from `draws`, and
    refill_draws takes the next LOSS_CHUNK when it runs out, so the link
    draws one block per LOSS_CHUNK sends, the first at its first send.
    numpy fills an array from PCG64 with the doubles that as many scalar
    random() calls would return, in order, so the k-th draw on a link is
    the same at any chunk size. Nothing else draws from loss_rng.
    """

    __slots__ = ("tx_cost", "loss", "loss_rng", "draws", "sent")

    def __init__(self, tx_cost, loss, loss_rng, window):
        super().__init__(window)
        self.tx_cost = tx_cost
        self.loss = loss
        self.loss_rng = loss_rng
        self.draws = iter(())
        self.sent = 0

    def refill_draws(self) -> float:
        """Take the link's next LOSS_CHUNK loss draws; returns the first."""
        self.draws = draws = iter(memoryview(self.loss_rng.random(LOSS_CHUNK)))
        return next(draws)


@dataclass(slots=True)
class NodeState:
    node_id: int
    # the node is alive while its battery is; the sink's never drains
    battery: Battery
    queues: NodeQueues
    # one arrival-rate estimate per class, as two fields so the hot path
    # reaches them without hashing a TrafficClass
    rate_rt: RateEstimator
    rate_nrt: RateEstimator
    # target id -> Link, for the targets this node has sent to
    links: dict[int, Link] = field(default_factory=dict)
    # the allowed neighbors' states in ascending id order (empty for the
    # sink); they link back, so repr and == skip them
    allowed: list[NodeState] = field(default_factory=list, repr=False, compare=False)
    # receptions and, per class, the summed queueing wait and the number of
    # packets that entered service here; exported by Simulation._finalize
    received: int = 0
    wait_sum_rt: float = 0.0
    wait_sum_nrt: float = 0.0
    waits_rt: int = 0
    waits_nrt: int = 0
    # hops the predictive drop assumes to the sink (0: no estimate), taken
    # at hops_alive alive allowed neighbors (-1: not yet taken); the count
    # was last checked when Metrics.deaths held hops_deaths entries
    hops: int = 0
    hops_alive: int = -1
    hops_deaths: int = -1


class Simulation:
    """Single deterministic run of one scenario."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.radio = cfg.radio_params()
        self.weights = cfg.weights()
        # per-run constants: the service time x = size / bandwidth of every
        # send and the receive cost; _route unpacks its own from one tuple
        x = service_time(cfg.packet_bits, self.radio)
        self._x = x
        self._rx_cost = rx_energy(cfg.packet_bits, self.radio)
        w = self.weights
        self._route_consts = (
            x, x * x, self._rx_cost, w.alpha, w.beta, w.gamma, w.alpha * x,
            cfg.predictive_drop,
        )
        self.now = 0.0
        self._seq = 0
        # events are keyed by (time, seq); seq counts sends and scheduled
        # arrivals alike, so it is unique across both queues and no
        # comparison, in the heap or between the heads, reaches a later
        # field. The heap holds each stream's next generation, (time, seq,
        # node, cls, arrivals), with the stream's cursor; a send's end is
        # (time, seq, node, packet, target). node and target are NodeStates.
        # Sends last x and start now, which never decreases, so they are
        # made in (time, seq) order and ride a FIFO
        self.heap: list[tuple] = []
        self.completions: deque[tuple] = deque()
        self._timeline_points = cfg.timeline_points()
        self.metrics = Metrics(
            sensor_count=cfg.node_count - 1,
            delivered_by_bucket=[0] * len(self._timeline_points),
        )

        self.topology = self._place_nodes()
        self.nodes: list[NodeState] = [
            NodeState(
                node_id=nid,
                battery=Battery(math.inf if nid == SINK_ID else cfg.initial_energy),
                queues=NodeQueues(capacity=cfg.queue_capacity),
                rate_rt=RateEstimator(cfg.rate_tau),
                rate_nrt=RateEstimator(cfg.rate_tau),
            )
            for nid in range(cfg.node_count)
        ]
        # every hop _route picks is on these tables, so this checks that each
        # hop moves strictly closer to the sink; raise, not assert, so the
        # check stays on under python -O
        topology = self.topology
        start, allowed = topology.allowed_table()
        dist = np.array(list(map(topology.distance_to_sink, range(cfg.node_count))))
        owner = np.repeat(np.arange(len(dist)), np.diff(start))
        bad = np.flatnonzero(~(dist[allowed] < dist[owner]))
        if bad.size:
            i = bad[0]
            raise RuntimeError(
                f"allowed neighbor {allowed[i]} of node {owner[i]} is no closer "
                "to the sink"
            )
        neighbors = list(map(self.nodes.__getitem__, allowed.tolist()))
        bounds = start.tolist()
        for st, a, b in zip(self.nodes, bounds, bounds[1:]):
            st.allowed = neighbors[a:b]

        self.source_set = set(cfg.source_ids())
        self.alive_sources = len(self.source_set)
        self._next_packet_id = 0

        # one generator per stream that draws (a positive rate and horizon),
        # in the order of the loop below; built and dropped one at a time, so
        # set-up holds no list of them. Each stream's first gap is drawn
        # here, and only a stream with an arrival in the horizon goes on
        horizon = cfg.duration
        rates = ((TrafficClass.RT, cfg.rate_rt), (TrafficClass.NRT, cfg.rate_nrt))
        streams = [
            (cls, cls.value, rate) for cls, rate in rates if rate > 0.0 and horizon > 0.0
        ]
        sources = sorted(self.source_set)
        rngs = stream_rngs(cfg.seed, (
            f"traffic/{nid}/{name}" for nid in sources for _cls, name, _rate in streams
        ))
        for nid in sources:
            node = self.nodes[nid]
            for cls, _name, rate in streams:
                rng = next(rngs)
                first = rng.exponential(1.0 / rate)
                if first <= horizon:
                    arrivals = poisson_arrival_times(rate, horizon, rng, first)
                    self._schedule(node, cls, iter(arrivals))

    # -- setup ---------------------------------------------------------

    def _place_nodes(self) -> Topology:
        cfg = self.cfg
        rng = None  # built on the first unpinned sensor
        positions = {SINK_ID: Position(cfg.sink_x, cfg.sink_y)}
        for nid in range(1, cfg.node_count):
            if nid in cfg.positions:
                x, y = cfg.positions[nid]
            else:
                if rng is None:
                    rng = stream_rng(cfg.seed, "placement")
                x = rng.uniform(0.0, cfg.grid_width)
                y = rng.uniform(0.0, cfg.grid_height)
            positions[nid] = Position(x, y)
        return Topology(positions, SINK_ID, cfg.radio_range)

    def _schedule(self, node: NodeState, cls: TrafficClass, arrivals) -> None:
        """Push a stream's next arrival with its cursor, an iterator over its
        array('d') of instants (8 B per arrival) that yields floats; a spent
        stream is dropped."""
        time = next(arrivals, None)
        if time is not None:
            self._seq += 1
            heapq.heappush(self.heap, (time, self._seq, node, cls, arrivals))

    # -- main loop -----------------------------------------------------

    def run(self) -> Metrics:
        """Handle every event in (time, seq) order until the horizon, or until
        the event that kills the last source.

        A send's end is handled here: the sender pays for the send, the
        link's loss draw and PRR window take its outcome, and a packet that
        reaches an alive relay in time is paid for there and goes to _arrive.
        Then the sender, idle again, takes up its queues.
        """
        horizon = self.cfg.duration
        heap = self.heap
        completions = self.completions
        heappop = heapq.heappop
        popleft = completions.popleft
        metrics = self.metrics
        rx_cost = self._rx_cost
        RT = TrafficClass.RT
        while self.alive_sources and (heap or completions):
            if completions and (not heap or completions[0] < heap[0]):
                time, _seq, node, packet, target = popleft()
            else:
                time, _seq, node, cls, arrivals = heappop(heap)
                packet = None
            if time > horizon:
                break
            if time < self.now:
                raise RuntimeError(
                    f"event calendar went backwards: {time!r} < {self.now!r}"
                )
            self.now = time
            if packet is None:
                self._on_generated(node, cls, arrivals)
                continue
            queues = node.queues
            queues.in_service = None
            battery = node.battery
            if not battery.alive:
                # receive debits killed the node mid-service
                self._drop(packet, DropCause.NODE_DEATH)
                continue
            link = node.links.get(target.node_id)
            if link is None:
                link = self._new_link(node, target)
            metrics.total_energy += battery.debit(link.tx_cost)
            if not battery.alive:
                # a send that kills the sender empties its queues
                self._kill(node)
                self._drop(packet, DropCause.NODE_DEATH)
                continue
            link.sent += 1
            lost = False
            if link.loss > 0.0:
                u = next(link.draws, None)
                if u is None:
                    u = link.refill_draws()
                lost = u < link.loss
            if lost:
                link.record_outcome(False)
                self._drop(packet, DropCause.LINK_LOSS)
            elif target.node_id == SINK_ID:
                link.record_outcome(True)
                if packet.deadline < time:
                    self._drop(packet, DropCause.EXPIRED)
                else:
                    self._record_delivery(packet)
            elif not target.battery.alive:
                link.record_outcome(False)
                self._drop(packet, DropCause.NODE_DEATH)
            else:
                relay = target.battery
                metrics.total_energy += relay.debit(rx_cost)
                if not relay.alive:
                    self._kill(target)
                    link.record_outcome(False)
                    self._drop(packet, DropCause.NODE_DEATH)
                else:
                    target.received += 1
                    link.record_outcome(True)
                    rate = target.rate_rt if packet.cls is RT else target.rate_nrt
                    rate.observe(time)
                    if packet.deadline < time:
                        self._drop(packet, DropCause.EXPIRED)
                    else:
                        packet.arrived_at = time
                        self._arrive(target, packet)
            if queues.rt or queues.nrt:
                self._try_start_service(node)
        self._finalize()
        return self.metrics

    # -- handlers ------------------------------------------------------

    def _on_generated(self, node: NodeState, cls: TrafficClass, arrivals) -> None:
        # a dead source's stream ends here, its cursor dropped with the event
        if not node.battery.alive:
            return
        self._schedule(node, cls, arrivals)
        now = self.now
        if cls is TrafficClass.RT:
            budget, rate = self.cfg.deadline_rt, node.rate_rt
        else:
            budget, rate = self.cfg.deadline_nrt, node.rate_nrt
        # positional: Packet(packet_id, cls, source, created_at, deadline)
        packet = Packet(self._next_packet_id, cls, node.node_id, now, now + budget)
        self._next_packet_id += 1
        self.metrics.generated[cls] += 1
        rate.observe(now)
        self._arrive(node, packet)

    # -- packet lifecycle ----------------------------------------------

    def _arrive(self, node: NodeState, packet: Packet) -> None:
        """Admit a packet that has just reached an alive node.

        A busy node queues it in its class queue, or drops it when that
        queue is full. An idle node routes it at once and puts it on the
        radio, as _serve does for a packet it takes from its queues: every
        event leaves an idle node with both queues empty, so no other packet
        can go first, and this is what queueing it and dequeueing it again
        would do. The packet arrived now, so its wait here is 0.0; the
        node's summed wait starts at +0.0 and never falls, so adding 0.0
        would leave it as it is, and only the count is kept. The oracle in
        tests/test_engine.py that queues every arrival checks this copy of
        the send's start against _serve's over whole runs.
        """
        queues = node.queues
        if queues.in_service is not None:
            if not classify_enqueue(queues, packet):
                self._drop(packet, DropCause.BUFFER_OVERFLOW)
            return
        decision = self._route(node, packet)
        # a class check: isinstance calls __instancecheck__ for a class whose
        # metaclass is not type, as an Enum's is, at every NodeState it tests
        if decision.__class__ is DropCause:
            self._drop(packet, decision)
            return
        if packet.cls is TrafficClass.RT:
            node.waits_rt += 1
        else:
            node.waits_nrt += 1
        queues.in_service = packet
        self._seq += 1
        self.completions.append((self.now + self._x, self._seq, node, packet, decision))

    def _serve(self, node: NodeState, packet: Packet) -> bool:
        """Route a packet that an idle node takes from its queues and put it
        on the radio; False when the decision drops it instead, which leaves
        the node idle. Its wait at the node ends now."""
        decision = self._route(node, packet)
        if decision.__class__ is DropCause:
            self._drop(packet, decision)
            return False
        wait = self.now - packet.arrived_at
        if packet.cls is TrafficClass.RT:
            node.wait_sum_rt += wait
            node.waits_rt += 1
        else:
            node.wait_sum_nrt += wait
            node.waits_nrt += 1
        node.queues.in_service = packet
        self._seq += 1
        self.completions.append(
            (self.now + self._x, self._seq, node, packet, decision)
        )
        return True

    def _try_start_service(self, node: NodeState) -> None:
        """Queue path of an idle, alive node: drop the expired packets, then
        serve the next packet in priority order, until one is on the radio
        or both queues are empty."""
        queues = node.queues
        while queues.rt or queues.nrt:
            for p in expire_drops(queues, self.now):
                self._drop(p, DropCause.EXPIRED)
            packet = dequeue_next(queues)
            if packet is None or self._serve(node, packet):
                return

    def _route(self, node: NodeState, packet: Packet) -> NodeState | DropCause:
        """Next hop's state for the packet, or the cause to drop it.

        One pass over the allowed, alive neighbors gives what
        build_neighbor_table, min_finite_delay, predictive_drop_check and
        select_next_hop give, with the same float operations in the same
        order: each candidate's predicted delay (the closed-form priority
        wait, inf when its queue model is unstable, plus the service time x)
        and its cost alpha*delay + beta/usable + gamma/prr (inf when usable
        <= 0 or prr <= 0). The lowest finite cost wins; ids ascend, so a
        strict comparison keeps the lowest id on ties.

        The predictive drop keeps the packet when now + hops*d <= deadline
        for the smallest stable delay d. That check is monotone in d, so it
        keeps the packet exactly when some stable candidate's delay passes
        it. The flag keep starts True when there is no hop estimate (hops 0,
        or the drop is off) and None otherwise; until it is True, each
        stable candidate's delay sets it to that candidate's check. With
        hops >= 1 and d > 0, now + hops*d is never below now, so the check
        also drops a packet already past its deadline. A pass that ends
        with keep False drops the packet; one that never saw a stable
        candidate keeps it and finds no route.

        A candidate's delay is at least x, since its wait is >= 0. IEEE
        rounding is monotone and alpha >= 0, so alpha*x + beta/usable +
        gamma/prr, summed in the cost's order, is never above its cost. The
        pass takes beta/usable and gamma/prr first. Once keep is True it
        skips, without its rates or queue model, a candidate with usable
        <= 0 or prr <= 0 or whose bound is >= the best cost so far: the
        strict comparison would not pick it, and the best cost only falls.
        Before that such a candidate gets its delay for the check and an
        infinite or losing cost, so each candidate's rates are decayed at
        most once per decision.

        The hop estimate depends only on the sender and its count of alive
        allowed neighbors. That count changes only at a death, and every
        death goes through _kill, which appends it to Metrics.deaths, so the
        node recounts only when that list has grown, and retakes its
        estimate only when its own count has changed.

        The pass makes no call per candidate. Its two arrival rates repeat
        RateEstimator.rate_at on the estimator's fields, with the same float
        operations in the same order, and its PRR is Link.ratio, the value
        LinkStats.prr returns. A negative arrival rate is an error, checked
        on each alive candidate's stored levels, skipped or not.
        """
        now = self.now
        exp = math.exp
        links = node.links
        x, x2, rx_cost, alpha, beta, gamma, alpha_x, predictive_drop = (
            self._route_consts
        )
        is_rt = packet.cls is TrafficClass.RT
        keep = True
        if predictive_drop:
            deaths = len(self.metrics.deaths)
            if node.hops_deaths != deaths:
                node.hops_deaths = deaths
                alive = sum(st.battery.alive for st in node.allowed)
                if alive != node.hops_alive:
                    node.hops_alive = alive
                    node.hops = self._hops_to_sink(node, alive) if alive else 0
            hops = node.hops
            if hops:
                keep = None
                deadline = packet.deadline
        best_cost = math.inf
        best = None
        for st in node.allowed:
            battery = st.battery
            if not battery.alive:
                continue
            est1 = st.rate_rt
            est2 = st.rate_nrt
            level1 = est1.level
            level2 = est2.level
            if level1 < 0.0 or level2 < 0.0:
                raise ValueError(f"arrival rate must be >= 0, got {level1}, {level2}")
            usable = battery.level - rx_cost
            link = links.get(st.node_id)
            prr = 1.0 if link is None else link.ratio
            if usable > 0.0 and prr > 0.0:
                energy_term = beta / usable
                prr_term = gamma / prr
                if keep and alpha_x + energy_term + prr_term >= best_cost:
                    continue
            elif keep:
                continue
            else:
                # scored for the check alone: its cost is inf
                energy_term = prr_term = math.inf
            gap = now - est1.last_arrival
            lam1 = level1 if gap <= 0.0 else level1 * exp(-gap / est1.tau)
            gap = now - est2.last_arrival
            lam2 = level2 if gap <= 0.0 else level2 * exp(-gap / est2.tau)
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
            delay += x
            if not keep:
                keep = now + hops * delay <= deadline
            cost = alpha * delay + energy_term + prr_term
            if cost < best_cost:
                best_cost = cost
                best = st
        if keep is False:
            return DropCause.PREDICTIVE
        if best is None:
            return DropCause.NO_ROUTE
        return best

    def _record_delivery(self, packet: Packet) -> None:
        """Count a packet the sink received now: its end-to-end delay and
        its timeline bucket. That every hop moved closer to the sink was
        checked once, on the allowed tables, at set-up."""
        m = self.metrics
        m.delays[packet.cls].append(self.now - packet.created_at)
        m.delivered_by_bucket[bisect_left(self._timeline_points, self.now)] += 1

    def _kill(self, node: NodeState) -> None:
        """Drop the packets queued at a node a debit just drained and note
        its death now; a packet on its radio is dropped when its send ends."""
        queues = node.queues
        for q in (queues.rt, queues.nrt):
            while q:
                self._drop(q.popleft(), DropCause.NODE_DEATH)
        self.metrics.deaths.append((self.now, node.node_id))
        if node.node_id in self.source_set:
            self.alive_sources -= 1

    def _drop(self, packet: Packet, cause: DropCause) -> None:
        self.metrics.drops[(cause, packet.cls)] += 1

    # -- sender-visible neighbor state -----------------------------------

    def _new_link(self, sender: NodeState, target: NodeState) -> Link:
        # built on first use: a loss generator costs tens of microseconds,
        # and most allowed links never carry a send
        u, v = sender.node_id, target.node_id
        cfg = self.cfg
        loss = cfg.loss_for(u, v)
        positions = self.topology.positions
        link = Link(
            tx_energy(cfg.packet_bits, distance(positions[u], positions[v]),
                      self.radio),
            loss,
            stream_rng(cfg.seed, f"loss/{u}/{v}") if loss > 0.0 else None,
            cfg.prr_window,
        )
        sender.links[v] = link
        return link

    def _hops_to_sink(self, node: NodeState, alive: int) -> int:
        """Hops of a straight path to the sink at the relay spacing of
        `alive` neighbors over the node's allowed area; 0 when the area or
        the spacing is not positive, which disables the predictive drop.
        Only a node with an alive allowed neighbor asks; that neighbor is
        strictly closer to the sink, so the node is not at the sink."""
        positions = self.topology.positions
        pos, sink = positions[node.node_id], positions[SINK_ID]
        area = allowed_area(pos, sink, self.cfg.radio_range)
        if area <= 0.0:
            return 0
        spacing = delta(area, alive)
        if spacing <= 0.0:
            return 0
        # looked up on routing, where perfbench/tracer.py wraps it
        return routing.hops_linear(pos, sink, spacing)

    def _finalize(self) -> None:
        m = self.metrics
        m.end_time = self.now
        in_flight = 0
        for nid, st in enumerate(self.nodes):
            queues = st.queues
            in_flight += len(queues.rt) + len(queues.nrt)
            if queues.in_service is not None:
                in_flight += 1
            if nid != SINK_ID:
                m.energy_by_node[nid] = st.battery.consumed
                m.residual_by_node[nid] = st.battery.residual
            for target, link in st.links.items():
                if link.sent:
                    m.tx_by_link[(nid, target)] = link.sent
            if st.received:
                m.rx_by_node[nid] = st.received
            for cls, count, total in (
                (TrafficClass.RT, st.waits_rt, st.wait_sum_rt),
                (TrafficClass.NRT, st.waits_nrt, st.wait_sum_nrt),
            ):
                if count:
                    m.wait_count[(nid, cls)] = count
                    m.wait_sum[(nid, cls)] = total
        # raise, not assert, so the checks stay on under python -O; the
        # ledger comes first, since a debit that drains less than it reports
        # leaves its battery's stored level behind as well
        per_node = math.fsum(m.energy_by_node.values())
        if not math.isclose(per_node, m.total_energy, rel_tol=1e-9):
            raise RuntimeError(
                f"energy ledger does not close: per-node sum {per_node!r} "
                f"!= total_energy {m.total_energy!r}"
            )
        for nid, consumed in m.energy_by_node.items():
            residual = m.residual_by_node[nid]
            initial = self.nodes[nid].battery.initial
            if not math.isclose(consumed + residual, initial, rel_tol=1e-9):
                raise RuntimeError(
                    f"battery of node {nid} does not close: consumed "
                    f"{consumed!r} + residual {residual!r} != initial {initial!r}"
                )
        m.in_flight = in_flight
        generated, delivered, dropped = (
            m.generated_total(), m.delivered_total(), m.drops_total()
        )
        if generated != delivered + dropped + in_flight:
            raise RuntimeError(
                f"packets do not add up: generated {generated} != delivered "
                f"{delivered} + dropped {dropped} + in flight {in_flight}"
            )


def run(cfg: ScenarioConfig) -> Metrics:
    """Run one scenario to completion and return its metrics."""
    return Simulation(cfg).run()
