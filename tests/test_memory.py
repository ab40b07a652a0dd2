"""What a run holds per node and per link, measured with tracemalloc in this
process only.

The bounds are declared here, from the sizes the records are built to:
set-up at the default density holds about 1.4 KB per node. Two full-size
deques per node for its class queues, 760 B each, would put it past the
bound.
"""

import math
import sys
import tracemalloc
from collections import Counter, deque

import wsnqos.engine
from wsnqos.config import ScenarioConfig
from wsnqos.engine import Link, Simulation
from wsnqos.node import NO_QUEUE, TrafficClass

# set-up bytes per node at the default density (300 nodes per km^2)
SETUP_BYTES_PER_NODE = 1800


def default_density_cfg(nodes, **kw):
    side = 1000.0 * math.sqrt(nodes / 300)
    return ScenarioConfig(
        node_count=nodes, grid_width=side, grid_height=side, **kw
    )


def test_setup_holds_at_most_the_declared_bytes_per_node():
    cfg = default_density_cfg(2000, duration=1.0, seed=1)
    tracemalloc.start()
    try:
        base, _peak = tracemalloc.get_traced_memory()
        sim = Simulation(cfg)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sim.nodes) == 2000
    assert (held - base) / 2000 <= SETUP_BYTES_PER_NODE


def test_a_class_queue_is_built_at_its_first_enqueue(monkeypatch):
    # a run with some queueing: every class queue no packet entered is still
    # the shared sentinel, and every one a packet entered is a deque, also
    # once it has emptied again
    enqueued = Counter()
    enqueue = wsnqos.engine.classify_enqueue

    def counted(queues, packet):
        enqueued[(id(queues), packet.cls)] += 1
        return enqueue(queues, packet)

    monkeypatch.setattr(wsnqos.engine, "classify_enqueue", counted)
    sim = Simulation(default_density_cfg(300, duration=3.0, seed=1))
    sim.run()
    idle = busy = 0
    for st in sim.nodes:
        for cls, q in ((TrafficClass.RT, st.queues.rt), (TrafficClass.NRT, st.queues.nrt)):
            if enqueued[(id(st.queues), cls)]:
                busy += 1
                assert type(q) is deque, (st.node_id, cls)
            else:
                idle += 1
                assert q is NO_QUEUE, (st.node_id, cls)
    assert busy > 0
    assert idle > busy


def test_a_young_window_grows_with_its_sends_not_its_length():
    sizes = {}
    for window in (100, 10_000):
        for sends in (0, 1, 10, 50, 99):
            link = Link(1e-6, 0.0, None, window)
            for i in range(sends):
                link.record_outcome(i % 3 != 0)
            assert link.sent_count == sends
            sizes[(window, sends)] = sys.getsizeof(link._outcomes)
    # the same size at either window length, growing with the sends
    for sends in (0, 1, 10, 50, 99):
        assert sizes[(100, sends)] == sizes[(10_000, sends)]
    young = [sizes[(10_000, sends)] for sends in (1, 10, 50, 99)]
    assert young == sorted(young) and len(set(young)) == len(young)
    # at most one pointer per send, plus the list's own header and spare room
    assert sizes[(10_000, 99)] <= sys.getsizeof([]) + 8 * 128
