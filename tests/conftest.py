"""Helpers shared by the test modules."""

from wsnqos.config import SINK_ID


def run_with_deliveries(sim):
    """Run `sim` to completion; return its metrics, the packets it delivered
    in delivery order and, for each, its hop trace: the (node id, arrival
    time) pairs of its source at creation, each relay it reached and the
    sink. The engine keeps no trace, so this records one from the outside,
    on the instance's `_arrive` and `_record_delivery`. A packet placed in a
    queue by hand starts its trace at its source and creation time."""
    traces = {}
    packets = []
    hops = []
    arrive = sim._arrive
    record = sim._record_delivery

    def trace_of(packet):
        return traces.setdefault(packet.packet_id, [(packet.source, packet.created_at)])

    def arriving(node, packet):
        trace = trace_of(packet)
        if node.node_id != packet.source:
            trace.append((node.node_id, sim.now))
        arrive(node, packet)

    def recording(packet):
        record(packet)
        packets.append(packet)
        hops.append(trace_of(packet) + [(SINK_ID, sim.now)])
        del traces[packet.packet_id]

    sim._arrive = arriving
    sim._record_delivery = recording
    return sim.run(), packets, hops
