"""Helpers shared by the test modules."""


def run_with_deliveries(sim):
    """Run `sim` to completion; return its metrics and the packets it
    delivered, in delivery order. A packet's arrival time at the sink is
    `packet.hop_trace[-1][1]`."""
    packets = []
    record = sim._record_delivery

    def recording(packet):
        record(packet)
        packets.append(packet)

    sim._record_delivery = recording
    return sim.run(), packets
