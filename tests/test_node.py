from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsnqos.energy import RadioParams
from wsnqos.node import (
    NO_QUEUE,
    NodeQueues,
    Packet,
    RateEstimator,
    TrafficClass,
    classify_enqueue,
    dequeue_next,
    expire_drops,
    service_time,
)

RADIO = RadioParams.from_table_units(50.0, 10.0, 0.0013, 250_000.0)


def mk_packet(pid, cls=TrafficClass.RT, created=0.0, deadline=10.0, source=1):
    return Packet(pid, cls, source, created, deadline)


class TestPacket:
    def test_new_packet_arrived_at_its_creation(self):
        p = mk_packet(1, created=2.5, source=7)
        assert p.arrived_at == p.created_at == 2.5

    def test_deadline_after_creation_required(self):
        with pytest.raises(ValueError):
            Packet(1, TrafficClass.RT, 1, 5.0, 5.0)


class TestEnqueueDequeue:
    def test_priority_order(self):
        q = NodeQueues()
        a = mk_packet(1, TrafficClass.NRT)
        b = mk_packet(2, TrafficClass.RT)
        assert classify_enqueue(q, a)
        assert classify_enqueue(q, b)
        assert dequeue_next(q) is b
        assert dequeue_next(q) is a

    def test_fifo_within_class(self):
        q = NodeQueues()
        first = mk_packet(1, TrafficClass.NRT)
        second = mk_packet(2, TrafficClass.NRT)
        classify_enqueue(q, first)
        classify_enqueue(q, second)
        assert dequeue_next(q) is first
        assert dequeue_next(q) is second

    def test_empty_is_idle(self):
        assert dequeue_next(NodeQueues()) is None

    def test_a_queue_is_built_at_its_first_packet_and_kept(self):
        q = NodeQueues()
        assert q.rt is NO_QUEUE and q.nrt is NO_QUEUE
        p = mk_packet(1, TrafficClass.NRT)
        assert classify_enqueue(q, p)
        assert q.rt is NO_QUEUE
        built = q.nrt
        assert type(built) is deque and list(built) == [p]
        assert dequeue_next(q) is p
        # emptied, the queue keeps its deque for the next packet
        assert classify_enqueue(q, mk_packet(2, TrafficClass.NRT))
        assert q.nrt is built and len(built) == 1
        assert NodeQueues().nrt is NO_QUEUE

    def test_overflow_at_capacity(self):
        q = NodeQueues(capacity=64)
        for i in range(64):
            assert classify_enqueue(q, mk_packet(i, TrafficClass.RT))
        assert not classify_enqueue(q, mk_packet(64, TrafficClass.RT))
        # the other class has its own buffer
        assert classify_enqueue(q, mk_packet(65, TrafficClass.NRT))

    @given(
        st.lists(
            st.sampled_from([TrafficClass.RT, TrafficClass.NRT]), max_size=40
        )
    )
    def test_drain_order_is_priority_then_fifo(self, classes):
        q = NodeQueues(capacity=100)
        packets = [mk_packet(i, cls) for i, cls in enumerate(classes)]
        for p in packets:
            classify_enqueue(q, p)
        drained = []
        while (p := dequeue_next(q)) is not None:
            drained.append(p)
        expected = [p for p in packets if p.cls is TrafficClass.RT] + [
            p for p in packets if p.cls is TrafficClass.NRT
        ]
        assert drained == expected


class TestExpiry:
    def test_nothing_expired_is_identity(self):
        q = NodeQueues()
        live = mk_packet(1, deadline=5.0)
        classify_enqueue(q, live)
        assert expire_drops(q, now=1.0) == []
        assert list(q.rt) == [live]

    def test_expired_removed_live_kept(self):
        q = NodeQueues()
        stale = mk_packet(1, deadline=1.0)
        live = mk_packet(2, deadline=5.0)
        classify_enqueue(q, stale)
        classify_enqueue(q, live)
        dropped = expire_drops(q, now=2.0)
        assert dropped == [stale]
        assert list(q.rt) == [live]

    def test_all_expired_empties_both_queues(self):
        q = NodeQueues()
        packets = [
            mk_packet(1, TrafficClass.RT, deadline=1.0),
            mk_packet(2, TrafficClass.NRT, deadline=1.5),
        ]
        for p in packets:
            classify_enqueue(q, p)
        dropped = expire_drops(q, now=3.0)
        assert sorted(p.packet_id for p in dropped) == [1, 2]
        assert not q.rt and not q.nrt

    def test_deadline_exactly_now_survives(self):
        q = NodeQueues()
        edge = mk_packet(1, deadline=2.0)
        classify_enqueue(q, edge)
        assert expire_drops(q, now=2.0) == []

    def test_packet_in_service_untouched(self):
        q = NodeQueues()
        q.in_service = mk_packet(1, deadline=1.0)
        assert expire_drops(q, now=5.0) == []
        assert q.in_service is not None


class TestServiceTime:
    def test_reference_packet(self):
        assert service_time(100, RADIO) == pytest.approx(4e-4)

    def test_linear_in_size(self):
        assert service_time(200, RADIO) == pytest.approx(2 * service_time(100, RADIO))


class TestRateEstimator:
    def test_silent_stream_reads_zero(self):
        assert RateEstimator().rate_at(5.0) == 0.0

    def test_steady_stream_converges(self):
        est = RateEstimator(tau=1.0)
        t = 0.0
        for _ in range(200):
            t += 0.1
            est.observe(t)
        assert est.rate_at(t) == pytest.approx(10.0, rel=0.06)

    def test_bursty_stream_reads_average_not_burst_rate(self):
        # 10 back-to-back arrivals every second: the cycle-averaged reading is
        # the true 10/s, nowhere near the 10^4/s inverse of the in-burst gap
        est = RateEstimator(tau=2.0)
        t = 0.0
        for _ in range(60):
            t += 1.0
            for i in range(10):
                est.observe(t + i * 1e-4)
        readings = [est.rate_at(t + 0.01 * j) for j in range(1, 101)]
        assert sum(readings) / len(readings) == pytest.approx(10.0, rel=0.2)
        assert max(readings) < 50.0

    def test_estimate_decays_when_stream_stops(self):
        est = RateEstimator(tau=1.0)
        t = 0.0
        for _ in range(100):
            t += 0.05
            est.observe(t)
        busy = est.rate_at(t)
        assert est.rate_at(t + 3.0) < 0.1 * busy

    def test_poisson_stream_is_estimated_unbiased(self):
        import numpy as np

        rng = np.random.default_rng(33)
        est = RateEstimator(tau=5.0)
        t = 0.0
        for gap in rng.exponential(1.0 / 50.0, size=20_000):
            t += gap
            est.observe(t)
        assert est.rate_at(t) == pytest.approx(50.0, rel=0.15)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            RateEstimator(tau=0.0)
        with pytest.raises(ValueError, match="finite"):
            RateEstimator(tau=1e-320)  # 1 / tau overflows to inf
