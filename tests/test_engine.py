import hashlib
import inspect
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from bisect import bisect_right
from collections import Counter, defaultdict, deque
from math import fsum
from pathlib import Path

import numpy as np
import pytest
from conftest import run_with_deliveries
from test_benchmark_outputs import WORKLOADS as BENCHMARK_WORKLOADS
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_golden import SCENARIOS as GOLDEN_SCENARIOS

import wsnqos
from wsnqos import cli, engine
from wsnqos.config import SINK_ID, ScenarioConfig, parse_config
from wsnqos.energy import Battery, rx_energy, tx_energy
from wsnqos.engine import (
    LOSS_CHUNK,
    DropCause,
    Link,
    NodeState,
    Simulation,
    _pcg64_seed_words,
    _SeedWords,
    _uint32_words,
    poisson_arrival_times,
    run,
    stream_rng,
    stream_rngs,
)
from wsnqos.geometry import allowed_area, delta, distance, hops_linear
from wsnqos.linkest import LinkStats
from wsnqos.node import (
    NodeQueues,
    Packet,
    RateEstimator,
    TrafficClass,
    classify_enqueue,
)
from wsnqos.queueing import ClassLoad, QueueModelParams
from wsnqos.routing import (
    NeighborView,
    build_neighbor_table,
    min_finite_delay,
    predictive_drop_check,
    select_next_hop,
)


def two_node_cfg(**kw):
    base = dict(
        node_count=2,
        positions={1: (550.0, 500.0)},  # 50 m from the sink
        sources=(1,),
        rate_rt=0.01,
        rate_nrt=0.0,
        duration=1000.0,
        seed=5,
    )
    base.update(kw)
    return ScenarioConfig(**base)


SERVICE = 100 / 250_000.0


class TestRunBasics:
    def test_zero_duration(self):
        m = run(two_node_cfg(duration=0.0))
        assert m.generated_total() == 0
        assert m.delivered_total() == 0
        assert m.drops_total() == 0
        assert m.total_energy == 0.0

    def test_single_hop_delivery_delay_is_one_service_time(self):
        m = run(two_node_cfg())
        assert m.generated_total() == 10
        assert m.delivered_total() == 10
        for delay in m.delays[TrafficClass.RT]:
            assert delay == pytest.approx(SERVICE, abs=1e-12)
        # idle node: no queueing wait at the source
        assert m.mean_wait(1, TrafficClass.RT) == 0.0

    def test_determinism_same_seed(self):
        a = run(two_node_cfg(rate_rt=40.0, loss=0.1, duration=50.0))
        b = run(two_node_cfg(rate_rt=40.0, loss=0.1, duration=50.0))
        assert a.generated == b.generated
        assert a.delivered == b.delivered
        assert a.drops == b.drops
        assert a.delays == b.delays
        assert a.total_energy == b.total_energy

    def test_seeds_change_outcomes_not_invariants(self):
        counts = set()
        for seed in range(4):
            m = run(two_node_cfg(rate_rt=40.0, loss=0.1, duration=20.0, seed=seed))
            counts.add(m.generated_total())
            assert (
                m.generated_total()
                == m.delivered_total() + m.drops_total() + m.in_flight
            )
        assert len(counts) > 1


class TestTraffic:
    def test_zero_rate_produces_nothing(self):
        rng = stream_rng(1, "traffic/1/rt")
        assert len(poisson_arrival_times(0.0, 100.0, rng)) == 0

    def test_count_matches_poisson_statistics(self):
        rng = stream_rng(7, "traffic/1/rt")
        times = np.frombuffer(poisson_arrival_times(100.0, 100.0, rng))
        # 10^4 expected, 3 sigma = 300
        assert abs(len(times) - 10_000) <= 300
        assert times.min() > 0.0
        assert times.max() <= 100.0
        assert np.all(np.diff(times) >= 0.0)

    def test_interarrival_mean(self):
        rng = stream_rng(11, "traffic/2/nrt")
        times = poisson_arrival_times(1000.0, 110.0, rng)
        gaps = np.diff(times)
        assert len(gaps) >= 100_000
        assert gaps.mean() == pytest.approx(1e-3, rel=0.02)

    def test_pending_arrivals_hold_8_bytes_each(self):
        # one float64 per pending arrival; a list of Python floats would
        # hold about 32 B each
        cfg = two_node_cfg(rate_rt=1e6, duration=1.0)
        tracemalloc.start()
        try:
            sim = Simulation(cfg)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rng = stream_rng(cfg.seed, "traffic/1/rt")
        arrivals = len(poisson_arrival_times(1e6, 1.0, rng))
        assert arrivals > 990_000
        assert held / arrivals < 12.0
        # one pending event, with its cursor, per stream with an arrival in
        # the horizon: the RT stream; the NRT stream at rate 0 holds nothing
        assert [(e[2].node_id, e[3]) for e in sim.heap] == [(1, TrafficClass.RT)]

    def test_arrival_times_are_python_floats(self):
        # the calendar holds and compares plain floats, and each packet's
        # created_at is its arrival time
        seen = []

        class Recorder(Simulation):
            def _on_generated(self, node, cls, arrivals):
                seen.append(type(self.now))
                super()._on_generated(node, cls, arrivals)

        sim = Recorder(two_node_cfg(rate_rt=40.0, rate_nrt=20.0, duration=5.0))
        assert len(sim.heap) == 2
        assert {type(e[0]) for e in sim.heap} == {float}
        m = sim.run()
        assert sim.alive_sources == 1
        assert len(seen) == m.generated_total() > 200
        assert set(seen) == {float}

    def test_stream_labels_are_stable_and_independent(self):
        a = stream_rng(3, "traffic/1/rt").random(4)
        b = stream_rng(3, "traffic/1/rt").random(4)
        c = stream_rng(3, "traffic/1/nrt").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def chunked_arrival_times(rate, horizon, rng):
    """The arrival instants as every chunk drawn whole: gaps of about 1.2 x
    the expected count per chunk, each chunk's cumsum added to the last
    instant before it, then every instant up to the horizon kept."""
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


class ShrunkGaps:
    """A Generator whose exponential draws, scalar or array, come from one
    stream and are scaled by `factor`, so that a chunk of the expected size
    ends short of the horizon. Counts its array draws."""

    def __init__(self, seed, factor):
        self.rng = stream_rng(seed, "shrunk")
        self.factor = factor
        self.array_draws = 0

    def exponential(self, scale, size=None):
        if size is not None:
            self.array_draws += 1
        return self.rng.exponential(scale, size) * self.factor


class TestArrivalsMatchChunkedDraws:
    @pytest.mark.parametrize(
        "rate, horizon",
        [(0.002, 100.0), (1.0, 2.0), (30.0, 2.0), (1000.0, 0.3), (3.0, 1e-3),
         (0.0, 5.0), (5e-324, 2.0)],
    )
    def test_same_bytes(self, rate, horizon):
        for seed in range(200):
            label = f"traffic/{seed}/rt"
            times = np.frombuffer(
                poisson_arrival_times(rate, horizon, stream_rng(seed, label))
            )
            expected = chunked_arrival_times(rate, horizon, stream_rng(seed, label))
            assert times.dtype == expected.dtype
            assert times.tobytes() == expected.tobytes()
            # set-up draws a stream's first gap itself and passes it on
            if rate > 0.0 and len(times):
                rng = stream_rng(seed, label)
                first = rng.exponential(1.0 / rate)
                passed = poisson_arrival_times(rate, horizon, rng, first)
                assert passed.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("factor", [0.5, 0.1, 0.01])
    def test_same_bytes_over_many_chunks(self, factor):
        for seed in range(20):
            rng = ShrunkGaps(seed, factor)
            times = poisson_arrival_times(40.0, 5.0, rng)
            expected = chunked_arrival_times(40.0, 5.0, ShrunkGaps(seed, factor))
            assert rng.array_draws >= 2  # the first chunk fell short
            assert times.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # zero, subnormal (1.0 / rate is inf) and tiny rates, or 1e-2 to 1e4
        rate=st.one_of(
            st.sampled_from([0.0, 5e-324, 1e-310, 1e-300]),
            st.floats(-2.0, 4.0).map(lambda e: 10.0**e),
        ),
        horizon=st.floats(-3.0, 2.5).map(lambda e: 10.0**e),
        factor=st.one_of(st.none(), st.sampled_from([0.5, 0.1, 0.01])),
    )
    def test_same_bytes_over_rates_and_horizons(self, seed, rate, horizon, factor):
        # at most about 2e4 instants, spills into later chunks included
        assume(rate * horizon <= 2e4 * (factor or 1.0))

        def rng():
            if factor is None:
                return stream_rng(seed, "traffic/1/rt")
            return ShrunkGaps(seed, factor)

        expected = chunked_arrival_times(rate, horizon, rng()).tobytes()
        times = poisson_arrival_times(rate, horizon, rng())
        assert type(times) is array and times.typecode == "d"
        assert times.tobytes() == expected
        if rate > 0.0:
            drawn = rng()
            first = drawn.exponential(1.0 / rate)
            passed = poisson_arrival_times(rate, horizon, drawn, first)
            assert type(passed) is array and passed.typecode == "d"
            assert passed.tobytes() == expected

    def test_scalar_and_array_draws_take_one_stream(self):
        scalars = stream_rng(5, "x")
        values = [scalars.exponential(0.25) for _ in range(100)]
        assert np.array(values).tobytes() == (
            stream_rng(5, "x").exponential(0.25, size=100).tobytes()
        )


class TestStreamSeeds:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("tag", [0, 12_345, 2**32 - 1, 2**40 + 3, 2**64 - 1])
    def test_words_are_seed_sequence_words(self, seed, tag):
        words = np.array(_uint32_words(seed) + _uint32_words(tag), dtype=np.uint32)
        assert np.array_equal(
            np.random.SeedSequence(words).pool,
            np.random.SeedSequence([seed, tag]).pool,
        )

    def test_zero_is_one_word(self):
        assert _uint32_words(0) == [0]
        assert _uint32_words(2**32) == [0, 1]
        with pytest.raises(ValueError):
            _uint32_words(-1)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_stream_is_the_seed_sequence_of_seed_and_tag(self, seed):
        for label in ("placement", "traffic/3/rt", "loss/4/0"):
            tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
            expected = np.random.default_rng(np.random.SeedSequence([seed, tag]))
            assert stream_rng(seed, label).random(8).tobytes() == (
                expected.random(8).tobytes()
            )

    # the batch against numpy's SeedSequence, word by word; a tag under
    # 2**32 is one word, a case no SHA-256 label reaches
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("tag", [0, 2**32 - 1, 2**64 - 1])
    def test_batched_words_are_seed_sequence_words(self, seed, tag):
        words = _uint32_words(seed) + _uint32_words(tag)
        rows = [words[:n] for n in range(1, len(words) + 1)]
        padded = np.array([row + [0] * (4 - len(row)) for row in rows], np.uint32)
        expected = [
            np.random.SeedSequence(np.array(row, np.uint32))
            .generate_state(4, np.uint64)
            for row in rows
        ]
        assert np.array_equal(_pcg64_seed_words(padded), np.array(expected))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_words_pad_short_entropy(self, n):
        entropy = np.random.default_rng(n).integers(
            0, 2**32, size=(50, n), dtype=np.uint32
        )
        got = _pcg64_seed_words(entropy)
        assert got.shape == (50, 4) and got.dtype == np.uint64
        for row, words in zip(entropy, got, strict=True):
            assert np.array_equal(
                words, np.random.SeedSequence(row).generate_state(4, np.uint64)
            )

    def test_more_than_four_words_is_an_error(self):
        with pytest.raises(ValueError):
            _pcg64_seed_words(np.zeros((3, 5), dtype=np.uint32))
        with pytest.raises(ValueError):
            next(stream_rngs(2**64, ["traffic/1/rt"]))  # three seed words + two

    def test_seed_words_answer_only_pcg64s_request(self):
        words = np.arange(4, dtype=np.uint64)
        seq = _SeedWords(words)
        assert seq.generate_state(4, np.uint64) is words
        for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint32)):
            with pytest.raises(ValueError):
                seq.generate_state(n_words, dtype)

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("count", [0, 1, 2_400])
    def test_batch_is_stream_rng_per_label(self, seed, count):
        labels = ["placement", "loss/4/0"] + [
            f"traffic/{nid}/{cls}" for nid in range(1, 1200) for cls in ("rt", "nrt")
        ]
        labels = labels[:count]
        rngs = list(stream_rngs(seed, labels))
        assert len(rngs) == count
        for label, rng in zip(labels, rngs, strict=True):
            expected = stream_rng(seed, label)
            assert rng.bit_generator.state == expected.bit_generator.state
        if rngs:
            assert rngs[-1].random(8).tobytes() == (
                stream_rng(seed, labels[-1]).random(8).tobytes()
            )

    def test_placement_stream_only_for_unpinned_sensors(self, monkeypatch):
        built = []

        def recording(master_seed, label):
            built.append(label)
            return stream_rng(master_seed, label)

        monkeypatch.setattr(engine, "stream_rng", recording)
        pinned = {1: (550.0, 500.0), 2: (600.0, 500.0)}
        Simulation(ScenarioConfig(node_count=3, positions=pinned, duration=1.0))
        assert "placement" not in built
        # one unpinned sensor draws the placement stream's first two values
        sim = Simulation(
            ScenarioConfig(node_count=3, positions={2: pinned[2]}, duration=1.0, seed=9)
        )
        assert built.count("placement") == 1
        rng = stream_rng(9, "placement")
        x = rng.uniform(0.0, sim.cfg.grid_width)
        y = rng.uniform(0.0, sim.cfg.grid_height)
        assert (sim.topology.positions[1].x, sim.topology.positions[1].y) == (x, y)


class TestLossAndPrr:
    def test_lossless_link_always_arrives(self):
        m = run(two_node_cfg(rate_rt=40.0, duration=50.0, loss=0.0))
        assert m.drop_count(DropCause.LINK_LOSS) == 0
        assert m.delivered_total() + m.in_flight == m.generated_total()

    def test_loss_rate_within_binomial_bounds(self):
        m = run(two_node_cfg(rate_rt=100.0, duration=100.0, loss=0.2, seed=9))
        sent = m.tx_by_link[(1, 0)]
        lost = m.drop_count(DropCause.LINK_LOSS)
        assert sent >= 9_000
        sigma = math.sqrt(sent * 0.2 * 0.8)
        assert abs(lost - 0.2 * sent) <= 3 * sigma

    def test_total_loss_blacklists_the_link(self):
        m = run(two_node_cfg(rate_rt=40.0, duration=50.0, loss=1.0, seed=4))
        assert m.delivered_total() == 0
        assert m.drop_count(DropCause.LINK_LOSS) == 1  # only the first try
        assert m.drop_count(DropCause.NO_ROUTE) == m.generated_total() - 1

    def test_per_link_override(self):
        cfg = two_node_cfg(
            rate_rt=40.0, duration=50.0, loss=0.0, link_loss={(1, 0): 1.0}, seed=4
        )
        m = run(cfg)
        assert m.delivered_total() == 0

    # a lost first send would leave the lone link's PRR at 0 and end its
    # sends (see above), so these seeds' first draws are deliveries
    @pytest.mark.parametrize("seed", [3, 12])
    def test_loss_outcomes_are_the_links_stream_in_order(self, seed):
        # the link draws its loss outcomes LOSS_CHUNK at a time, and the k-th
        # is still the k-th double of its stream; the window holds every
        # send, so the link's whole outcome sequence is kept
        loss = 0.3
        sim = Simulation(two_node_cfg(
            rate_rt=40.0, duration=10.0, loss=loss, prr_window=10_000, seed=seed
        ))
        m = sim.run()
        link = sim.nodes[1].links[SINK_ID]
        n = link.sent
        assert n == m.tx_by_link[(1, SINK_ID)] == link.sent_count
        assert n > 3 * LOSS_CHUNK and n % LOSS_CHUNK
        lost = [not delivered for delivered in link._outcomes]
        expected = [u < loss for u in stream_rng(seed, f"loss/1/{SINK_ID}").random(n)]
        assert lost == expected
        assert m.drop_count(DropCause.LINK_LOSS) == sum(expected) > 0


def chain_cfg(**kw):
    # head (id 2) out of sink range; must relay through the middle (id 1)
    base = dict(
        node_count=3,
        positions={1: (560.0, 500.0), 2: (620.0, 500.0)},
        sources=(2,),
        rate_rt=200.0,
        rate_nrt=0.0,
        duration=30.0,
        deadline_rt=100.0,
        queue_capacity=10_000,
        initial_energy=50.0,
        seed=6,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestChainForwarding:
    def test_two_hop_traces_and_progress(self):
        sim = Simulation(chain_cfg())
        m, _packets, traces = run_with_deliveries(sim)
        assert m.delivered_total() > 1000
        for trace in traces[:200]:
            ids = [nid for nid, _ in trace]
            assert ids == [2, 1, 0]
            dists = [sim.topology.distance_to_sink(nid) for nid in ids]
            assert dists == sorted(dists, reverse=True)
            times = [t for _, t in trace]
            assert times == sorted(times)

    def test_deterministic_tandem_relay_never_queues(self):
        # the relay's service time equals the head's, so departures arrive
        # exactly when the relay frees up: zero wait at the middle node
        m = run(chain_cfg())
        assert m.wait_count[(1, TrafficClass.RT)] > 1000
        assert m.mean_wait(1, TrafficClass.RT) == 0.0

    def test_within_class_fifo_on_the_path(self):
        _m, packets, _traces = run_with_deliveries(Simulation(chain_cfg(duration=5.0)))
        ids = [p.packet_id for p in packets]
        assert ids == sorted(ids)

    def test_equidistant_pair_does_not_bounce(self):
        # both sensors are 98.5 m from the sink and 80 m apart, out of the
        # sink's reach: neither is closer than the other, so no packet has
        # a next hop and none is sent back and forth until it expires
        sim = Simulation(ScenarioConfig(
            node_count=3,
            positions={1: (590.0, 540.0), 2: (590.0, 460.0)},
            rate_rt=2.0,
            rate_nrt=2.0,
            duration=10.0,
        ))
        assert sim.topology.distance_to_sink(1) == sim.topology.distance_to_sink(2)
        assert [st.allowed for st in sim.nodes] == [[], [], []]
        m = sim.run()
        assert m.generated_total() == m.drop_count(DropCause.NO_ROUTE) == 93
        assert m.tx_by_link == Counter()
        assert m.total_energy == 0.0


def mixed_load_cfg():
    # rho = 0.6 over both classes at one sensor
    return two_node_cfg(
        rate_rt=750.0,
        rate_nrt=750.0,
        duration=20.0,
        seed=3,
        deadline_rt=100.0,
        deadline_nrt=100.0,
        queue_capacity=10_000,
        initial_energy=50.0,
    )


class TestPriorityService:
    def test_rt_waits_less_than_nrt_under_mixed_load(self):
        m = run(mixed_load_cfg())
        assert m.wait_count[(1, TrafficClass.RT)] > 5000
        assert m.mean_wait(1, TrafficClass.RT) < m.mean_wait(1, TrafficClass.NRT)

    def test_service_is_never_preempted(self):
        cfg = two_node_cfg(rate_rt=0.0, rate_nrt=0.0, duration=1.0)
        sim = Simulation(cfg)
        node = sim.nodes[1]
        nrt = Packet(0, TrafficClass.NRT, 1, 0.0, 1.0)
        rt = Packet(1, TrafficClass.RT, 1, 0.0, 1.0)
        # packets placed by hand enter the ledger as generated ones would
        sim.metrics.generated.update([TrafficClass.NRT, TrafficClass.RT])
        classify_enqueue(node.queues, nrt)
        sim._try_start_service(node)
        assert node.queues.in_service is nrt
        classify_enqueue(node.queues, rt)  # higher priority arrives mid-service
        assert node.queues.in_service is nrt
        _m, packets, traces = run_with_deliveries(sim)
        order = [(p.packet_id, trace[-1][1]) for p, trace in zip(packets, traces)]
        assert [pid for pid, _ in order] == [0, 1]
        assert order[0][1] == pytest.approx(SERVICE, abs=1e-12)
        assert order[1][1] == pytest.approx(2 * SERVICE, abs=1e-12)


class TestEnergyAccounting:
    def test_ledger_matches_per_event_recount(self):
        cfg = ScenarioConfig(
            node_count=40,
            grid_width=320.0,
            grid_height=320.0,
            rate_rt=3.0,
            rate_nrt=3.0,
            duration=10.0,
            loss=0.1,
            initial_energy=50.0,
            seed=12,
        )
        sim = Simulation(cfg)
        m = sim.run()
        assert m.deaths == []
        k = cfg.packet_bits
        radio = cfg.radio_params()
        positions = sim.topology.positions
        expected = fsum(
            n * tx_energy(k, distance(positions[u], positions[v]), radio)
            for (u, v), n in sorted(m.tx_by_link.items())
        ) + fsum(n * rx_energy(k, radio) for _nid, n in sorted(m.rx_by_node.items()))
        assert m.total_energy == pytest.approx(expected, rel=1e-9)
        assert m.total_energy == pytest.approx(fsum(m.energy_by_node.values()), rel=1e-9)
        assert m.generated_total() == m.delivered_total() + m.drops_total() + m.in_flight

    def test_sink_consumes_nothing(self):
        m = run(two_node_cfg(rate_rt=40.0, duration=20.0))
        assert 0 not in m.energy_by_node
        assert m.rx_by_node[0] == 0  # receive debits are only taken from sensors


class TestNodeDeath:
    def death_cfg(self):
        return two_node_cfg(
            rate_rt=50.0,
            duration=50.0,
            seed=2,
            initial_energy=7.5e-6 * 10.5,  # pays for exactly 10 sends at 50 m
            deadline_rt=10.0,
        )

    def test_death_after_exact_transmission_count(self):
        m = run(self.death_cfg())
        assert m.tx_by_node[1] == 10
        assert m.delivered_total() == 10
        assert m.drop_count(DropCause.NODE_DEATH) >= 1
        assert m.first_death_time is not None
        assert m.energy_by_node[1] == 7.5e-6 * 10.5  # drained completely
        assert m.residual_by_node[1] == 0.0

    def test_simulation_stops_when_all_sources_dead(self):
        m = run(self.death_cfg())
        assert m.end_time == m.first_death_time
        assert m.end_time == m.deaths[-1][0]
        assert m.end_time < 50.0
        assert m.generated_total() == m.delivered_total() + m.drops_total() + m.in_flight

    def test_alive_timeline(self):
        m = run(self.death_cfg())
        t_death = m.first_death_time
        assert m.alive_at(t_death / 2) == 1
        assert m.alive_at(t_death) == 0

    def test_alive_at_matches_a_linear_count(self):
        m = run(parse_config(GOLDEN_SCENARIOS["battery_death"][0]))
        times = [when for when, _nid in m.deaths]
        assert len(times) > 5 and times == sorted(times)
        for when in [0.0, m.end_time] + times:
            for t in (math.nextafter(when, -math.inf), when,
                      math.nextafter(when, math.inf)):
                linear = m.sensor_count - sum(1 for d in times if d <= t)
                assert m.alive_at(t) == linear

    def test_relay_killed_by_a_receive_counts_the_send_only(self):
        # relay 1 is node 2's only way to the sink; at this seed the relay's
        # own sends drain it between one of node 2's decisions and that
        # packet's arrival, so the receive debit kills it: the send is
        # counted on link (2, 1), the reception is not
        cfg = ScenarioConfig(
            node_count=3,
            positions={1: (550.0, 500.0), 2: (600.0, 500.0)},
            rate_rt=200.0,
            rate_nrt=0.0,
            duration=2.0,
            deadline_rt=10.0,
            initial_energy=1e-4,
            seed=16,
        )
        m = run(cfg)
        assert [nid for _when, nid in m.deaths] == [1]
        assert m.drop_count(DropCause.LINK_LOSS) == 0
        assert m.rx_by_node.keys() == {1}
        assert m.rx_by_node[1] == m.tx_by_link[(2, 1)] - 1

    def test_deaths_between_decision_and_completion(self, monkeypatch):
        # At seed 11 a receive debit kills a node whose own packet is on the
        # radio, and a chosen next hop dies before the send completes.
        sim = DeathBranchRecorder(lossy_lifetime_seed_11())
        record_outcome = LinkStats.record_outcome

        def recorded(stats, delivered):
            sim.outcomes.append(delivered)
            return record_outcome(stats, delivered)

        monkeypatch.setattr(LinkStats, "record_outcome", recorded)
        m = sim.run()

        dropped = {p.packet_id: cause for p, cause in sim.drops}
        on_radio_dropped = [
            (nid, pid) for nid, pid in sim.on_radio_at_kill if pid in dropped
        ]
        assert on_radio_dropped
        for nid, pid in on_radio_dropped:
            # dropped at completion without leaving the radio: no send, so
            # no link outcome, and the node's sends stop where its kill found them
            assert dropped[pid] is DropCause.NODE_DEATH
            assert (nid, pid) not in sim.sends
        for nid, sent_at_kill in sim.sent_at_kill.items():
            assert m.tx_by_node[nid] == sent_at_kill

        reached_dead = [s for s in sim.dead_target_sends if s["sent"] == 1
                        and s["drops"] != [DropCause.LINK_LOSS]]
        assert reached_dead
        for send in reached_dead:
            # a send that left the radio and found its next hop dead: one
            # failed link outcome, a node_death drop, and nothing taken from
            # or counted at the dead target
            assert send["drops"] == [DropCause.NODE_DEATH]
            assert send["outcomes"] == [False]
            assert send["target_debit"] == 0.0
            assert send["received"] == 0


def lossy_lifetime_seed_11():
    """The lossy_lifetime benchmark's keys with placement left to the seed,
    at seed 11."""
    return ScenarioConfig(
        node_count=60,
        grid_width=300.0,
        grid_height=300.0,
        rate_rt=10.0,
        rate_nrt=30.0,
        loss=0.2,
        deadline_rt=0.004,
        deadline_nrt=0.05,
        initial_energy=0.0016,
        duration=2.0,
        seed=11,
    )


class DeathBranchRecorder(Simulation):
    """Notes the two deaths a completion can meet: the sender killed by a
    receive debit while its own packet is on the radio, and a chosen next
    hop that died after the decision. A completion is seen as it leaves the
    FIFO, and a send to a dead next hop ends with its packet's drop."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.drops = []  # (packet, cause) in drop order
        self.on_radio_at_kill = []  # (node, packet id) on a killed node's radio
        self.sent_at_kill = {}  # node killed mid-service -> its sends then
        self.sends = set()  # (sender, packet id) whose sender was alive at its end
        self.outcomes = []  # every flag LinkStats.record_outcome was given
        self.dead_target_sends = []
        self.completions = CompletionTaps(self)
        self._dead_target_send = None  # (packet, sender, target, before)

    def completion(self, event):
        """The send ending now, as run() takes it from the FIFO."""
        time, _seq, sender, packet, target = event
        if time > self.cfg.duration or not sender.battery.alive:
            return
        self.sends.add((sender.node_id, packet.packet_id))
        if not target.battery.alive:
            link = sender.links.get(target.node_id)
            before = {
                "sent": 0 if link is None else link.sent,
                "consumed": target.battery.consumed,
                "received": target.received,
                "drops": len(self.drops),
                "outcomes": len(self.outcomes),
            }
            self._dead_target_send = (packet, sender, target, before)

    def _drop(self, packet, cause):
        self.drops.append((packet, cause))
        super()._drop(packet, cause)
        if self._dead_target_send and self._dead_target_send[0] is packet:
            _packet, sender, target, before = self._dead_target_send
            self._dead_target_send = None
            self.dead_target_sends.append({
                "sent": sender.links[target.node_id].sent - before["sent"],
                "drops": [c for _p, c in self.drops[before["drops"]:]],
                "outcomes": self.outcomes[before["outcomes"]:],
                "target_debit": target.battery.consumed - before["consumed"],
                "received": target.received - before["received"],
            })

    def _kill(self, node):
        if node.queues.in_service is not None:
            self.on_radio_at_kill.append(
                (node.node_id, node.queues.in_service.packet_id)
            )
            self.sent_at_kill[node.node_id] = sum(
                link.sent for link in node.links.values()
            )
        super()._kill(node)


class CompletionTaps(deque):
    """A completion FIFO that shows each event it hands run() to its
    simulation's completion() first."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim

    def popleft(self):
        event = super().popleft()
        self.sim.completion(event)
        return event


def timeline_oracle(seed, cfg, m, delivered_at):
    """timeline.csv rows with each row's delivered count found by bisecting
    the sorted delivery times at the row's time."""
    n = cfg.timeline_bucket_count()
    points = [(i + 1) * cfg.timeline_bucket for i in range(n - 1)] + [cfg.duration]
    times = sorted(delivered_at)
    return [
        [str(seed), cli._fnum(t), str(m.alive_at(t)), str(bisect_right(times, t))]
        for t in points
    ]


class TestDeliveryRecords:
    # 2.9 s in buckets of 2.9 / 9: nine rows, and the ninth row is at 2.9,
    # though 9 x bucket = 2.8999999999999995 falls short of the duration
    SHORT = dict(duration=2.9, timeline_bucket=2.9 / 9)

    @pytest.mark.parametrize(
        "cfg",
        [
            chain_cfg(duration=5.0),
            chain_cfg(rate_rt=50.0, rate_nrt=50.0, **SHORT),
            TestNodeDeath().death_cfg(),
            two_node_cfg(rate_rt=30.0, duration=10.0, timeline_bucket=0.7),
        ],
        ids=["chain", "short_last_row", "death", "uneven_bucket"],
    )
    def test_timeline_matches_bisected_delivery_times(self, cfg):
        m, packets, traces = run_with_deliveries(Simulation(cfg))
        assert len(packets) > 5
        delivered_at = [trace[-1][1] for trace in traces]
        assert cli.timeline_rows(cfg.seed, cfg, m) == timeline_oracle(
            cfg.seed, cfg, m, delivered_at
        )

    def test_timeline_counts_each_delivery_at_its_row(self):
        cfg = two_node_cfg(rate_rt=0.0, **self.SHORT)
        points = cfg.timeline_points()
        assert points[-1] == cfg.duration
        # no run delivers after its duration
        delivered_at = [0.0] + [
            probe
            for t in points
            for probe in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))
            if probe <= cfg.duration
        ]
        sim = Simulation(cfg)
        for i, t in enumerate(delivered_at):
            sim.now = t
            sim._record_delivery(Packet(i, TrafficClass.RT, 1, 0.0, 1.0))
        m = sim.metrics
        rows = cli.timeline_rows(cfg.seed, cfg, m)
        assert rows[-1][3] == str(len(delivered_at))
        assert rows == timeline_oracle(cfg.seed, cfg, m, delivered_at)

    def test_delay_samples_hold_8_bytes_each(self):
        # one float64 per delivered packet; a list of Python floats would
        # hold about 32 B each
        sim = Simulation(two_node_cfg(rate_rt=1000.0, duration=20.0))
        tracemalloc.start()
        try:
            m = sim.run()
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        samples = sum(len(delays) for delays in m.delays.values())
        assert samples == m.delivered_total() > 19_000
        assert held / samples < 12.0



class TestBufferOverflow:
    def test_overloaded_source_fills_its_queue(self):
        cfg = two_node_cfg(
            rate_rt=5000.0,  # rho = 2: the queue must overflow
            duration=5.0,
            queue_capacity=64,
            deadline_rt=100.0,
            initial_energy=50.0,
            seed=8,
        )
        m = run(cfg)
        assert m.drop_count(DropCause.BUFFER_OVERFLOW) > 0
        assert m.generated_total() == m.delivered_total() + m.drops_total() + m.in_flight


class TestExpiry:
    def test_tight_deadline_drops_late_packets(self):
        cfg = two_node_cfg(
            rate_rt=2400.0,  # rho = 0.96: long queue, waits beyond 2 ms
            duration=5.0,
            deadline_rt=0.002,
            queue_capacity=10_000,
            initial_energy=50.0,
            predictive_drop=False,
            seed=10,
        )
        m = run(cfg)
        assert m.drop_count(DropCause.EXPIRED) > 0
        for delay in m.delays[TrafficClass.RT]:
            assert delay <= 0.002

    def test_predictive_drop_spares_doomed_sends(self):
        base = dict(
            rate_rt=2400.0,
            duration=5.0,
            deadline_rt=0.002,
            queue_capacity=10_000,
            initial_energy=50.0,
            seed=10,
        )
        with_pred = run(two_node_cfg(predictive_drop=True, **base))
        without = run(two_node_cfg(predictive_drop=False, **base))
        assert with_pred.drop_count(DropCause.PREDICTIVE) > 0
        # predictive dropping saves the energy of transmitting doomed packets
        assert with_pred.total_energy <= without.total_energy

    def test_allowed_area_that_underflows_disables_the_predictive_drop(self):
        # sensors 1e-170 and 5e-171 m from the sink: each allowed area is
        # pi * d^2, which underflows to 0, so neither has a hop estimate
        cfg = ScenarioConfig(
            node_count=3,
            sink_x=0.0,
            sink_y=0.0,
            positions={1: (1e-170, 0.0), 2: (5e-171, 0.0)},
            duration=10.0,
        )
        sim = Simulation(cfg)
        assert allowed_area(sim.topology.positions[2], sim.topology.positions[SINK_ID],
                            cfg.radio_range) == 0.0
        m = sim.run()
        assert m.generated_total() > 50
        assert m.delivered_total() == m.generated_total()
        # both senders took their estimate with no death recorded, and it is
        # 0: no estimate
        for nid in (1, 2):
            assert (sim.nodes[nid].hops, sim.nodes[nid].hops_deaths) == (0, 0)


class QueueEveryArrival(Simulation):
    """Oracle for the arrival rule: every arriving packet joins its class
    queue, and an idle node then drains its queues. Serving a packet at
    once when it reaches an idle node with empty queues must give the same
    run."""

    def _arrive(self, node, packet):
        if not classify_enqueue(node.queues, packet):
            self._drop(packet, DropCause.BUFFER_OVERFLOW)
        elif node.queues.in_service is None:
            self._try_start_service(node)


ARRIVAL_SCENARIOS = {
    "saturated_relay": lambda: parse_config(GOLDEN_SCENARIOS["saturated_relay"][0]),
    "queue_capacity_1": lambda: two_node_cfg(
        rate_rt=1500.0,
        rate_nrt=1500.0,
        duration=2.0,
        queue_capacity=1,
        deadline_rt=1.0,
        deadline_nrt=1.0,
        initial_energy=50.0,
        seed=4,
    ),
    "lossy_deaths_expiry": lambda: ScenarioConfig(
        node_count=30,
        grid_width=250.0,
        grid_height=250.0,
        loss=0.2,
        initial_energy=0.003,
        rate_rt=60.0,
        rate_nrt=60.0,
        duration=5.0,
        deadline_rt=0.002,
        deadline_nrt=0.003,
        predictive_drop=False,
        seed=1,
    ),
    "mixed_load": mixed_load_cfg,
}


class InvariantChecker(Simulation):
    """Checks the two facts the arrival rule and the death at the kill rest
    on: a node that a packet reaches idle has both queues empty, and a
    killed node's queues are empty with its death noted at once."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.idle_arrivals = 0
        self.kills = 0
        self.queued_at_kill = 0  # packets a kill found in the node's queues

    def _arrive(self, node, packet):
        queues = node.queues
        if queues.in_service is None:
            assert not queues.rt and not queues.nrt, node.node_id
            self.idle_arrivals += 1
        super()._arrive(node, packet)

    def _kill(self, node):
        self.queued_at_kill += len(node.queues.rt) + len(node.queues.nrt)
        super()._kill(node)
        assert not node.queues.rt and not node.queues.nrt, node.node_id
        assert self.metrics.deaths[-1] == (self.now, node.node_id)
        self.kills += 1


# the arrival scenarios, the golden ones (saturated_relay is both) and the
# one run where a kill finds packets queued
INVARIANT_SCENARIOS = {
    **ARRIVAL_SCENARIOS,
    **{
        name: (lambda text=text: parse_config(text))
        for name, (text, _args) in GOLDEN_SCENARIOS.items()
    },
    "lossy_lifetime_seed_11": lossy_lifetime_seed_11,
}


@pytest.mark.parametrize("name", sorted(INVARIANT_SCENARIOS))
def test_idle_nodes_hold_no_packets_and_deaths_act_at_the_kill(name):
    sim = InvariantChecker(INVARIANT_SCENARIOS[name]())
    m = sim.run()
    assert sim.idle_arrivals > 0
    assert sim.kills == len(m.deaths)
    if name == "lossy_lifetime_seed_11":
        assert sim.queued_at_kill > 0


class DeadStreamRecorder(Simulation):
    """Counts, per stream, the arrivals popped after its source died, and
    the arrivals scheduled for a dead source."""

    def __init__(self, cfg):
        self.dead_pops = Counter()  # (source, cls) -> n
        self.dead_schedules = 0
        super().__init__(cfg)

    def _on_generated(self, node, cls, arrivals):
        if not node.battery.alive:
            self.dead_pops[(node.node_id, cls)] += 1
        super()._on_generated(node, cls, arrivals)

    def _schedule(self, node, cls, arrivals):
        if not node.battery.alive:
            self.dead_schedules += 1
        super()._schedule(node, cls, arrivals)


def test_a_dead_sources_streams_end():
    # each stream's cursor rides its one pending event; the event that
    # finds its source dead schedules nothing, so the stream ends there
    sim = DeadStreamRecorder(lossy_lifetime_seed_11())
    m = sim.run()
    dead_sources = {nid for _t, nid in m.deaths} & sim.source_set
    assert len(dead_sources) > 10
    assert sim.dead_pops and {nid for nid, _cls in sim.dead_pops} <= dead_sources
    assert max(sim.dead_pops.values()) == 1
    assert sim.dead_schedules == 0


class HopsRecorder(Simulation):
    """Notes each hop estimate a node takes: (node, alive allowed neighbors)."""

    def __init__(self, cfg):
        self.hops_calls = []
        super().__init__(cfg)

    def _hops_to_sink(self, node, alive):
        assert alive == sum(st.battery.alive for st in node.allowed)
        self.hops_calls.append((node.node_id, alive))
        return super()._hops_to_sink(node, alive)


def test_hop_estimate_is_retaken_only_when_its_count_changes():
    # a death elsewhere in the network leaves a node's estimate as it is;
    # retaking it after every death made 590 calls on this run, not 152
    sim = HopsRecorder(lossy_lifetime_seed_11())
    m = sim.run()
    assert len(m.deaths) > 10
    by_node = {}
    for nid, alive in sim.hops_calls:
        by_node.setdefault(nid, []).append(alive)
    for counts in by_node.values():
        # neighbors only die, and each estimate is at a new count
        assert all(a > b for a, b in zip(counts, counts[1:]))
    assert len(sim.hops_calls) == 152


@pytest.mark.parametrize("name", sorted(BENCHMARK_WORKLOADS))
def test_hop_estimate_is_the_position_based_estimate(name):
    # _hops_to_sink takes the estimate from the topology's stored sink
    # distance; on every node of each benchmark layout and at every alive
    # count it could see, it is the estimate that allowed_area, delta and
    # hops_linear give from the node's position
    cfg = parse_config(BENCHMARK_WORKLOADS[name].config_text(1))
    sim = Simulation(cfg)
    positions = sim.topology.positions
    sink = positions[SINK_ID]
    checked = 0
    for node in sim.nodes:
        pos = positions[node.node_id]
        for alive in range(1, len(node.allowed) + 1):
            expected = hops_linear(
                pos, sink, delta(allowed_area(pos, sink, cfg.radio_range), alive)
            )
            assert sim._hops_to_sink(node, alive) == expected, (node.node_id, alive)
            checked += 1
    assert checked >= len(sim.nodes)


class EventOrderRecorder(Simulation):
    """Notes each generation and each send completion as it is handled."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.handled = []  # ("generation" | "completion", time)
        self.completions = CompletionTaps(self)

    def _on_generated(self, node, cls, arrivals):
        self.handled.append(("generation", self.now))
        super()._on_generated(node, cls, arrivals)

    def completion(self, event):
        if event[0] <= self.cfg.duration:
            self.handled.append(("completion", event[0]))


class SortedCompletions(deque):
    """A completion FIFO that fails on an append out of (time, seq) order."""

    appends = 0

    def append(self, event):
        if self and not self[-1][:2] < event[:2]:
            raise AssertionError(f"completion {event[:2]} after {self[-1][:2]}")
        self.appends += 1
        super().append(event)


class CompletionOrderChecker(Simulation):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.completions = SortedCompletions()


class TestEventCalendar:
    """Generations ride a heap and send completions a FIFO; run() must
    still handle every event in (time, seq) order."""

    @pytest.mark.parametrize("generation_first", [True, False])
    def test_time_ties_between_the_queues_go_in_seq_order(self, generation_first):
        sim = EventOrderRecorder(two_node_cfg(rate_rt=0.0))
        assert not sim.heap
        node = sim.nodes[1]
        at = sim.now + sim._x  # when a send started now ends
        packet = Packet(0, TrafficClass.RT, 1, sim.now, 1.0)
        sim.metrics.generated[TrafficClass.RT] += 1  # so the ledger closes
        if generation_first:
            sim._schedule(node, TrafficClass.RT, iter([at]))
        sim._arrive(node, packet)
        assert node.queues.in_service is packet
        if not generation_first:
            sim._schedule(node, TrafficClass.RT, iter([at]))
        assert sim.heap[0][0] == sim.completions[0][0] == at
        sim.run()
        expected = ["completion", "generation"]
        if generation_first:
            expected.reverse()
        assert sim.handled[:2] == [(kind, at) for kind in expected]

    @pytest.mark.parametrize("name", sorted(
        [*GOLDEN_SCENARIOS, "lossy_lifetime_seed_11"]
    ))
    def test_completions_are_appended_in_order(self, name):
        sim = CompletionOrderChecker(INVARIANT_SCENARIOS[name]())
        m = sim.run()
        # one completion per packet put on a radio, none of them out of order
        assert sim.completions.appends == m.wait_count.total() > 0


@pytest.fixture()
def engine_calls(monkeypatch):
    """Counts the engine's classify_enqueue calls ("enqueue"), and its
    Simulation._serve calls ("serve") and those that put the packet on the
    radio ("served")."""
    calls = Counter()
    enqueue = wsnqos.engine.classify_enqueue
    serve = Simulation._serve

    def counted(queues, packet):
        calls["enqueue"] += 1
        return enqueue(queues, packet)

    def counted_serve(sim, node, packet):
        calls["serve"] += 1
        served = serve(sim, node, packet)
        calls["served"] += served
        return served

    monkeypatch.setattr(wsnqos.engine, "classify_enqueue", counted)
    monkeypatch.setattr(Simulation, "_serve", counted_serve)
    return calls


def run_profiled(sim):
    """Run sim under a profile hook; returns its metrics and the calls made
    to each engine function by name, with Battery.debit, record_outcome and
    RateEstimator.observe counted as "debit", "record_outcome", "observe"."""
    counted = {
        Battery.debit.__code__: "debit",
        LinkStats.record_outcome.__code__: "record_outcome",
        RateEstimator.observe.__code__: "observe",
    }
    calls = Counter()

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code in counted:
            calls[counted[code]] += 1
        elif code.co_filename == engine.__file__:
            calls[code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        m = sim.run()
    finally:
        sys.setprofile(previous)
    return m, calls


class TestArrivalRule:
    @pytest.mark.parametrize("name", sorted(ARRIVAL_SCENARIOS))
    def test_matches_queueing_every_arrival(self, engine_calls, name):
        cfg = ARRIVAL_SCENARIOS[name]()
        m = Simulation(cfg).run()
        assert engine_calls["enqueue"] > 0  # some packets found their node busy
        engine_calls.clear()
        oracle = QueueEveryArrival(cfg).run()
        assert cli.metrics_row(cfg.seed, m) == cli.metrics_row(cfg.seed, oracle)
        assert cli.timeline_rows(cfg.seed, cfg, m) == cli.timeline_rows(
            cfg.seed, cfg, oracle
        )
        assert m == oracle
        # the oracle takes every packet from a queue, so _serve puts each
        # packet on its radio and makes every decision that drops one: the
        # run above started its idle sends in _arrive, and this one in _serve
        refused = m.drop_count(DropCause.NO_ROUTE) + m.drop_count(DropCause.PREDICTIVE)
        assert engine_calls["served"] == m.wait_count.total() > 0
        assert engine_calls["serve"] == m.wait_count.total() + refused
        if name == "queue_capacity_1":
            assert m.drop_count(DropCause.BUFFER_OVERFLOW) > 0
        if name == "lossy_deaths_expiry":
            assert m.deaths and m.drop_count(DropCause.EXPIRED) > 0

    def test_light_load_never_queues(self, engine_calls):
        class NoAppend(deque):
            def append(self, packet):
                raise AssertionError(f"packet {packet.packet_id} was queued")

        sim = Simulation(chain_cfg(rate_rt=1.0, duration=100.0))
        for st in sim.nodes:
            st.queues.rt, st.queues.nrt = NoAppend(), NoAppend()
        m, packets, traces = run_with_deliveries(sim)
        assert engine_calls["enqueue"] == 0
        # every send started in _arrive; none came from a queue
        assert engine_calls["serve"] == 0
        assert len(packets) == m.generated_total() > 50
        # each packet was served at once at the head and at the relay
        assert m.wait_count == Counter(
            {(2, TrafficClass.RT): len(packets), (1, TrafficClass.RT): len(packets)}
        )
        assert all(total == 0.0 for total in m.wait_sum.values())
        for trace in traces:
            times = [t for _nid, t in trace]
            assert times[1] - times[0] == pytest.approx(SERVICE, abs=1e-12)
            assert times[2] - times[1] == pytest.approx(SERVICE, abs=1e-12)

    def test_calls_per_send_at_light_load(self):
        # the shape of a hop, counted with no timing: each send's end is
        # handled in run(), which hands the packet to _arrive, which routes
        # it and puts it on the radio; no other engine frame lies between
        # them. Every packet leaves the head (node 2), reaches the relay
        # (node 1) and then the sink, so it makes two sends, three debits
        # (the head's send, the relay's receive and its send) and two rate
        # updates (at its generation and at the relay)
        m, calls = run_profiled(Simulation(chain_cfg(rate_rt=1.0, duration=100.0)))
        sends = m.tx_by_link.total()
        packets = m.generated_total()
        assert m.delivered_total() == packets > 50
        assert sends == 2 * packets
        assert calls["_deliver"] == calls["_serve"] == 0
        assert calls["_arrive"] == calls["_route"] == sends
        assert 2 * calls["debit"] == 3 * sends
        assert calls["record_outcome"] == calls["observe"] == sends

    def test_calls_per_send_at_light_load_on_lossy_links(self):
        # as above, with loss on both hops: a packet lost on the first hop
        # makes one send, so a relay's receptions, not the packets, count its
        # second sends, receive debits and rate updates. Each lossy link
        # draws its outcomes in blocks of LOSS_CHUNK, the first at its first
        # send, so it makes ceil(sends / LOSS_CHUNK) draws. Seed 7's first
        # draw on each link is a delivery, so neither PRR falls to 0
        class CountingRng:
            def __init__(self, rng):
                self.rng = rng
                self.calls = []

            def random(self, *args, **kwargs):
                self.calls.append((args, kwargs))
                return self.rng.random(*args, **kwargs)

        class CountedLossDraws(Simulation):
            def _new_link(self, sender, target):
                link = super()._new_link(sender, target)
                link.loss_rng = CountingRng(link.loss_rng)
                return link

        sim = CountedLossDraws(chain_cfg(rate_rt=1.0, duration=100.0, loss=0.2, seed=7))
        m, calls = run_profiled(sim)
        sends = m.tx_by_link.total()
        packets = m.generated_total()
        received = m.rx_by_node.total()
        assert m.drop_count(DropCause.LINK_LOSS) > 0
        assert m.delivered_total() + m.drop_count(DropCause.LINK_LOSS) == packets > 50
        assert sends == packets + received
        assert calls["_deliver"] == calls["_serve"] == 0
        assert calls["_arrive"] == calls["_route"] == sends
        assert calls["debit"] == sends + received
        assert calls["record_outcome"] == calls["observe"] == sends
        links = [link for st in sim.nodes for link in st.links.values()]
        assert len(links) == 2
        for link in links:
            assert link.sent > LOSS_CHUNK
            blocks = link.loss_rng.calls
            assert len(blocks) == math.ceil(link.sent / LOSS_CHUNK)
            assert blocks == [((LOSS_CHUNK,), {})] * len(blocks)

    def test_per_run_records_have_no_instance_dict(self):
        # the records a hop reads and writes are slotted
        sim = Simulation(chain_cfg(rate_rt=20.0, duration=2.0, loss=0.1))
        sim.run()
        node = sim.nodes[2]
        records = [
            node, node.battery, node.queues, node.rate_rt, node.rate_nrt,
            *node.links.values(),
            Packet(0, TrafficClass.RT, 2, 0.0, 1.0),
        ]
        kinds = {type(r) for r in records}
        assert kinds == {NodeState, Battery, NodeQueues, RateEstimator, Link, Packet}
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__


def fixed_rate(sim, rate):
    """A RateEstimator whose reading at sim.now is exactly `rate`: its level
    is the rate and its last arrival is now."""
    est = RateEstimator(sim.cfg.rate_tau)
    est.level = rate
    est.last_arrival = sim.now
    return est


def forget_hops(node):
    """Make the node retake its hop estimate at its next decision, as a
    death does. A test that swaps batteries by hand kills or revives
    neighbors without Simulation._kill, so it calls this for the sender."""
    node.hops_deaths = -1
    node.hops_alive = -1


def reference_route(sim, node, packet, alive_count=None):
    """The readable decision path that Simulation._route must reproduce;
    alive_count, when given, replaces the count of alive allowed neighbors
    the hop estimate is taken at."""
    cfg = sim.cfg
    x = cfg.packet_bits / sim.radio.bandwidth
    views = []
    for st in node.allowed:
        nid = st.node_id
        if not st.battery.alive:
            continue
        loads = QueueModelParams(
            rt=ClassLoad.deterministic(st.rate_rt.rate_at(sim.now), x),
            nrt=ClassLoad.deterministic(st.rate_nrt.rate_at(sim.now), x),
        )
        link = node.links.get(nid)
        views.append(
            NeighborView(
                node_id=nid,
                residual_energy=st.battery.residual,
                queue_params=loads,
                prr=1.0 if link is None else link.prr(),
            )
        )
    if not views:
        return DropCause.NO_ROUTE, []
    sender_pos = sim.topology.positions[node.node_id]
    sink_pos = sim.topology.positions[SINK_ID]
    table = build_neighbor_table(
        sender_pos, packet.cls, views, cfg.packet_bits, sim.radio, sim.weights
    )
    if cfg.predictive_drop:
        area = allowed_area(sender_pos, sink_pos, cfg.radio_range)
        hop_delay = min_finite_delay(table)
        if area > 0.0 and hop_delay is not None:
            spacing = delta(area, len(table) if alive_count is None else alive_count)
            if spacing > 0.0 and not predictive_drop_check(
                packet.deadline,
                sim.now,
                hops_linear(sender_pos, sink_pos, spacing),
                hop_delay,
            ):
                return DropCause.PREDICTIVE, table
    choice = select_next_hop(table, sim.weights)
    return (DropCause.NO_ROUTE if choice is None else choice), table


def routed(sim, node, packet):
    """Simulation._route's decision as reference_route gives it: a drop
    cause, or the chosen next hop's id. The hop comes as a NodeState, the
    one Simulation.nodes holds for that id."""
    decision = sim._route(node, packet)
    if isinstance(decision, DropCause):
        return decision
    assert decision is sim.nodes[decision.node_id]
    return decision.node_id


class TestRouteMatchesReference:
    """Simulation._route against the NeighborView / build_neighbor_table path."""

    SENDER = 1

    def sim(self, **kw):
        # sender 1 is 60 m east of the sink; 2..6 and the sink are its allowed
        # neighbors, 7 is in reach but farther from the sink
        cfg = ScenarioConfig(
            node_count=8,
            positions={
                1: (560.0, 500.0),
                2: (530.0, 500.0),
                3: (540.0, 520.0),
                4: (540.0, 480.0),
                5: (510.0, 510.0),
                6: (520.0, 460.0),
                7: (555.0, 470.0),
            },
            sources=(1,),
            rate_rt=0.0,
            rate_nrt=0.0,
            duration=1.0,
            **kw,
        )
        sim = Simulation(cfg)
        allowed = [st.node_id for st in sim.nodes[self.SENDER].allowed]
        assert allowed == [SINK_ID, 2, 3, 4, 5, 6]
        return sim

    def randomize(self, sim, rng):
        """Random neighbor state: loads on both sides of the stability
        boundary, batteries below the receive cost, dead links, dead nodes
        (now and then most of them, which shortens the hop estimate) and,
        now and then, two neighbors in the same state (an equal cost)."""
        sender = sim.nodes[self.SENDER]
        sender.links.clear()
        capacity = sim.radio.bandwidth / sim.cfg.packet_bits  # packets/s
        rx_cost = rx_energy(sim.cfg.packet_bits, sim.radio)
        dead_share = rng.choice([0.15, 0.75])
        states = {}
        for st in sim.nodes[self.SENDER].allowed:
            nid = st.node_id
            rho = [rng.choice([0.0, rng.uniform(0.0, 0.6), rng.uniform(0.4, 1.2)])
                   for _ in range(2)]
            if rng.random() < 0.1:
                rho[0] = 1.0  # exactly at the boundary
            residual = rng.choice([rx_cost * 0.5, rx_cost, rng.uniform(1e-5, 2.0)])
            outcomes = rng.choice([[], [False] * 3,
                                   [rng.random() < 0.7 for _ in range(rng.randint(1, 30))]])
            alive = nid == SINK_ID or rng.random() >= dead_share
            states[nid] = (rho[0] * capacity, rho[1] * capacity, residual, outcomes, alive)
        if rng.random() < 0.5:
            a, b = rng.sample(sorted(states.keys() - {SINK_ID}), 2)
            states[b] = states[a][:4] + (states[b][4],)
        for nid, (lam1, lam2, residual, outcomes, alive) in states.items():
            st = sim.nodes[nid]
            st.rate_rt = fixed_rate(sim, lam1)
            st.rate_nrt = fixed_rate(sim, lam2)
            if nid != SINK_ID:
                st.battery = Battery(residual, alive=alive)
            if outcomes:
                link = sim._new_link(sender, st)
                for delivered in outcomes:
                    link.record_outcome(delivered)
        forget_hops(sender)

    def test_random_states_match_exactly(self):
        rng = random.Random(4242)
        seen = Counter()
        trials = 0
        sim = self.sim()
        node = sim.nodes[self.SENDER]
        for i in range(1600):
            sim.now = rng.uniform(0.0, 10.0)
            self.randomize(sim, rng)
            cls = rng.choice(list(TrafficClass))
            packet = Packet(
                i, cls, self.SENDER, sim.now, sim.now + rng.uniform(1e-4, 4e-3)
            )
            expected, table = reference_route(sim, node, packet)
            assert routed(sim, node, packet) == expected
            trials += 1
            seen[expected if isinstance(expected, DropCause) else "hop"] += 1
            seen[cls] += 1
            seen["sink chosen"] += expected == SINK_ID
            seen["unstable"] += any(math.isinf(e.predicted_delay) for e in table)
            seen["usable <= 0"] += any(e.usable_energy <= 0.0 for e in table)
            seen["prr = 0"] += any(e.prr == 0.0 for e in table)
            seen["dead"] += len(table) < len(node.allowed)
            costs = [e.cost for e in table if math.isfinite(e.cost)]
            seen["tie"] += bool(costs) and costs.count(min(costs)) > 1
            # _route skips the queue model of a candidate whose cost bound
            # cannot win, and the smallest delay is often one of those
            fastest = min(table, key=lambda e: e.predicted_delay, default=None)
            seen["min delay not chosen"] += (
                not isinstance(expected, DropCause)
                and fastest.node_id != expected
            )
            # a hop estimate taken with every allowed neighbor alive would
            # decide otherwise, so the sender counted the dead ones out
            seen["alive count decides"] += (
                reference_route(sim, node, packet, len(node.allowed))[0] != expected
            )
        assert trials >= 1000
        for case in (
            "hop", DropCause.NO_ROUTE, DropCause.PREDICTIVE, TrafficClass.RT,
            TrafficClass.NRT, "sink chosen", "unstable", "usable <= 0", "prr = 0",
            "dead", "tie", "min delay not chosen", "alive count decides",
        ):
            assert seen[case] >= 20, (case, seen)

    def randomize_history(self, sim, rng):
        """Random neighbor state reached through the estimators' and links'
        own updates: arrivals observed before now (so a reading decays
        through exp), now and then one at now itself (a zero gap), and
        links never built, built with an empty window, partly filled or
        full and evicting."""
        sender = sim.nodes[self.SENDER]
        sender.links.clear()
        tau = sim.cfg.rate_tau
        window = sim.cfg.prr_window
        rx_cost = rx_energy(sim.cfg.packet_bits, sim.radio)
        for st in sender.allowed:
            for attr in ("rate_rt", "rate_nrt"):
                est = RateEstimator(tau)
                # within a few tau of now, so some readings pass capacity
                span = rng.choice([tau, 5.0 * tau, 100.0 * tau])
                times = sorted(
                    max(0.0, sim.now - rng.uniform(0.0, span))
                    for _ in range(rng.randint(0, 40))
                )
                if rng.random() < 0.2:
                    times.append(sim.now)
                for t in times:
                    est.observe(t)
                setattr(st, attr, est)
            if st.node_id != SINK_ID:
                level = rng.choice([rx_cost * 0.5, rng.uniform(1e-5, 2.0)])
                st.battery = Battery(level, alive=rng.random() >= 0.15)
            sends = rng.choice([None, 0, rng.randint(1, window - 1),
                                rng.randint(window, 3 * window)])
            if sends is not None:
                link = sim._new_link(sender, st)
                quality = rng.choice([0.0, rng.random(), 1.0])
                for _ in range(sends):
                    link.record_outcome(rng.random() < quality)
        forget_hops(sender)

    def test_decayed_rates_and_prr_windows_match_exactly(self):
        # _route reads the estimators' and links' fields inline; it must
        # decide as reference_route does, which calls rate_at() and prr()
        rng = random.Random(977)
        seen = Counter()
        sim = self.sim(rate_tau=0.01, prr_window=8)
        node = sim.nodes[self.SENDER]
        for i in range(1200):
            sim.now = rng.uniform(0.0, 10.0)
            self.randomize_history(sim, rng)
            cls = rng.choice(list(TrafficClass))
            packet = Packet(
                i, cls, self.SENDER, sim.now, sim.now + rng.uniform(1e-4, 4e-3)
            )
            expected, table = reference_route(sim, node, packet)
            assert routed(sim, node, packet) == expected
            seen[expected if isinstance(expected, DropCause) else "hop"] += 1
            seen["unstable"] += any(math.isinf(e.predicted_delay) for e in table)
            for st in node.allowed:
                if not st.battery.alive:
                    continue
                for est in (st.rate_rt, st.rate_nrt):
                    if est.last_arrival == sim.now:
                        seen["gap = 0"] += 1
                    elif est.level > 0.0:
                        seen["decayed"] += 1
                link = node.links.get(st.node_id)
                if link is None:
                    seen["no link"] += 1
                else:
                    sent = link.sent_count
                    seen["empty window" if sent == 0 else
                         "full window" if sent == sim.cfg.prr_window else
                         "partial window"] += 1
        for case in (
            "hop", DropCause.NO_ROUTE, DropCause.PREDICTIVE, "unstable", "gap = 0",
            "decayed", "no link", "empty window", "partial window", "full window",
        ):
            assert seen[case] >= 20, (case, seen)

    def test_negative_arrival_rate_is_an_error(self):
        for estimator in ("rate_rt", "rate_nrt"):
            sim = self.sim()
            getattr(sim.nodes[2], estimator).level = -1.0
            packet = Packet(0, TrafficClass.RT, self.SENDER, 0.0, 1.0)
            with pytest.raises(ValueError, match="arrival rate"):
                sim._route(sim.nodes[self.SENDER], packet)

    def bound(self, sim, entry):
        """alpha*x + beta/usable + gamma/prr of a table entry, in the order
        _route sums its cost: never above that cost."""
        w = sim.weights
        return w.alpha * sim._x + w.beta / entry.usable_energy + w.gamma / entry.prr

    @pytest.mark.parametrize("cls", list(TrafficClass))
    def test_skipped_candidate_with_the_smallest_delay_decides_the_drop(self, cls):
        # the sink wins on cost with a loaded queue; node 2 is idle, so it
        # holds the smallest delay, but its battery is nearly flat, so its
        # bound alone is above the sink's cost and _route skips its queue
        # model. Keeping the packet turns on node 2's delay.
        sim = self.sim()
        sim.now = 1.0
        node = sim.nodes[self.SENDER]
        capacity = sim.radio.bandwidth / sim.cfg.packet_bits
        sink, fast = sim.nodes[SINK_ID], sim.nodes[2]
        sink.rate_rt = fixed_rate(sim, 0.9 * capacity)
        sink.rate_nrt = fixed_rate(sim, 0.0)
        fast.rate_rt = fixed_rate(sim, 0.0)
        fast.rate_nrt = fixed_rate(sim, 0.0)
        fast.battery = Battery(rx_energy(sim.cfg.packet_bits, sim.radio) + 1e-6)
        for nid in (3, 4, 5, 6):
            sim.nodes[nid].battery = Battery(1.0, alive=False)
        _, table = reference_route(
            sim, node, Packet(0, cls, self.SENDER, sim.now, sim.now + 1.0)
        )
        by_id = {e.node_id: e for e in table}
        assert sorted(by_id) == [SINK_ID, 2]
        assert self.bound(sim, by_id[2]) >= by_id[SINK_ID].cost
        assert by_id[2].predicted_delay < by_id[SINK_ID].predicted_delay
        hops = sim._hops_to_sink(node, len(table))
        assert hops > 0
        keep_by = sim.now + hops * by_id[2].predicted_delay
        assert keep_by < sim.now + hops * by_id[SINK_ID].predicted_delay
        for deadline, expected in (
            (keep_by, SINK_ID),
            (math.nextafter(keep_by, 0.0), DropCause.PREDICTIVE),
        ):
            packet = Packet(1, cls, self.SENDER, sim.now, deadline)
            assert reference_route(sim, node, packet)[0] == expected
            assert routed(sim, node, packet) == expected

    def test_idle_candidate_whose_bound_is_its_cost_still_wins(self):
        # node 2 is idle, so its delay is exactly x and its bound equals its
        # cost, which beats the loaded sink's by a quarter of alpha*x: the
        # bound must not exceed the cost, or _route would skip the winner
        sim = self.sim()
        node = sim.nodes[self.SENDER]
        capacity = sim.radio.bandwidth / sim.cfg.packet_bits
        w = sim.weights
        sink, idle = sim.nodes[SINK_ID], sim.nodes[2]
        sink.rate_rt = fixed_rate(sim, 0.5 * capacity)
        sink.rate_nrt = fixed_rate(sim, 0.0)
        rx_cost = rx_energy(sim.cfg.packet_bits, sim.radio)
        idle.battery = Battery(w.beta / (0.25 * w.alpha * sim._x) + rx_cost)
        for nid in (3, 4, 5, 6):
            sim.nodes[nid].battery = Battery(1.0, alive=False)
        for cls in TrafficClass:
            packet = Packet(0, cls, self.SENDER, sim.now, sim.now + 1.0)
            expected, table = reference_route(sim, node, packet)
            by_id = {e.node_id: e for e in table}
            assert by_id[2].predicted_delay == sim._x
            assert self.bound(sim, by_id[2]) == by_id[2].cost < by_id[SINK_ID].cost
            assert routed(sim, node, packet) == expected == 2

    def test_only_unusable_candidates_give_no_route_or_predictive(self):
        # every alive candidate has usable <= 0 or PRR 0, so no cost is
        # finite and _route scores none of them; the cause still depends on
        # their delays, which only the predictive drop reads
        rng = random.Random(2020)
        seen = Counter()
        sim = self.sim()
        node = sim.nodes[self.SENDER]
        capacity = sim.radio.bandwidth / sim.cfg.packet_bits
        rx_cost = rx_energy(sim.cfg.packet_bits, sim.radio)
        for i in range(400):
            sim.now = rng.uniform(0.0, 10.0)
            node.links.clear()
            for st in node.allowed:
                st.rate_rt = fixed_rate(sim, rng.uniform(0.0, 1.1) * capacity)
                st.rate_nrt = fixed_rate(sim, rng.uniform(0.0, 1.1) * capacity)
                if st.node_id == SINK_ID or rng.random() < 0.5:
                    st.battery = Battery(
                        math.inf if st.node_id == SINK_ID else 1.0,
                        alive=st.node_id == SINK_ID or rng.random() >= 0.2,
                    )
                    link = sim._new_link(node, st)
                    for _ in range(rng.randint(1, 5)):
                        link.record_outcome(False)
                else:
                    st.battery = Battery(rng.choice([rx_cost * 0.5, rx_cost]))
            forget_hops(node)
            cls = rng.choice(list(TrafficClass))
            packet = Packet(
                i, cls, self.SENDER, sim.now, sim.now + rng.uniform(1e-4, 4e-3)
            )
            expected, table = reference_route(sim, node, packet)
            assert all(
                e.usable_energy <= 0.0 or e.prr == 0.0 for e in table
            ), table
            assert routed(sim, node, packet) == expected
            seen[expected] += 1
        assert set(seen) == {DropCause.NO_ROUTE, DropCause.PREDICTIVE}, seen
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("estimator", ["rate_rt", "rate_nrt"])
    @pytest.mark.parametrize("skipped_by", ["bound", "usable <= 0", "prr = 0"])
    def test_negative_arrival_rate_on_a_skipped_candidate_is_an_error(
        self, estimator, skipped_by
    ):
        # node 2 is never scored: at full charge its bound is above the
        # idle sink's cost, and its energy or PRR can rule it out first
        sim = self.sim()
        node = sim.nodes[self.SENDER]
        skipped = sim.nodes[2]
        if skipped_by == "usable <= 0":
            skipped.battery = Battery(rx_energy(sim.cfg.packet_bits, sim.radio))
        elif skipped_by == "prr = 0":
            sim._new_link(node, skipped).record_outcome(False)
        packet = Packet(0, TrafficClass.RT, self.SENDER, 0.0, 1.0)
        _, table = reference_route(sim, node, packet)
        by_id = {e.node_id: e for e in table}
        if skipped_by == "bound":
            assert self.bound(sim, by_id[2]) >= by_id[SINK_ID].cost
        else:
            assert by_id[2].usable_energy <= 0.0 or by_id[2].prr == 0.0
        getattr(skipped, estimator).level = -1.0
        with pytest.raises(ValueError, match="arrival rate"):
            sim._route(node, packet)

    def test_a_death_retakes_the_hop_estimate(self):
        # every neighbor is idle, so the smallest delay is x; a deadline of
        # now + x keeps the packet only on a one-hop estimate, which the
        # sender takes once at most two of its six neighbors are alive.
        # Neighbors die through the engine's own path, a draining debit
        # and then _kill, one per decision.
        sim = self.sim()
        sim.now = 1.0
        node = sim.nodes[self.SENDER]
        assert [sim._hops_to_sink(node, n) for n in (2, 3, 6)] == [1, 2, 2]
        verdicts = []
        for victim in (None, 2, 3, 4, 5):
            if victim is not None:
                st = sim.nodes[victim]
                st.battery.debit(st.battery.level + 1.0)
                assert not st.battery.alive
                sim._kill(st)
            packet = Packet(0, TrafficClass.RT, self.SENDER, sim.now, sim.now + sim._x)
            expected, _ = reference_route(sim, node, packet)
            assert routed(sim, node, packet) == expected
            verdicts.append(expected)
        assert verdicts[:-1] == [DropCause.PREDICTIVE] * 4
        assert verdicts[-1] == SINK_ID
        # an estimate taken with all six alive would still drop it
        stale, _ = reference_route(sim, node, packet, len(node.allowed))
        assert stale is DropCause.PREDICTIVE
        assert len(sim.metrics.deaths) == 4


def test_each_decision_decays_a_candidate_rate_once(monkeypatch):
    # a candidate's two arrival rates each cost at most one exp call per
    # decision, whether the decision scores it for its cost or only for
    # the predictive drop's check; counted on a lossy run with deaths,
    # where both kinds of decision are common
    exp_calls = 0
    exp = math.exp

    def counted_exp(value):
        nonlocal exp_calls
        exp_calls += 1
        return exp(value)

    over = []
    decisions = 0
    route = Simulation._route

    def checked_route(sim, node, packet):
        nonlocal exp_calls, decisions
        alive = sum(st.battery.alive for st in node.allowed)
        exp_calls = 0
        decision = route(sim, node, packet)
        decisions += 1
        if exp_calls > 2 * alive:
            over.append((exp_calls, alive))
        return decision

    monkeypatch.setattr(engine.math, "exp", counted_exp)
    monkeypatch.setattr(Simulation, "_route", checked_route)
    m = run(lossy_lifetime_seed_11())
    assert m.deaths and m.drop_count(DropCause.PREDICTIVE) > 0
    assert decisions > 1000
    assert over == []


# Battery.debit stand-ins that break the energy ledger.


def leaky_debit(self, amount):
    """Reports more joules than it takes from the battery."""
    if not self.alive:
        return 0.0
    self.consumed += 0.5 * amount
    return amount


def overdrawing_debit(self, amount):
    """Takes the full amount on a shortfall, so consumed passes initial."""
    if not self.alive:
        return 0.0
    if amount > self.residual:
        self.alive = False
    self.consumed += amount
    return amount


def stale_level_debit(self, amount):
    """Counts the draw in consumed but leaves the stored level where it was."""
    if not self.alive:
        return 0.0
    self.consumed += amount
    return amount


class TestEnergyLedgerClosure:
    @pytest.mark.parametrize(
        "debit,cfg,message",
        [
            (leaky_debit, two_node_cfg(rate_rt=40.0, duration=20.0),
             "energy ledger does not close"),
            (overdrawing_debit, TestNodeDeath().death_cfg(),
             "battery of node 1 does not close"),
            (stale_level_debit, two_node_cfg(rate_rt=40.0, duration=20.0),
             "battery of node 1 does not close"),
        ],
        ids=["leaky", "overdrawing", "stale level"],
    )
    def test_broken_debit_stops_the_run(self, monkeypatch, debit, cfg, message):
        monkeypatch.setattr(Battery, "debit", debit)
        with pytest.raises(RuntimeError, match=message):
            run(cfg)


def test_link_state_is_built_once_per_link(monkeypatch):
    # per-link facts (transmit energy, loss probability) are computed when a
    # link carries its first send and never again; counted on a multi-hop
    # lossy run with a per-link loss override and relay deaths. The same run
    # checks the exported per-link and per-node tallies against calls
    # counted from outside the engine.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(wsnqos.engine, "tx_energy",
                        counted("tx_energy", wsnqos.engine.tx_energy))
    monkeypatch.setattr(ScenarioConfig, "loss_for",
                        counted("loss_for", ScenarioConfig.loss_for))

    # a Link is its own PRR window: one LinkStats built per link
    windows = Counter()  # id(LinkStats) -> __init__ calls
    stats_init = LinkStats.__init__

    def counted_init(stats, window):
        windows[id(stats)] += 1
        stats_init(stats, window)

    outcomes = Counter()  # id(LinkStats) -> record_outcome calls
    record_outcome = LinkStats.record_outcome

    def counted_outcome(stats, delivered):
        outcomes[id(stats)] += 1
        return record_outcome(stats, delivered)

    receptions = Counter()  # id(Battery) -> receive debits it survived
    debit = Battery.debit

    def counted_debit(battery, amount):
        drained = debit(battery, amount)
        if amount == rx_cost and battery.alive:
            receptions[id(battery)] += 1
        return drained

    routed = Counter()
    route = Simulation._route

    def counted_route(sim, node, packet):
        decision = route(sim, node, packet)
        routed[isinstance(decision, DropCause)] += 1
        return decision

    monkeypatch.setattr(LinkStats, "__init__", counted_init)
    monkeypatch.setattr(LinkStats, "record_outcome", counted_outcome)
    monkeypatch.setattr(Battery, "debit", counted_debit)
    monkeypatch.setattr(Simulation, "_route", counted_route)
    cfg = ScenarioConfig(
        node_count=30,
        grid_width=300.0,
        grid_height=300.0,
        rate_rt=3.0,
        rate_nrt=3.0,
        duration=10.0,
        loss=0.1,
        link_loss={(29, 23): 0.5},
        initial_energy=0.003,
        seed=2,
    )
    rx_cost = rx_energy(cfg.packet_bits, cfg.radio_params())
    sim = Simulation(cfg)
    m = sim.run()
    assert m.deaths
    assert m.tx_by_link[(29, 23)] > 0
    assert m.rx_by_node.total() > 0  # relays carried traffic
    links = sum(len(st.links) for st in sim.nodes)
    sends = sum(m.tx_by_node.values())
    assert calls["tx_energy"] == links
    assert windows == Counter(id(link) for st in sim.nodes for link in st.links.values())
    assert calls["loss_for"] == links
    assert 20 * links < sends

    sent_by_link = Counter()
    for u, st in enumerate(sim.nodes):
        for v, link in st.links.items():
            assert isinstance(link, LinkStats)
            if outcomes[id(link)]:
                sent_by_link[(u, v)] = outcomes[id(link)]
    assert m.tx_by_link == sent_by_link
    assert sum(outcomes.values()) == sends
    sent_by_node = Counter()
    for (u, _v), n in m.tx_by_link.items():
        sent_by_node[u] += n
    assert m.tx_by_node == sent_by_node
    node_of_battery = {id(st.battery): st.node_id for st in sim.nodes}
    assert m.rx_by_node == Counter(
        {node_of_battery[b]: n for b, n in receptions.items()}
    )
    assert routed[True] > 0  # some decisions dropped the packet
    assert m.wait_count.total() == routed[False]


def reference_gather(sim):
    """The Metrics tallies that Simulation._finalize exports, read field by
    field from the run's node and link records, in node id order, then
    link order, then RT before NRT."""
    nodes = sim.nodes
    tallies = {
        "end_time": sim.now,
        "in_flight": 0,
        "energy_by_node": {},
        "residual_by_node": {},
        "tx_by_link": Counter(),
        "rx_by_node": Counter(),
        "wait_count": Counter(),
        "wait_sum": defaultdict(float),
    }
    for st in nodes:
        queues = st.queues
        tallies["in_flight"] += len(queues.rt) + len(queues.nrt)
        if queues.in_service is not None:
            tallies["in_flight"] += 1
    for st in nodes:
        if st.node_id != SINK_ID:
            tallies["energy_by_node"][st.node_id] = st.battery.consumed
            tallies["residual_by_node"][st.node_id] = st.battery.residual
    for st in nodes:
        for target, link in st.links.items():
            if link.sent > 0:
                tallies["tx_by_link"][(st.node_id, target)] = link.sent
    for st in nodes:
        if st.received > 0:
            tallies["rx_by_node"][st.node_id] = st.received
    for st in nodes:
        per_class = [
            (TrafficClass.RT, st.waits_rt, st.wait_sum_rt),
            (TrafficClass.NRT, st.waits_nrt, st.wait_sum_nrt),
        ]
        for cls, count, total in per_class:
            if count > 0:
                tallies["wait_count"][(st.node_id, cls)] = count
                tallies["wait_sum"][(st.node_id, cls)] = total
    return tallies


def assert_gather_matches(sim, m):
    for name, expected in reference_gather(sim).items():
        got = getattr(m, name)
        assert type(got) is type(expected), name
        if isinstance(expected, dict):
            # the same keys in the same order, each with the same value
            assert list(got.items()) == list(expected.items()), name
        else:
            assert got == expected, name
    assert m.wait_sum.default_factory is float


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_gather_matches_the_records_on_the_golden_scenarios(name):
    # the golden CSVs carry none of these tallies, so they are checked here
    cfg = parse_config(GOLDEN_SCENARIOS[name][0])
    sim = Simulation(cfg)
    m = sim.run()
    assert m.tx_by_link
    assert_gather_matches(sim, m)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    loss=st.sampled_from([0.1, 0.2, 0.3]),
    overrides=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23), st.sampled_from([0.0, 0.5, 0.9])),
        min_size=1,
        max_size=6,
    ),
    energy=st.sampled_from([0.0002, 0.0004]),
)
def test_gather_matches_the_records_with_deaths_and_losses(seed, loss, overrides, energy):
    lines = [
        "node_count = 24", "grid.width = 220", "grid.height = 220",
        f"loss = {loss}", "rate.rt = 4", "rate.nrt = 4", "duration = 4",
        f"initial_energy = {energy}", f"seed = {seed}",
    ]
    lines += [f"loss.{u}.{v} = {p}" for u, v, p in overrides if u != v]
    cfg = parse_config("\n".join(lines) + "\n")
    sim = Simulation(cfg)
    m = sim.run()
    assert m.deaths
    assert m.drop_count(DropCause.LINK_LOSS) > 0
    assert_gather_matches(sim, m)


def test_invariant_checks_run_under_python_O():
    # an allowed neighbor no closer to the sink, a leaky battery debit, a
    # packet that leaves without being counted, a negative arrival-rate
    # estimate and a send completion that ends before its send started must
    # each stop the run even when asserts are compiled out. Every node reads
    # as equally far from the sink in the distance list the set-up check
    # compares, so it fails whatever order it reads them in.
    cases = [
        (
            """
            from wsnqos.geometry import Topology
            Topology.distances_to_sink = lambda self: [1.0] * len(self.positions)
            """,
            "RuntimeError: allowed neighbor 0 of node 1 is no closer to the sink",
        ),
        (
            "from wsnqos.energy import Battery\n"
            + inspect.getsource(leaky_debit)
            + "Battery.debit = leaky_debit\n",
            "RuntimeError: energy ledger does not close",
        ),
        (
            """
            from wsnqos.engine import DropCause, Simulation
            Simulation._route = lambda self, node, packet: DropCause.NO_ROUTE
            counted = Simulation._drop
            def _drop(self, packet, cause):
                if packet.packet_id != 0:
                    counted(self, packet, cause)
            Simulation._drop = _drop
            """,
            "RuntimeError: packets do not add up",
        ),
        (
            """
            from wsnqos.node import RateEstimator
            init = RateEstimator.__init__
            def __init__(self, tau=1.0):
                init(self, tau)
                self.level = -1.0
            RateEstimator.__init__ = __init__
            """,
            "ValueError: arrival rate must be >= 0",
        ),
        (
            """
            from wsnqos.engine import Simulation
            arrive = Simulation._arrive
            def _arrive(self, node, packet):
                sends = len(self.completions)
                arrive(self, node, packet)
                if len(self.completions) > sends:
                    time, *rest = self.completions.pop()
                    self.completions.append((time - 1.0, *rest))
            Simulation._arrive = _arrive
            """,
            "RuntimeError: event calendar went backwards",
        ),
    ]
    src = str(Path(wsnqos.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for breakage, message in cases:
        script = textwrap.dedent(
            """
            import sys
            if not sys.flags.optimize:
                sys.exit("not running under -O")
            """
        ) + textwrap.dedent(breakage) + textwrap.dedent(
            """
            from wsnqos.config import ScenarioConfig
            from wsnqos.engine import run
            run(ScenarioConfig(node_count=2, positions={1: (550.0, 500.0)},
                               sources=(1,), rate_rt=0.01, rate_nrt=0.0, duration=1000.0))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
