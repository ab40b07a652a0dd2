import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from math import fsum
from pathlib import Path

import numpy as np
import pytest

import wsnqos
from wsnqos.config import SINK_ID, ScenarioConfig
from wsnqos.energy import Battery, rx_energy, tx_energy
from wsnqos.engine import (
    DropCause,
    Simulation,
    poisson_arrival_times,
    run,
    stream_rng,
)
from wsnqos.geometry import delta, distance
from wsnqos.linkest import LinkStats
from wsnqos.node import Packet, TrafficClass, classify_enqueue
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
        times = poisson_arrival_times(100.0, 100.0, rng)
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

    def test_stream_labels_are_stable_and_independent(self):
        a = stream_rng(3, "traffic/1/rt").random(4)
        b = stream_rng(3, "traffic/1/rt").random(4)
        c = stream_rng(3, "traffic/1/nrt").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


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


class TestChainForwarding:
    def chain_cfg(self, **kw):
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

    def test_two_hop_traces_and_progress(self):
        m = run(self.chain_cfg(), collect_traces=True)
        assert m.delivered_total() > 1000
        cfg = self.chain_cfg()
        sim = Simulation(cfg)
        for rec in m.delivered_records[:200]:
            ids = [nid for nid, _ in rec.hop_trace]
            assert ids == [2, 1, 0]
            dists = [sim.topology.distance_to_sink(nid) for nid in ids]
            assert dists == sorted(dists, reverse=True)
            times = [t for _, t in rec.hop_trace]
            assert times == sorted(times)

    def test_deterministic_tandem_relay_never_queues(self):
        # the relay's service time equals the head's, so departures arrive
        # exactly when the relay frees up: zero wait at the middle node
        m = run(self.chain_cfg())
        assert m.wait_count[(1, TrafficClass.RT)] > 1000
        assert m.mean_wait(1, TrafficClass.RT) == 0.0

    def test_within_class_fifo_on_the_path(self):
        m = run(self.chain_cfg(duration=5.0), collect_traces=True)
        ids = [r.packet_id for r in m.delivered_records]
        assert ids == sorted(ids)


class TestPriorityService:
    def test_rt_waits_less_than_nrt_under_mixed_load(self):
        cfg = two_node_cfg(
            rate_rt=750.0,
            rate_nrt=750.0,
            duration=20.0,
            seed=3,
            deadline_rt=100.0,
            deadline_nrt=100.0,
            queue_capacity=10_000,
            initial_energy=50.0,
        )
        m = run(cfg)
        assert m.wait_count[(1, TrafficClass.RT)] > 5000
        assert m.mean_wait(1, TrafficClass.RT) < m.mean_wait(1, TrafficClass.NRT)

    def test_service_is_never_preempted(self):
        cfg = two_node_cfg(rate_rt=0.0, rate_nrt=0.0, duration=1.0)
        sim = Simulation(cfg, collect_traces=True)
        node = sim.nodes[1]
        nrt = Packet(0, TrafficClass.NRT, 100, 1, 0, 0.0, 1.0)
        rt = Packet(1, TrafficClass.RT, 100, 1, 0, 0.0, 1.0)
        classify_enqueue(node.queues, nrt)
        sim._try_start_service(node)
        assert node.queues.in_service is nrt
        classify_enqueue(node.queues, rt)  # higher priority arrives mid-service
        assert node.queues.in_service is nrt
        m = sim.run()
        order = [(r.packet_id, r.arrival) for r in m.delivered_records]
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
        expected = fsum(
            n * tx_energy(k, distance(sim.nodes[u].position, sim.nodes[v].position), radio)
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
        assert m.end_time < 50.0
        assert m.generated_total() == m.delivered_total() + m.drops_total() + m.in_flight

    def test_alive_timeline(self):
        m = run(self.death_cfg())
        t_death = m.first_death_time
        assert m.alive_at(t_death / 2) == 1
        assert m.alive_at(t_death) == 0


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


class FixedRate:
    """Stands in for a RateEstimator whose reading is set by the test."""

    def __init__(self, rate):
        self.rate = rate

    def rate_at(self, now):
        return self.rate


def reference_route(sim, node, packet):
    """The readable decision path that Simulation._route must reproduce."""
    cfg = sim.cfg
    x = cfg.packet_bits / sim.radio.bandwidth
    views = []
    for nid in sim.allowed_static[node.node_id]:
        st = sim.nodes[nid]
        if not st.alive:
            continue
        loads = QueueModelParams(
            rt=ClassLoad.deterministic(st.rate_est[TrafficClass.RT].rate_at(sim.now), x),
            nrt=ClassLoad.deterministic(st.rate_est[TrafficClass.NRT].rate_at(sim.now), x),
        )
        stats = node.link_stats.get(nid)
        views.append(
            NeighborView(
                node_id=nid,
                position=st.position,
                residual_energy=math.inf if st.battery is None else st.battery.residual,
                queue_params=loads,
                prr=1.0 if stats is None else stats.prr(),
            )
        )
    if not views:
        return DropCause.NO_ROUTE, []
    table = build_neighbor_table(
        node.position,
        packet.cls,
        views,
        cfg.packet_bits,
        sim.radio,
        sim.weights,
        cfg.include_service_time,
    )
    if cfg.predictive_drop:
        area = sim._allowed_area(node.node_id)
        hop_delay = min_finite_delay(table)
        if area > 0.0 and hop_delay is not None:
            spacing = delta(area, len(table))
            if spacing > 0.0 and not predictive_drop_check(
                packet.deadline, sim.now, node.position, sim.sink_position, spacing, hop_delay
            ):
                return DropCause.PREDICTIVE, table
    choice = select_next_hop(table, sim.weights)
    return (DropCause.NO_ROUTE if choice is None else choice), table


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
        assert sim.allowed_static[self.SENDER] == [SINK_ID, 2, 3, 4, 5, 6]
        return sim

    def randomize(self, sim, rng):
        """Random neighbor state: loads on both sides of the stability
        boundary, batteries below the receive cost, dead links, dead nodes
        and, now and then, two neighbors in the same state (an equal cost)."""
        sender = sim.nodes[self.SENDER]
        sender.link_stats.clear()
        capacity = sim.radio.bandwidth / sim.cfg.packet_bits  # packets/s
        rx_cost = rx_energy(sim.cfg.packet_bits, sim.radio)
        states = {}
        for nid in sim.allowed_static[self.SENDER]:
            st = sim.nodes[nid]
            rho = [rng.choice([0.0, rng.uniform(0.0, 0.6), rng.uniform(0.4, 1.2)])
                   for _ in range(2)]
            if rng.random() < 0.1:
                rho[0] = 1.0  # exactly at the boundary
            residual = rng.choice([rx_cost * 0.5, rx_cost, rng.uniform(1e-5, 2.0)])
            outcomes = rng.choice([[], [False] * 3,
                                   [rng.random() < 0.7 for _ in range(rng.randint(1, 30))]])
            alive = nid == SINK_ID or rng.random() >= 0.15
            states[nid] = (rho[0] * capacity, rho[1] * capacity, residual, outcomes, alive)
        if rng.random() < 0.5:
            a, b = rng.sample(sorted(states.keys() - {SINK_ID}), 2)
            states[b] = states[a][:4] + (states[b][4],)
        for nid, (lam1, lam2, residual, outcomes, alive) in states.items():
            st = sim.nodes[nid]
            st.rate_est = {TrafficClass.RT: FixedRate(lam1), TrafficClass.NRT: FixedRate(lam2)}
            if st.battery is not None:
                st.battery = Battery(residual)
            st.alive = alive
            if outcomes:
                stats = LinkStats(sim.cfg.prr_window)
                for delivered in outcomes:
                    stats.record_outcome(delivered)
                sender.link_stats[nid] = stats

    def test_random_states_match_exactly(self):
        rng = random.Random(4242)
        seen = Counter()
        trials = 0
        for include_service_time in (True, False):
            sim = self.sim(include_service_time=include_service_time)
            node = sim.nodes[self.SENDER]
            for i in range(800):
                self.randomize(sim, rng)
                sim.now = rng.uniform(0.0, 10.0)
                cls = rng.choice(list(TrafficClass))
                packet = Packet(
                    i, cls, sim.cfg.packet_bits, self.SENDER, SINK_ID,
                    sim.now, sim.now + rng.uniform(1e-4, 4e-3),
                )
                expected, table = reference_route(sim, node, packet)
                assert sim._route(node, packet) == expected
                trials += 1
                seen[expected if isinstance(expected, DropCause) else "hop"] += 1
                seen[cls] += 1
                seen["sink chosen"] += expected == SINK_ID
                seen["unstable"] += any(math.isinf(e.predicted_delay) for e in table)
                seen["usable <= 0"] += any(e.usable_energy <= 0.0 for e in table)
                seen["prr = 0"] += any(e.prr == 0.0 for e in table)
                seen["dead"] += len(table) < len(sim.allowed_static[self.SENDER])
                costs = [e.cost for e in table if math.isfinite(e.cost)]
                seen["tie"] += bool(costs) and costs.count(min(costs)) > 1
        assert trials >= 1000
        for case in (
            "hop", DropCause.NO_ROUTE, DropCause.PREDICTIVE, TrafficClass.RT,
            TrafficClass.NRT, "sink chosen", "unstable", "usable <= 0", "prr = 0",
            "dead", "tie",
        ):
            assert seen[case] >= 20, (case, seen)

    def test_negative_arrival_rate_is_an_error(self):
        sim = self.sim()
        sim.nodes[2].rate_est[TrafficClass.RT] = FixedRate(-1.0)
        packet = Packet(0, TrafficClass.RT, 100, self.SENDER, SINK_ID, 0.0, 1.0)
        with pytest.raises(ValueError, match="arrival rate"):
            sim._route(sim.nodes[self.SENDER], packet)


def test_invariant_checks_run_under_python_O():
    # a hop trace that moves away from the sink must stop the run even
    # when asserts are compiled out
    script = textwrap.dedent(
        """
        import itertools
        import sys

        from wsnqos.config import ScenarioConfig
        from wsnqos.engine import run
        from wsnqos.geometry import Topology

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        rising = itertools.count()
        Topology.distance_to_sink = lambda self, node_id: float(next(rising))
        run(ScenarioConfig(node_count=2, positions={1: (550.0, 500.0)},
                           sources=(1,), rate_rt=0.01, rate_nrt=0.0, duration=1000.0))
        """
    )
    src = str(Path(wsnqos.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeError: hop trace of packet 0 moved away from the sink" in proc.stderr
