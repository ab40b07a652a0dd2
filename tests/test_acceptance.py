"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s`; each criterion prints a
single PASS/FAIL line. The suite exercises the full engine end to end:
closed-form queueing predictions against simulated waits, the energy death
oracle, routing argmin and geometry oracles, deadline guarantees, estimator
convergence, and byte-level reproducibility of the CLI outputs.
"""

import math
import time

import numpy as np
import pytest
from conftest import run_with_deliveries

from wsnqos.cli import main
from wsnqos.config import ScenarioConfig
from wsnqos.energy import RadioParams, crossover_distance, tx_energy
from wsnqos.engine import DropCause, Simulation, run
from wsnqos.geometry import Position, allowed_area
from wsnqos.linkest import LinkStats
from wsnqos.node import TrafficClass
from wsnqos.routing import CostWeights, NeighborEntry, link_cost, select_next_hop

X = 100 / 250_000.0  # deterministic service time: 100 bits at 250 kbit/s
RADIO = RadioParams.from_table_units(50.0, 10.0, 0.0013, 250_000.0)
HEAD = 2  # traffic-injected node of the chain scenarios


def report(criterion: int, ok: bool, description: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def chain_cfg(**kw):
    """Poisson feed -> relaying head (id 2) -> middle (id 1) -> sink.

    The head is out of sink range and must forward through the middle node;
    its queue receives the Poisson process, so its waits realize the
    priority-queue model. Deadlines and capacities are slack so queueing is
    the only effect in play.
    """
    base = dict(
        node_count=3,
        positions={1: (560.0, 500.0), 2: (620.0, 500.0)},
        sources=(HEAD,),
        rate_nrt=0.0,
        deadline_rt=1000.0,
        deadline_nrt=1000.0,
        queue_capacity=100_000,
        initial_energy=50.0,
        seed=101,
    )
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def deadline_runs():
    """Twenty seeds of a 50-node scenario with a tight real-time deadline."""
    out = []
    for seed in range(20):
        cfg = ScenarioConfig(
            node_count=50,
            grid_width=400.0,
            grid_height=400.0,
            duration=3.0,
            deadline_rt=0.0012,
            deadline_nrt=0.05,
            rate_rt=30.0,
            rate_nrt=30.0,
            loss=0.1,
            seed=seed,
        )
        sim = Simulation(cfg)
        out.append((sim, *run_with_deliveries(sim)))
    return out


def test_criterion_1_single_class_waits_match_closed_form():
    ok = True
    for rho in (0.3, 0.5, 0.7):
        lam = rho / X
        cfg = chain_cfg(rate_rt=lam, duration=105_000 / lam)
        started = time.perf_counter()
        m = run(cfg)
        wall = time.perf_counter() - started
        analytic = 0.5 * lam * X * X / (1.0 - rho)
        simulated = m.mean_wait(HEAD, TrafficClass.RT)
        rel = abs(simulated - analytic) / analytic
        ok &= m.wait_count[(HEAD, TrafficClass.RT)] >= 100_000
        ok &= m.drops_total() == 0
        ok &= rel < 0.05
        ok &= wall < 30.0
    report(1, ok, "simulated M/D/1 waits within 5% of R/(1-rho1) at rho 0.3/0.5/0.7")


def test_criterion_2_two_class_priority_waits():
    lam = 750.0  # per class; total rho = 0.6
    cfg = chain_cfg(rate_rt=lam, rate_nrt=lam, duration=70.0, seed=202)
    started = time.perf_counter()
    m = run(cfg)
    wall = time.perf_counter() - started
    residual = 0.5 * (lam + lam) * X * X
    w2 = residual / ((1.0 - 0.3) * (1.0 - 0.6))
    emp_rt = m.mean_wait(HEAD, TrafficClass.RT)
    emp_nrt = m.mean_wait(HEAD, TrafficClass.NRT)
    ok = abs(emp_nrt - w2) / w2 < 0.10
    ok &= emp_rt <= emp_nrt
    ok &= wall < 60.0
    report(2, ok, "low-priority wait within 10% of W2 and RT wait <= NRT wait")


def test_criterion_3_battery_death_after_exact_send_count():
    cfg = ScenarioConfig(
        node_count=2,
        positions={1: (550.0, 500.0)},
        sources=(1,),
        rate_rt=3000.0,  # saturating: the transmitter never idles
        rate_nrt=0.0,
        duration=150.0,
        deadline_rt=1000.0,
        initial_energy=2.0,
        seed=77,
    )
    m = run(cfg)
    expected = math.floor(2.0 / 7.5e-6)
    ok = m.tx_by_node[1] == expected == 266_666
    ok &= m.first_death_time is not None
    ok &= m.generated_total() == m.delivered_total() + m.drops_total() + m.in_flight
    report(3, ok, "2 J battery dies after exactly 266,666 sends of 100 bits at 50 m")


def test_criterion_4_amplifier_crossover_continuity():
    d0 = crossover_distance(RADIO)
    eps = 1e-9
    below = tx_energy(100, d0 - eps, RADIO)
    above = tx_energy(100, d0 + eps, RADIO)
    ok = abs(below - above) / tx_energy(100, d0, RADIO) < 1e-6
    ok &= abs(d0 - 87.7058) < 1e-3
    report(4, ok, "tx energy continuous at the d^2/d^4 crossover distance")


def test_criterion_5_next_hop_matches_exhaustive_scan():
    weights = CostWeights(0.6, 0.3, 0.1)
    rng = np.random.default_rng(55_001)
    agreements = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(1, 51))
        ids = [int(i) for i in rng.choice(1000, size=n, replace=False)]
        table = []
        for nid in ids:
            delay = math.inf if rng.random() < 0.15 else float(rng.uniform(1e-4, 1.0))
            energy = float(rng.uniform(-0.5, 2.0))
            prr = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.05, 1.0))
            table.append(
                NeighborEntry(nid, delay, energy, prr, link_cost(delay, energy, prr, weights))
            )
        best = None
        for e in table:
            if e.usable_energy <= 0.0 or e.prr <= 0.0 or math.isinf(e.predicted_delay):
                continue
            c = 0.6 * e.predicted_delay + 0.3 / e.usable_energy + 0.1 / e.prr
            if best is None or (c, e.node_id) < best:
                best = (c, e.node_id)
        expected = best[1] if best is not None else None
        if select_next_hop(table, weights) == expected:
            agreements += 1
    report(5, agreements == trials, "argmin selection agrees with brute force on 1000 tables")


def test_criterion_6_no_delivery_ever_misses_its_deadline(deadline_runs):
    late = 0
    delivered = 0
    deadline_drops = 0
    conserved = True
    for _sim, m, packets, traces in deadline_runs:
        late += sum(
            1 for p, trace in zip(packets, traces) if trace[-1][1] > p.deadline
        )
        delivered += m.delivered_total()
        deadline_drops += m.drop_count(DropCause.EXPIRED) + m.drop_count(
            DropCause.PREDICTIVE
        )
        conserved &= (
            m.generated_total()
            == m.delivered_total() + m.drops_total() + m.in_flight
        )
    ok = late == 0 and conserved and delivered > 10_000 and deadline_drops > 0
    report(6, ok, "zero late deliveries over 20 seeds; packet conservation exact")


def test_criterion_7_hop_traces_always_approach_the_sink(deadline_runs):
    loops = 0
    checked = 0
    for sim, _m, _packets, traces in deadline_runs:
        dist = sim.topology.distance_to_sink
        for trace in traces:
            ids = [nid for nid, _t in trace]
            dists = [dist(nid) for nid in ids]
            checked += 1
            if any(b >= a for a, b in zip(dists, dists[1:])):
                loops += 1
            if len(set(ids)) != len(ids):  # revisiting a node is a loop
                loops += 1
    ok = loops == 0 and checked > 10_000
    report(7, ok,
           f"strictly decreasing sink distance on all {checked} delivered traces")


def test_criterion_8_prr_estimate_converges_on_lossy_link():
    # 500 outcomes at loss 0.2 into the engine's window-100 estimator, band
    # [0.75, 0.85], required in >= 19/20 seeds. Two checks:
    #
    # 1. Exact window reads: after sends 100, 200, ..., 500 the estimator
    #    holds exactly the last 100 outcomes fed in, so its counts and PRR
    #    equal the delivered count and fraction of those 100 draws.
    # 2. Convergence on the 500-send sample the band is sized for: the five
    #    reads cover disjoint full windows, so the sum of their
    #    received_count values is the number delivered in all 500 sends,
    #    compared with the band as integers (375 <= sum <= 425).
    #
    # Binomial(500, 0.8)/500 lands in the band with probability 0.9957 per
    # seed, so P(>= 19 of 20 seeds) = 0.9966 for a correct estimator; a miss
    # here is a real fault. A single window-100 read would land there with
    # probability only 0.832 per seed (0.127 for the batch), which is why
    # the band is not applied to one read.
    window, sends, loss = 100, 500, 0.2
    hits = 0
    exact = True
    for seed in range(20):
        rng = np.random.default_rng(8_000 + seed)
        stats = LinkStats(window=window)
        outcomes = []
        delivered_total = 0
        for n in range(1, sends + 1):
            delivered = bool(rng.random() >= loss)
            outcomes.append(delivered)
            stats.record_outcome(delivered)
            if n % window == 0:
                expected = sum(outcomes[-window:])
                exact &= stats.sent_count == window
                exact &= stats.received_count == expected
                exact &= stats.prr() == expected / window
                delivered_total += stats.received_count
        if 375 <= delivered_total <= 425:
            hits += 1
    report(
        8,
        exact and hits >= 19,
        f"window-100 PRR reads exact after every 100 sends ({'yes' if exact else 'NO'}); "
        f"delivered of 500 sends at loss 0.2 in [375, 425], i.e. PRR in [0.75, 0.85], "
        f"in {hits}/20 seeds (needs >= 19; 0.9957 per seed, 0.9966 per batch)",
    )


def test_criterion_9_allowed_area_matches_monte_carlo():
    rng = np.random.default_rng(90_210)
    worst = 0.0
    for _ in range(10):
        sink_dist = float(rng.uniform(30.0, 400.0))
        radio_range = float(rng.uniform(30.0, 200.0))
        sender, sink = Position(0.0, 0.0), Position(sink_dist, 0.0)
        analytic = allowed_area(sender, sink, radio_range)
        # rejection sampling over the bounding box of the smaller disk
        r_small = min(radio_range, sink_dist)
        cx = 0.0 if radio_range <= sink_dist else sink_dist
        xs = rng.uniform(cx - r_small, cx + r_small, 1_000_000)
        ys = rng.uniform(-r_small, r_small, 1_000_000)
        inside = (xs**2 + ys**2 <= radio_range**2) & (
            (xs - sink_dist) ** 2 + ys**2 <= sink_dist**2
        )
        estimate = inside.mean() * (2.0 * r_small) ** 2
        worst = max(worst, abs(estimate - analytic) / analytic)
    report(9, worst < 0.005, f"lens area within 0.5% of 1e6-sample Monte Carlo (worst {worst:.3%})")


def test_criterion_10_byte_identical_outputs(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "node_count = 40\n"
        "grid.width = 300\n"
        "grid.height = 300\n"
        "rate.rt = 5\n"
        "rate.nrt = 5\n"
        "loss = 0.1\n"
        "duration = 3\n"
        "seed = 999\n"
    )
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(scenario), "--out", str(out), "--quiet"]) == 0
        outputs.append(
            (
                (out / "metrics.csv").read_bytes(),
                (out / "timeline.csv").read_bytes(),
            )
        )
    report(10, outputs[0] == outputs[1], "identical config and seed give byte-identical CSVs")
