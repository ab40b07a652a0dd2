"""Metamorphic relations: exact relations between two whole runs.

Weight scaling. A candidate's cost is alpha * delay + beta / usable +
gamma / prr. Multiplying alpha, beta and gamma by one power of two
multiplies each term, and so each cost, by it exactly, unless a value
overflows or turns subnormal. Every comparison between costs then comes
out the same, so every decision, and both CSVs, stay byte-identical. A
scale that is not a power of two may reorder near-ties; that is expected,
not a defect.

Horizon prefix. Nothing a run does up to a time T1 depends on how much
later its horizon lies, so with the timeline bucket fixed, the timeline
rows of a run to T1 are the first rows of the same run to any T2 > T1.
Buckets here are powers of two, so each horizon is an exact multiple of
its bucket and the T1 run's row times are the T2 run's first row times.
A traffic stream that spills past its first chunk of arrival draws in the
T1 run would break the relation (ROADMAP item 5); its last-bit shifts
seldom reach a row, so the delay samples and deaths up to T1 are compared
too.

Isolated sensor. One more sensor, at the next id and pinned out of every
node's radio range, is no one's neighbor and has none. Placement draws only
for unpinned sensors, in id order, and every other stream is labelled by
its own node or link, so nothing else changes: its packets all drop as
no_route and every other count stays the same. Only the run's end time may
move: a run stops on the event that kills its last source, the isolated
source never dies, and its arrivals go on to the horizon.
"""

import math
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_benchmark_outputs import WORKLOADS

from wsnqos.cli import main, timeline_rows
from wsnqos.config import parse_config
from wsnqos.engine import DropCause, Simulation, run

WEIGHTS = ("alpha", "beta", "gamma")
SCALES = (0.25, 0.5, 2.0, 4.0)


def csv_bytes(text):
    """The bytes of metrics.csv and timeline.csv of one CLI run of `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["--config", str(path), "--out", tmp, "--quiet"]) == 0
        return tuple(
            (Path(tmp) / f"{name}.csv").read_bytes() for name in ("metrics", "timeline")
        )


def with_weights_scaled(text, scale):
    """`text` with its cost weights multiplied by `scale`; a later line
    overrides an earlier one."""
    cfg = parse_config(text)
    return text + "".join(
        f"{key} = {getattr(cfg, key) * scale!r}\n" for key in WEIGHTS
    )


weight = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@st.composite
def small_scenarios(draw):
    """Scenario text of at most 60 nodes and 3 simulated seconds."""
    weights = draw(
        st.tuples(weight, weight, weight).filter(lambda w: any(v > 0.0 for v in w))
    )
    lines = [
        f"node_count = {draw(st.integers(2, 60))}",
        f"grid.width = {draw(st.integers(80, 400))}",
        f"grid.height = {draw(st.integers(80, 400))}",
        f"rate.rt = {draw(st.floats(0.0, 30.0))!r}",
        f"rate.nrt = {draw(st.floats(0.0, 30.0))!r}",
        f"loss = {draw(st.sampled_from([0.0, 0.1, 0.3]))}",
        f"deadline.rt = {draw(st.sampled_from([0.002, 0.004, 0.05]))}",
        f"deadline.nrt = {draw(st.sampled_from([0.02, 0.5]))}",
        f"initial_energy = {draw(st.sampled_from([0.0005, 0.002, 2.0]))}",
        f"queue_capacity = {draw(st.sampled_from([1, 4, 64]))}",
        f"predictive_drop = {draw(st.sampled_from(['true', 'false']))}",
        f"duration = {draw(st.floats(0.2, 3.0))!r}",
        f"seed = {draw(st.integers(0, 2**32))}",
        *(f"{key} = {value!r}" for key, value in zip(WEIGHTS, weights)),
    ]
    return "\n".join(lines) + "\n"


# the lossy_lifetime benchmark's keys with placement left to seed 11: 60
# nodes, loss 0.2, tight deadlines and 29 sensor deaths, with packets lost on
# links, at dead nodes, to no route and to the predictive check
LOSSY_LIFETIME = "".join(
    f"{key} = {value}\n" for key, value in WORKLOADS["lossy_lifetime"].keys.items()
) + "seed = 11\n"


@settings(max_examples=50, deadline=None)
@given(text=small_scenarios(), scale=st.sampled_from(SCALES))
@example(text=LOSSY_LIFETIME, scale=0.5)
@example(text=LOSSY_LIFETIME, scale=2.0)
@example(text=LOSSY_LIFETIME, scale=4.0)
def test_power_of_two_weight_scaling_keeps_both_csvs(text, scale):
    assert csv_bytes(text) == csv_bytes(with_weights_scaled(text, scale))


@st.composite
def horizons(draw):
    """(bucket, k1, k2): a power-of-two timeline bucket and two horizons of
    k1 < k2 buckets, the longer one at most 5 s."""
    bucket = draw(st.sampled_from([0.125, 0.25, 0.5]))
    k2 = draw(st.integers(2, int(5.0 / bucket)))
    return bucket, draw(st.integers(1, k2 - 1)), k2


def run_to(text, bucket, k):
    """Config and metrics of a run of `text` to k timeline buckets."""
    cfg = parse_config(f"{text}timeline_bucket = {bucket!r}\nduration = {k * bucket!r}\n")
    return cfg, run(cfg)


@settings(max_examples=50, deadline=None)
@given(text=small_scenarios(), cut=horizons())
@example(text=LOSSY_LIFETIME, cut=(0.5, 6, 10))
def test_timeline_to_a_horizon_is_a_prefix_of_a_longer_run(text, cut):
    bucket, k1, k2 = cut
    (cfg1, m1), (cfg2, m2) = run_to(text, bucket, k1), run_to(text, bucket, k2)
    short = timeline_rows(cfg1.seed, cfg1, m1)
    long = timeline_rows(cfg2.seed, cfg2, m2)
    assert len(short) == k1 < k2 == len(long)
    assert short == long[:k1]
    # finer than the rows: every delay sample and death up to T1, to the bit
    for cls, delays in m1.delays.items():
        assert delays.tobytes() == m2.delays[cls][: len(delays)].tobytes()
    assert m1.deaths == [death for death in m2.deaths if death[0] <= cfg1.duration]


def emptiest_lattice_point(cfg, steps=16):
    """(gap, x, y): the point of a (steps + 1)^2 lattice over the grid that
    lies farthest from every node a run of `cfg` places, and that distance."""
    placed = Simulation(cfg).topology.positions.values()
    return max(
        (min(math.hypot(x - p.x, y - p.y) for p in placed), x, y)
        for x in (cfg.grid_width * i / steps for i in range(steps + 1))
        for y in (cfg.grid_height * j / steps for j in range(steps + 1))
    )


@settings(max_examples=50, deadline=None)
@given(text=small_scenarios(), reach=st.floats(0.2, 0.95))
@example(text=LOSSY_LIFETIME, reach=0.9)
def test_isolated_sensor_changes_no_other_count(text, reach):
    cfg = parse_config(text)
    gap, x, y = emptiest_lattice_point(cfg)
    # a radio range short of the gap, so the lattice point is out of reach
    base = f"{text}radio.range = {reach * gap!r}\n"
    lone = cfg.node_count
    wider = f"{base}node_count = {lone + 1}\nposition.{lone} = {x!r},{y!r}\n"

    cfg1, cfg2 = parse_config(base), parse_config(wider)
    m1 = run(cfg1)
    sim = Simulation(cfg2)
    lone_state = sim.nodes[lone]
    assert not lone_state.allowed
    assert all(lone_state not in node.allowed for node in sim.nodes)
    own = Counter()
    drop = sim._drop

    def dropping(packet, cause):
        if packet.source == lone:
            own[(cause, packet.cls)] += 1
        drop(packet, cause)

    sim._drop = dropping
    m2 = sim.run()

    assert {cause for cause, _cls in own} <= {DropCause.NO_ROUTE}
    for cls, n in m2.generated.items():
        assert n == m1.generated[cls] + own[(DropCause.NO_ROUTE, cls)]
    assert m1.generated.keys() <= m2.generated.keys()
    assert m2.energy_by_node.pop(lone) == 0.0
    assert m2.residual_by_node.pop(lone) == cfg2.initial_energy
    for name in ("delivered_by_bucket", "deaths", "tx_by_link", "rx_by_node",
                 "wait_count", "wait_sum", "total_energy", "energy_by_node",
                 "residual_by_node"):
        assert getattr(m2, name) == getattr(m1, name), name
    for cls, delays in m1.delays.items():
        assert delays.tobytes() == m2.delays[cls].tobytes()
    assert m2.drops - own == m1.drops
    assert m2.in_flight == m1.in_flight
