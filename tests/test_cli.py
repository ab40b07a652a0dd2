import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geometry import all_pairs_allowed

import wsnqos
from wsnqos import cli, geometry
from wsnqos.cli import METRICS_COLUMNS, TIMELINE_COLUMNS, main
from wsnqos.config import (
    _SCALAR_KEYS,
    ConfigError,
    _parse_bool,
    _parse_sources,
    parse_config,
)
from wsnqos.engine import Simulation

ONE_PACKET_SCENARIO = """\
# single sensor 50 m from the sink; exactly one packet at this seed
node_count = 2
position.1 = 550, 500
sources = 1
rate.rt = 0.01
rate.nrt = 0
duration = 100
seed = 2
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(ONE_PACKET_SCENARIO)
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_metrics_header_is_stable(tmp_path, scenario_file, capsys):
    assert main(["--config", str(scenario_file), "--out", str(tmp_path)]) == 0
    header, _ = read_rows(tmp_path / "metrics.csv")
    assert header == METRICS_COLUMNS
    assert header == [
        "seed",
        "generated",
        "delivered_rt",
        "delivered_nrt",
        "drop_expired",
        "drop_predictive",
        "drop_no_route",
        "drop_buffer_overflow",
        "drop_node_death",
        "drop_link_loss",
        "in_flight",
        "delay_rt_mean",
        "delay_rt_p95",
        "delay_rt_max",
        "delay_nrt_mean",
        "delay_nrt_p95",
        "delay_nrt_max",
        "energy_consumed_j",
        "first_death_s",
    ]


def test_single_packet_run_row(tmp_path, scenario_file, capsys):
    assert main(["--config", str(scenario_file), "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "metrics.csv")
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["seed"] == "2"
    assert row["generated"] == "1"
    assert row["delivered_rt"] == "1"
    assert row["delivered_nrt"] == "0"
    assert row["in_flight"] == "0"
    assert float(row["delay_rt_mean"]) == pytest.approx(4e-4, rel=1e-6)
    assert row["first_death_s"] == "nan"
    out = capsys.readouterr().out
    assert "delivered 1" in out


def test_seed_sweep_rows_ordered(tmp_path, scenario_file):
    code = main(
        [
            "--config",
            str(scenario_file),
            "--seeds",
            "10",
            "--seed",
            "100",
            "--out",
            str(tmp_path),
            "--quiet",
        ]
    )
    assert code == 0
    _, rows = read_rows(tmp_path / "metrics.csv")
    assert [r[0] for r in rows] == [str(s) for s in range(100, 110)]


def test_timeline_schema_and_content(tmp_path, scenario_file):
    assert main(["--config", str(scenario_file), "--out", str(tmp_path), "--quiet"]) == 0
    header, rows = read_rows(tmp_path / "timeline.csv")
    assert header == TIMELINE_COLUMNS
    assert len(rows) == 100  # duration / default bucket
    assert rows[-1][1] == "100"
    assert rows[-1][2] == "1"  # sensor still alive
    assert rows[-1][3] == "1"  # cumulative deliveries

    alive_counts = [int(r[2]) for r in rows]
    assert all(0 <= n <= 1 for n in alive_counts)


@pytest.mark.parametrize("with_file", [True, False], ids=["file", "defaults"])
def test_duration_override_sets_the_default_bucket(tmp_path, scenario_file, with_file):
    # the default bucket is duration / 100 of the duration the run uses
    argv = ["--config", str(scenario_file)] if with_file else []
    duration = "10" if with_file else "2"
    argv += ["--duration", duration, "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    _, rows = read_rows(tmp_path / "timeline.csv")
    assert len(rows) == 100
    assert rows[-1][1] == duration


def test_byte_identical_reruns(tmp_path, scenario_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["--config", str(scenario_file), "--out", str(out), "--quiet"]) == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert (out_a / "timeline.csv").read_bytes() == (out_b / "timeline.csv").read_bytes()


def test_quiet_suppresses_stdout(tmp_path, scenario_file, capsys):
    main(["--config", str(scenario_file), "--out", str(tmp_path), "--quiet"])
    assert capsys.readouterr().out == ""


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("alpha = -1\n")
    assert main(["--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.txt")]) == 1
    assert capsys.readouterr().err != ""


def test_unwritable_output_exit_code(tmp_path, scenario_file, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(
        ["--config", str(scenario_file), "--out", str(blocker / "sub"), "--quiet"]
    )
    assert code == 1
    assert capsys.readouterr().err != ""


def test_unwritable_output_fails_before_any_run(tmp_path, scenario_file, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError(f"seed {cfg.seed} ran before --out was opened")

    monkeypatch.setattr(cli, "run", no_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    argv = ["--config", str(scenario_file), "--duration", "3", "--seeds", "3"]
    assert main(argv + ["--out", str(blocker / "out"), "--quiet"]) == 1
    assert "cannot write results" in capsys.readouterr().err


def test_seeds_before_a_failed_run_keep_their_rows(tmp_path, scenario_file, monkeypatch):
    run = cli.run

    def fail_third(cfg):
        if cfg.seed == 102:
            raise RuntimeError("run failed")
        return run(cfg)

    monkeypatch.setattr(cli, "run", fail_third)
    argv = ["--config", str(scenario_file), "--seed", "100", "--seeds", "4"]
    with pytest.raises(RuntimeError, match="run failed"):
        main(argv + ["--out", str(tmp_path), "--quiet"])
    header, rows = read_rows(tmp_path / "metrics.csv")
    assert header == METRICS_COLUMNS
    assert [r[0] for r in rows] == ["100", "101"]
    _, timeline = read_rows(tmp_path / "timeline.csv")
    assert sorted({r[0] for r in timeline}) == ["100", "101"]


def test_invalid_seeds_value(tmp_path, scenario_file, capsys):
    assert main(["--config", str(scenario_file), "--seeds", "0"]) == 2


def test_sweep_past_the_largest_seed_is_a_config_error(tmp_path, scenario_file, capsys):
    argv = ["--config", str(scenario_file), "--out", str(tmp_path), "--quiet"]
    assert main(argv + ["--seed", str(2**64 - 1), "--seeds", "2"]) == 2
    assert "config error: seed" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize(
    "line",
    [
        "initial_energy = nan",
        "deadline.rt = nan",
        "alpha = nan",
        "radio.range = nan",
        "rate.rt = nan",
        "rate.rt = inf",
    ],
)
def test_non_finite_value_is_a_config_error(tmp_path, capsys, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(ONE_PACKET_SCENARIO + line + "\n")
    assert main(["--config", str(bad), "--out", str(tmp_path), "--quiet"]) == 2
    key = line.split("=")[0].strip()
    assert f"{key}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


# Inputs that passed the parser once and then broke the run: radio constants
# that underflow to 0 J in SI units, deadline budgets the clock cannot add to
# a creation time, a packet too big for a float and a zero-length packet, an
# infinite service time, a rate averaging time whose inverse overflows, too
# many timeline rows, more expected packets than set-up can draw, and more
# nodes or pairs in range than set-up can hold. Then inputs that no other
# test rejects, and a retired key.
REJECTED_INPUTS = [
    ("radio.e_elec_nj = 1e-320", "radio: e_elec"),
    ("radio.eps_amp_pj = 1e-320", "radio: eps_amp"),
    ("deadline.rt = 1e-17", "deadline.rt"),
    ("deadline.nrt = 1e-300", "deadline.nrt"),
    (f"packet_bits = {10**400}", "packet_bits/radio.bandwidth"),
    ("packet_bits = 0", "packet_bits"),
    ("radio.bandwidth = 1e-320", "packet_bits/radio.bandwidth"),
    ("rate_tau = 1e-320", "rate_tau"),
    ("timeline_bucket = 1e-320", "timeline_bucket"),
    ("timeline_bucket = 1e-5", "timeline_bucket"),
    # arrivals are drawn at set-up: 10^6 packets/s for 100 s is at the cap
    ("rate.rt = 1e300", "rate.rt"),
    (f"rate.rt = {math.nextafter(1e6, math.inf)!r}", "rate.rt"),
    # set-up peaks at about 1.6 KB per node: 300,000 nodes is at the cap
    ("node_count = 300001", "node_count"),
    # about 1.09e9 pairs in range on the default grid, and every pair of
    # 20,000 nodes on a 10 m grid: past the cap of 10^8
    ("rate.rt = 0\nnode_count = 300000", "node_count"),
    ("node_count = 20000\ngrid.width = 10\ngrid.height = 10", "node_count"),
    # 19,999 sensors pinned in a 10 m x 20 m patch of a 100 km grid: about
    # 480 pairs in range under uniform placement, but all 2e8 of them are
    ("grid.width = 100000\ngrid.height = 100000\nrate.rt = 0\nnode_count = 20000\n"
     + "\n".join(f"position.{1 + i} = {1000 + i // 200 * 0.1!r},{i % 200 * 0.1!r}"
                 for i in range(19_999)),
     "node_count"),
    ("sink.y = 2000", "sink.y"),
    ("position.1 = 5", "position.1"),
    ("loss.1 = 0.5", "loss.1"),
    # retired: a hop's predicted delay always includes its transmission time
    ("include_service_time = false", "include_service_time"),
]


@pytest.mark.parametrize(
    "line, key", REJECTED_INPUTS, ids=[line[:30] for line, _ in REJECTED_INPUTS]
)
def test_input_that_cannot_run_is_a_config_error(tmp_path, capsys, line, key):
    # refused by the config alone, before the command line could start a run
    with pytest.raises(ConfigError) as refused:
        parse_config(ONE_PACKET_SCENARIO + line + "\n")
    assert str(refused.value).startswith(key)
    bad = tmp_path / "bad.txt"
    bad.write_text(ONE_PACKET_SCENARIO + line + "\n")
    assert main(["--config", str(bad), "--out", str(tmp_path), "--quiet"]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("duration", ["0", "5e-324"])
@pytest.mark.parametrize("rates", ["rate.rt = 1e308\nrate.nrt = 1e308",
                                   "rate.rt = 1e308\nrate.nrt = 0"])
def test_zero_duration_runs_whatever_the_rates(tmp_path, rates, duration):
    # each class expects rate x 0 = 0 packets; the sum of the two rates
    # overflows to inf, and inf x 0 would be nan. At 5e-324 the default
    # timeline bucket, duration / 100, underflows to 0
    path = tmp_path / "scenario.txt"
    path.write_text(ONE_PACKET_SCENARIO + rates + f"\nduration = {duration}\n")
    assert main(["--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    header, rows = read_rows(tmp_path / "metrics.csv")
    assert dict(zip(header, rows[0]))["generated"] == "0"


def test_node_count_at_the_cap_reaches_the_run(tmp_path, monkeypatch):
    # the run is replaced: set-up at the cap would hold about 1 GB
    class Reached(Exception):
        pass

    def no_run(cfg):
        raise Reached(cfg.node_count)

    monkeypatch.setattr(cli, "run", no_run)
    scenario = tmp_path / "scenario.txt"
    # a 100 km grid keeps the pairs in range under their own cap
    scenario.write_text(
        "grid.width = 100000\ngrid.height = 100000\n"
        "rate.rt = 0\nrate.nrt = 0\nnode_count = 300000\n"
    )
    with pytest.raises(Reached) as reached:
        main(["--config", str(scenario), "--out", str(tmp_path), "--quiet"])
    assert reached.value.args == (300000,)


def test_tiny_rate_tau_with_a_finite_inverse_runs(tmp_path):
    # 1 / 1e-300 is finite, so every rate estimate stays a number and every
    # packet finds a route (at 1e-320 the estimates read nan and a third of
    # these packets were dropped as no_route)
    path = tmp_path / "scenario.txt"
    path.write_text(
        "node_count = 20\ngrid.width = 200\ngrid.height = 200\nduration = 2\n"
        "rate_tau = 1e-300\n"
    )
    assert main(["--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    header, rows = read_rows(tmp_path / "metrics.csv")
    row = dict(zip(header, rows[0]))
    assert int(row["generated"]) > 50
    assert int(row["delivered_rt"]) + int(row["delivered_nrt"]) == int(row["generated"])
    assert row["drop_no_route"] == "0"


def test_module_entry_point_exits_2_without_traceback(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(ONE_PACKET_SCENARIO + REJECTED_INPUTS[0][0] + "\n")
    src = str(Path(wsnqos.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "wsnqos", "--config", str(bad), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error: radio: e_elec" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "metrics.csv").exists()


# Values a scenario file may spell. EDGES are in range for most keys: signed
# zeros, subnormals, the ends of the float range and a big int; INVALID are
# non-finite, negative, too big for a float, or no number at all.
EDGES = [
    "0", "-0.0", "5e-324", "1e-320", "2.2250738585072014e-308", "1e-300", "1e-17",
    "0.5", "2", "1e300", "1.7976931348623157e308", "1" + "0" * 400,
]
INVALID = [
    "nan", "-nan", "inf", "-inf", "-1", "-5e-324", "1e400", "-" + "9" * 30, "0x10", "",
    "one", "1,2",
]
# one line of text: no line breaks, no comment mark, nothing a file cannot hold
garbage = st.text(
    st.characters(
        blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters="#"
    ),
    max_size=6,
)
numbers = st.one_of(
    st.sampled_from(EDGES),
    st.floats(0.0, 1000.0).map(repr),
    st.integers(1, 200).map(str),
    st.sampled_from(INVALID),
    st.floats().map(repr),
    st.integers().map(str),
    garbage,
)
small_ids = st.integers(-1, 13).map(str)

# Durations of 0, 5e-324 or 1e-6 to 0.05 s. A rate of 1e300 expects at most
# 5e-24 arrivals per stream at the first two and is past the config's cap on
# expected packets (1e294 per stream) at the rest; a duration in between
# could let it through the cap with millions of arrivals.
durations = st.one_of(st.floats(1e-6, 0.05), st.sampled_from([0.0, 5e-324]))

# Keys whose accepted values set the size of a run: at most 12 nodes, 0.05 s
# simulated, rate x duration <= 100 arrivals per stream and at most 50
# timeline rows.
BOUNDED = {
    "node_count": st.one_of(st.integers(-2, 12).map(str), st.sampled_from(INVALID)),
    "duration": st.one_of(
        durations.map(repr), st.sampled_from(INVALID + ["-0.0", "5e-324"])
    ),
    "rate.rt": st.one_of(
        st.floats(0.0, 2e3).map(repr),
        st.sampled_from(INVALID + ["-0.0", "5e-324", "1e300"]),
    ),
    "rate.nrt": st.one_of(
        st.floats(0.0, 2e3).map(repr),
        st.sampled_from(INVALID + ["-0.0", "5e-324", "1e300"]),
    ),
    "timeline_bucket": st.one_of(
        st.floats(1e-3, 1e308).map(repr), st.sampled_from(INVALID + ["0", "-0.0"])
    ),
}


def value_strategy(key, parse):
    if key in BOUNDED:
        return BOUNDED[key]
    if parse is _parse_bool:
        return st.sampled_from(["true", "false", "TRUE", "False", "yes", "1", ""])
    if parse is _parse_sources:
        listed = st.lists(st.integers(-1, 13), min_size=1, max_size=4)
        joined = listed.map(lambda ids: ",".join(map(str, ids)))
        return st.one_of(st.just("all"), joined, numbers)
    return numbers


FUZZED = {key: value_strategy(key, parse) for key, (_, parse) in _SCALAR_KEYS.items()}


@st.composite
def scenario_text(draw):
    lines = [
        f"node_count = {draw(st.integers(2, 12))}",
        f"duration = {draw(durations)!r}",
    ]
    for key in draw(st.lists(st.sampled_from(sorted(FUZZED)), max_size=4)):
        lines.append(f"{key} = {draw(FUZZED[key])}")
    ids = st.one_of(st.integers(1, 11).map(str), small_ids, garbage)
    coords = st.one_of(st.floats(0.0, 1000.0).map(repr), numbers)
    for _ in range(draw(st.integers(0, 1))):
        lines.append(f"position.{draw(ids)} = {draw(coords)},{draw(coords)}")
    for _ in range(draw(st.integers(0, 1))):
        p = draw(st.one_of(st.floats(0.0, 1.0).map(repr), numbers))
        lines.append(f"loss.{draw(ids)}.{draw(small_ids)} = {p}")
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(text=scenario_text())
def test_every_scenario_runs_or_is_a_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["--config", str(path), "--out", tmp, "--quiet"]
        try:
            cfg = parse_config(text)
        except ConfigError:
            assert main(argv) == 2
        else:
            assert main(argv) == 0
            # every delivery lands in a timeline row
            _, (metrics,) = read_rows(Path(tmp) / "metrics.csv")
            _, timeline = read_rows(Path(tmp) / "timeline.csv")
            assert len(timeline) == cfg.timeline_bucket_count()
            delivered = sum(
                int(metrics[METRICS_COLUMNS.index(name)])
                for name in ("delivered_rt", "delivered_nrt")
            )
            assert int(timeline[-1][TIMELINE_COLUMNS.index("delivered_cum")]) == delivered


@st.composite
def accepted_scenario_text(draw):
    """A scenario that parse_config accepts, so its run is exercised: at most
    40 nodes and 0.05 s, pins (some on multiples of the radio range, so a
    range apart, or of the cell side, so on cell edges, and some on another
    pin), per-link losses, sources and, in some, a timeline bucket of its
    own."""
    n = draw(st.integers(2, 40))
    width = draw(st.floats(1.0, 500.0))
    height = draw(st.floats(1.0, 500.0))
    r = draw(st.floats(1.0, 200.0))
    duration = draw(st.floats(1e-3, 0.05))
    lines = [
        f"node_count = {n}",
        f"grid.width = {width!r}",
        f"grid.height = {height!r}",
        f"sink.x = {draw(st.floats(0.0, width))!r}",
        f"sink.y = {draw(st.floats(0.0, height))!r}",
        f"radio.range = {r!r}",
        f"duration = {duration!r}",
        f"rate.rt = {draw(st.floats(0.0, 200.0))!r}",
        f"rate.nrt = {draw(st.floats(0.0, 200.0))!r}",
        f"loss = {draw(st.floats(0.0, 1.0))!r}",
        f"initial_energy = {draw(st.floats(1e-5, 1e-2))!r}",
        f"predictive_drop = {draw(st.sampled_from(['true', 'false']))}",
        f"seed = {draw(st.integers(0, 2**64 - 1))}",
    ]

    if draw(st.booleans()):
        # up to 10^4 rows, or one row for a bucket past the duration
        bucket = duration / draw(st.floats(0.5, 1e4))
        lines.append(f"timeline_bucket = {bucket!r}")
    # the pins' cell side: a range of 1 or more is not widened for them
    side = geometry.cell_side(r, 500.0)

    def coord(extent):
        if draw(st.booleans()):
            return draw(st.floats(0.0, extent))
        k = draw(st.integers(0, int(extent // r)))
        return min(k * draw(st.sampled_from([r, side])), extent)

    pins = []
    for nid in draw(st.lists(st.integers(1, n - 1), unique=True, max_size=n - 1)):
        if pins and draw(st.booleans()):
            x, y = draw(st.sampled_from(pins))
        else:
            x, y = coord(width), coord(height)
        pins.append((x, y))
        lines.append(f"position.{nid} = {x!r},{y!r}")
    links = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    for u, v in draw(st.lists(links, max_size=3)):
        lines.append(f"loss.{u}.{v} = {draw(st.floats(0.0, 1.0))!r}")
    sources = draw(st.one_of(
        st.just("all"),
        st.lists(st.integers(1, n - 1), min_size=1, max_size=5).map(
            lambda ids: ",".join(map(str, ids))
        ),
    ))
    lines.append(f"sources = {sources}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(text=accepted_scenario_text())
def test_every_accepted_scenario_runs_on_the_all_pairs_tables(text):
    cfg = parse_config(text)
    sims = []

    def recorded_run(run_cfg):
        sim = Simulation(run_cfg)
        sims.append(sim)
        return sim.run()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.txt"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(cli, "run", recorded_run):
            assert main(["--config", str(path), "--out", tmp, "--quiet"]) == 0
        (sim,) = sims
        for nid, state in enumerate(sim.nodes):
            allowed = [s.node_id for s in state.allowed]
            assert allowed == all_pairs_allowed(sim.topology, nid), nid
        _, (metrics,) = read_rows(Path(tmp) / "metrics.csv")
        _, timeline = read_rows(Path(tmp) / "timeline.csv")
        assert len(timeline) == cfg.timeline_bucket_count()
        delivered = sum(
            int(metrics[METRICS_COLUMNS.index(name)])
            for name in ("delivered_rt", "delivered_nrt")
        )
        assert int(timeline[-1][TIMELINE_COLUMNS.index("delivered_cum")]) == delivered
