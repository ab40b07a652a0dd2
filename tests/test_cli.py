import pytest

from wsnqos.cli import METRICS_COLUMNS, TIMELINE_COLUMNS, main

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


def test_invalid_seeds_value(tmp_path, scenario_file, capsys):
    assert main(["--config", str(scenario_file), "--seeds", "0"]) == 2


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
