"""Golden outputs: SHA-256 of metrics.csv and timeline.csv for small scenarios.

Each scenario runs through `cli.main` and its two CSVs are hashed. Any
refactor must leave these hashes unchanged; a deliberate output change
updates them in the same commit and says why in CHANGES.md.

To print the current hashes: `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wsnqos
from wsnqos.cli import main

SCENARIOS = {
    # PRR < 1 everywhere, one link almost dead, two seeds in one sweep
    "lossy": (
        """\
node_count = 40
grid.width = 300
grid.height = 300
loss = 0.2
loss.5.0 = 0.9
rate.rt = 4
rate.nrt = 4
duration = 8
seed = 11
""",
        ["--seeds", "2"],
    ),
    # batteries that pay for about 60 sends: sources and relays die
    "battery_death": (
        """\
node_count = 30
grid.width = 250
grid.height = 250
initial_energy = 0.0005
rate.rt = 10
rate.nrt = 10
duration = 30
seed = 4
""",
        [],
    ),
    # deadlines of a few hops: predictive drops and expiries
    "predictive_drop": (
        """\
node_count = 60
grid.width = 400
grid.height = 400
deadline.rt = 0.003
deadline.nrt = 0.02
rate.rt = 20
rate.nrt = 20
duration = 1.5
seed = 7
""",
        [],
    ),
    # a hand-placed chain with a side branch and a fine timeline
    "pinned_positions": (
        """\
node_count = 6
position.1 = 560,500
position.2 = 620,500
position.3 = 680,500
position.4 = 440,470
position.5 = 600,560
rate.rt = 50
rate.nrt = 50
duration = 10
timeline_bucket = 0.5
seed = 3
""",
        [],
    ),
    # real-time traffic only, from a subset of the sensors
    "rt_only": (
        """\
node_count = 50
grid.width = 350
grid.height = 350
sources = 1,4,9,16,25,36,49
rate.rt = 10
rate.nrt = 0
duration = 10
seed = 5
""",
        [],
    ),
    # no predictive drop
    "no_predictive": (
        """\
node_count = 50
grid.width = 350
grid.height = 350
predictive_drop = false
deadline.rt = 0.004
rate.rt = 15
rate.nrt = 15
duration = 1.5
seed = 9
""",
        [],
    ),
    # relay 1 offers more than its radio can carry (rho >= 1), so nodes 2
    # and 3, whose only allowed neighbour it is, see an unstable queue
    "saturated_relay": (
        """\
node_count = 4
position.1 = 560,500
position.2 = 620,500
position.3 = 600,540
rate.rt = 1300
rate.nrt = 1300
deadline.rt = 1
deadline.nrt = 1
initial_energy = 50
duration = 1
seed = 2
""",
        [],
    ),
}

GOLDEN = {
    "lossy": (
        "2481eb0aec2086819898b6049334e71d4a90127832d58790a639eb40b222afc7",
        "a08c55dbaa40eeefb4ee78f4de946bec134463eda8929784e5fd07ec85462a12",
    ),
    "battery_death": (
        "eb9c2b10dbe592e5013d7919a31b82b9fc6f91628cbaba5d61fcb6c21caf4db5",
        "d35089f6b6699d243d0cae0742fe0e5a040c589bbe56e61f95a1cd7188d89058",
    ),
    "predictive_drop": (
        "62b7fd05c78c5d2cfbb84619ba881098a975e29e0aa75d85364ebe46b9c7f3e3",
        "5c007d1572ee60c3f1e5ea5546f9484552878cd3f970de07591190f3026d29a0",
    ),
    "pinned_positions": (
        "75357b98398f1954b563a411752426e73f2875db8033a62e6c1d68ea1dabd088",
        "dfd9bcfe8a1ece06534f7ee64f4304596a58a8bb42721de8502d8f294be9af52",
    ),
    "rt_only": (
        "5766becaf2a51de2fc73181590e4323c7402cc63dd975a070801c3a35be17625",
        "2da6eab33f92aac8d29b3a2c4ea616516fb9e4342102d173d4065ab48cb53eca",
    ),
    "no_predictive": (
        "92da978ca376d464e81691d27b5db1d7379b4d3211b9908cd200759a43771833",
        "2086dd3919d4fc9d30ecefc95810cf5471af6ad72fa706acf038a9efc467e02c",
    ),
    "saturated_relay": (
        "dbf58686e68f5d892fab6cdac93c9f2bdfcababdeb781ef9ae72879eb917d9db",
        "e37fae8ff51aacb24da6a7359aac3b00b3b36c4299895d7645c762d367c3cbd9",
    ),
}


def output_hashes(name: str, out_dir: Path) -> tuple[str, str]:
    """Run one scenario through the CLI; SHA-256 of (metrics.csv, timeline.csv)."""
    text, extra = SCENARIOS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "scenario.txt"
    config.write_text(text)
    # not an assert: the call must also run under python -O
    status = main(["--config", str(config), "--out", str(out_dir), "--quiet", *extra])
    if status != 0:
        raise RuntimeError(f"scenario {name} exited with status {status}")
    return tuple(
        hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
        for f in ("metrics.csv", "timeline.csv")
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_outputs(name, tmp_path):
    assert output_hashes(name, tmp_path) == GOLDEN[name]


def test_golden_outputs_under_python_O(tmp_path):
    # the engine's invariant checks raise rather than assert, so running
    # with asserts compiled out must give the same bytes; one interpreter
    # runs all the scenarios
    script = textwrap.dedent(
        """
        import json
        import sys
        from pathlib import Path

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        from test_golden import SCENARIOS, output_hashes

        out = Path(sys.argv[1])
        print(json.dumps({name: output_hashes(name, out / name) for name in SCENARIOS}))
        """
    )
    paths = (
        str(Path(wsnqos.__file__).resolve().parent.parent),
        str(Path(__file__).resolve().parent),
        os.environ.get("PYTHONPATH"),
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    hashes = json.loads(proc.stdout.splitlines()[-1])
    assert {name: tuple(pair) for name, pair in hashes.items()} == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            print(f'    "{name}": {output_hashes(name, Path(tmp) / name)!r},')
