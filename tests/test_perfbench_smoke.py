"""The benchmark harness still drives the engine: `perfbench/run.py --smoke`.

perfbench/tracer.py wraps engine entry points by name, so renaming or
removing one of them breaks the harness; this catches it in the test suite.
An engine that stops calling a wrapped name through it leaves the harness
running but its counts short, so the tracer is also run on one scenario.

The harness writes its CSVs under the root of the checkout it runs from, so
the check runs from a copy of perfbench/ and BENCHMARK.json with a link to
this checkout's src/; another harness run in the checkout keeps its files.
"""

import shutil
import subprocess
import sys
import types
from pathlib import Path

from wsnqos.config import ScenarioConfig
from wsnqos.engine import Simulation

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    # compiled here, not imported, so no bytecode is written under perfbench/
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module.Tracer


def test_perfbench_smoke_passes(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("smoke check passed")
    assert (tmp_path / ".perfbench_out").is_dir()


def test_tracer_counts_every_arrival_drawn():
    cfg = ScenarioConfig(
        node_count=3,
        positions={1: (550.0, 500.0), 2: (600.0, 500.0)},
        rate_rt=20.0,
        rate_nrt=10.0,
        duration=3.0,
        seed=2,
    )
    with load_tracer()() as tracer:
        sim = Simulation(cfg)
        metrics = sim.run()
    layers = tracer.layer_metrics()
    assert sim.alive_sources == 2  # no death cut a stream short
    assert layers["engine.arrivals_held"] == metrics.generated_total() > 0
    assert layers["engine.traffic_gen_s"] > 0.0
