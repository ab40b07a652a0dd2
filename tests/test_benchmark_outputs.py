"""The CLI still writes the outputs that perfbench/digests.json records.

The benchmark compares every op's CSV hashes with the recorded digests.
This runs pool seed 1 of each workload, and lossy_lifetime seed 14, where
a receive debit kills a relay mid-service, through `cli.main`, so an output
change fails here before the benchmark runs. It also checks that each
workload's fully pinned layout parses, far under the config's cap on pairs
in radio range. It reads perfbench/ and writes only under tmp_path.
"""

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

from wsnqos import cli
from wsnqos.config import MAX_IN_RANGE_PAIRS, parse_config
from wsnqos.geometry import in_range_pair_bound

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    path = PERFBENCH / "scenarios.py"
    module = types.ModuleType("perfbench_scenarios")
    # registered first: its dataclasses look their module up by name
    sys.modules[module.__name__] = module
    # compiled here, not imported, so no bytecode is written under perfbench/
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module.WORKLOADS


WORKLOADS = load_workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize(
    "name, seed",
    [("dense_default", 1), ("large_sparse", 1), ("lossy_lifetime", 1),
     ("lossy_lifetime", 14)],
)
def test_cli_outputs_match_recorded_digests(tmp_path, name, seed):
    workload = WORKLOADS[name]
    recorded = DIGESTS[name]
    assert recorded["scenario_sha256"] == workload.scenario_sha256
    config = tmp_path / "scenario.txt"
    config.write_text(workload.config_text(seed))
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "--quiet"]) == 0
    digests = {
        kind: hashlib.sha256((out / f"{kind}.csv").read_bytes()).hexdigest()
        for kind in ("metrics", "timeline")
    }
    assert digests == recorded["seeds"][str(seed)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_workloads_are_far_under_the_pair_cap(name):
    # every sensor is pinned, so the cells bound every pair in range
    cfg = parse_config(WORKLOADS[name].config_text(1))
    assert len(cfg.positions) == cfg.node_count - 1
    pinned = [(cfg.sink_x, cfg.sink_y), *cfg.positions.values()]
    assert in_range_pair_bound(pinned, cfg.radio_range) < 10**-3 * MAX_IN_RANGE_PAIRS
