"""The benchmark's workloads: scenario text, seed sets and why each exists.

Every workload is a batch job. Its scenario text is fixed except for the
`seed` line, so a run's inputs are the scenario plus the seeds it draws.

Each workload pins every sensor to one deployment drawn once from
LAYOUT_SEED. With placement left to the seed, the share of sensors that
have any greedy route to the sink changes from seed to seed (on the default
scenario RT on-time delivery ran from 0.09 to 0.82 over 40 seeds), and that
would swamp every QoS figure and half of the timings. With the deployment
fixed, the seed still draws all traffic and every link-loss outcome.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LAYOUT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    reason: str
    # the layers the workload is meant to stress, and the ones it bypasses
    stresses: str
    bypasses: str
    # scenario keys apart from `position.<id>` and `seed`
    keys: dict[str, str]
    # seeds run and checked in every run; the QoS figures average over them
    seeds_per_run: int
    # recorded seeds 1..pool_size that runs draw from
    pool_size: int
    # overrides for the smoke check's tiny version of the workload
    smoke_keys: dict[str, str] = field(default_factory=dict)

    @property
    def why(self) -> str:
        return f"{self.reason}. Stresses {self.stresses}; bypasses {self.bypasses}."

    @cached_property
    def scenario_text(self) -> str:
        """Scenario text without the seed line: keys, then the pinned layout."""
        lines = [f"{k} = {v}" for k, v in self.keys.items()]
        nodes = int(self.keys.get("node_count", "300"))
        width = float(self.keys.get("grid.width", "1000"))
        height = float(self.keys.get("grid.height", "1000"))
        rng = np.random.default_rng(LAYOUT_SEED)
        for nid in range(1, nodes):
            x = float(rng.uniform(0.0, width))
            y = float(rng.uniform(0.0, height))
            lines.append(f"position.{nid} = {x!r},{y!r}")
        return "\n".join(lines) + "\n"

    @property
    def scenario_sha256(self) -> str:
        return hashlib.sha256(self.scenario_text.encode()).hexdigest()

    def config_text(self, seed: int) -> str:
        return f"{self.scenario_text}seed = {seed}\n"

    def run_seeds(self, bench_seed: int) -> list[int]:
        """The seeds_per_run pool seeds a run with this --seed uses, in order."""
        pool = list(range(1, self.pool_size + 1))
        random.Random(f"{self.name}/{bench_seed}").shuffle(pool)
        return pool[: self.seeds_per_run]

    def tiny(self) -> "Workload":
        """A small version for the smoke check; it has no recorded digests."""
        return Workload(
            name=self.name,
            reason=self.reason,
            stresses=self.stresses,
            bypasses=self.bypasses,
            keys={**self.keys, **self.smoke_keys},
            seeds_per_run=1,
            pool_size=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense_default",
            reason="Paper default, event loop dominant: ~3 candidates per "
            "decision on long lossless paths",
            stresses="routing, queueing, engine calendar",
            bypasses="topology build, PRR loss, deaths",
            keys={"duration": "2"},
            seeds_per_run=8,
            pool_size=48,
            smoke_keys={"duration": "0.2"},
        ),
        Workload(
            name="large_sparse",
            reason="1200 nodes, 4x the default at its density, light traffic: "
            "set-up dominates through the O(N^2) neighbour scan",
            stresses="geometry, traffic generation",
            bypasses="routing, queueing",
            keys={
                "node_count": "1200",
                "grid.width": "2000",
                "grid.height": "2000",
                "rate.rt": "0.002",
                "rate.nrt": "0.002",
                "duration": "100",
            },
            seeds_per_run=8,
            pool_size=32,
            smoke_keys={
                "node_count": "400",
                "grid.width": "1150",
                "grid.height": "1150",
                "duration": "20",
            },
        ),
        Workload(
            name="lossy_lifetime",
            reason="60 nodes, loss 0.2, tight deadlines, small batteries: "
            "PRR < 1, relay deaths, ~6 candidates per decision",
            stresses="linkest, energy, node, routing",
            bypasses="geometry, traffic generation",
            keys={
                "node_count": "60",
                "grid.width": "300",
                "grid.height": "300",
                "rate.rt": "10",
                "rate.nrt": "30",
                "loss": "0.2",
                "deadline.rt": "0.004",
                "deadline.nrt": "0.05",
                "initial_energy": "0.0016",
                "duration": "2",
            },
            seeds_per_run=32,
            pool_size=128,
            smoke_keys={"duration": "0.4", "initial_energy": "0.0003"},
        ),
    )
}
