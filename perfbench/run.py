"""wsnqos benchmark: host time, memory and QoS outputs on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]
    python3 perfbench/run.py --smoke

Run from the root of a wsnqos checkout; the program is imported from its
`src/`. One workload run ("op") takes the CLI's path through public calls:
`config.parse_config` on the scenario text, `engine.Simulation(cfg)`,
`Simulation.run()`, then `cli.metrics_row` / `cli.timeline_rows` /
`cli.write_csv` for both CSVs. Every op's CSVs are hashed and compared with
the digests recorded in `digests.json`; a mismatch counts as a failed op.

Host times are reported in seconds at a fixed reference speed: each phase
of an op is scaled by REF_SECONDS over the time of a fixed computation run
just before and after the phase (see reference.py), which removes most of
the host's speed drift. The report also prints the unscaled host seconds.

--trace 0 cycles through the run's seeds until --seconds have passed (at
least once through) and reports host timings as medians over all ops, peak
RSS of the process, and the QoS figures averaged over the run's seeds.
--trace 1 alternates untraced and traced ops of the run's first seed and
reports per-layer counts and times (see tracer.py); it fails if a traced op
disagrees with the program's own counters or changes an output byte.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"


def import_program() -> None:
    """Put the checkout's src/ first on the path and check wsnqos comes from it."""
    package = SRC / "wsnqos"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a wsnqos checkout")
    sys.path.insert(0, str(SRC))
    import wsnqos

    if Path(wsnqos.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: wsnqos imported from {wsnqos.__file__}, not {package}")


import_program()

from reference import reference_s, speed_scale  # noqa: E402
from scenarios import WORKLOADS, Workload  # noqa: E402
from tracer import TIME_METRICS, UNITS, Tracer, identity_errors  # noqa: E402
from wsnqos import cli, config, engine  # noqa: E402
from wsnqos.node import TrafficClass  # noqa: E402

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "tx_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rt_on_time_ratio": "ratio",
    "nrt_delivery_ratio": "ratio",
    "rt_delay_p95_ms": "ms",
    "energy_per_delivered_uj": "uJ",
    "alive_ratio_end": "ratio",
}
HOST_METRICS = ("wall_s", "setup_s", "tx_per_s")


@dataclass
class Op:
    """One workload run: host timings, outputs and the program's Metrics."""

    seed: int
    parse_s: float
    setup_s: float
    loop_s: float
    output_s: float
    # durations of the reference computation run before parsing, between
    # set-up and the loop, and after the outputs are written
    refs_before: list[float]
    refs_mid: list[float]
    refs_after: list[float]
    digests: dict[str, str]
    metrics: engine.Metrics

    @property
    def scale(self) -> float:
        """Host seconds -> seconds at the reference speed, for the whole op."""
        return speed_scale(self.refs_before + self.refs_mid, self.refs_after)

    @property
    def wall_s(self) -> float:
        return self.parse_s + self.setup_s + self.loop_s + self.output_s

    def at_reference_speed(self) -> dict[str, float]:
        """The host metrics of this op, in seconds at the reference speed.
        Parse and set-up are scaled by the host speed measured around them,
        loop and output by the speed measured around those."""
        early = speed_scale(self.refs_before, self.refs_mid)
        late = speed_scale(self.refs_mid, self.refs_after)
        return {
            "wall_s": (self.parse_s + self.setup_s) * early
            + (self.loop_s + self.output_s) * late,
            "setup_s": self.setup_s * early,
            "tx_per_s": sum(self.metrics.tx_by_node.values()) / (self.loop_s * late),
        }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(wl: Workload, seed: int) -> Op:
    """Config text in, both CSVs written; names are looked up at call time so
    that the tracer's wrappers are seen."""
    text = wl.config_text(seed)
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    timeline_path = out_dir / "timeline.csv"
    gc.collect()
    before = reference_s()
    clock = time.perf_counter
    t0 = clock()
    cfg = config.parse_config(text)
    t1 = clock()
    sim = engine.Simulation(cfg)
    t2 = clock()
    mid = reference_s()
    t3 = clock()
    m = sim.run()
    t4 = clock()
    cli.write_csv(metrics_path, cli.METRICS_COLUMNS, [cli.metrics_row(seed, m)])
    cli.write_csv(timeline_path, cli.TIMELINE_COLUMNS, cli.timeline_rows(seed, cfg, m))
    t5 = clock()
    after = reference_s()
    digests = {"metrics": sha256(metrics_path), "timeline": sha256(timeline_path)}
    return Op(seed, t1 - t0, t2 - t1, t4 - t3, t5 - t4, before, mid, after, digests, m)


def qos(m: engine.Metrics) -> dict[str, float]:
    """Simulated-time QoS figures of one op; they repeat exactly per seed."""
    rt, nrt = TrafficClass.RT, TrafficClass.NRT
    return {
        "rt_on_time_ratio": m.delivered[rt] / m.generated[rt],
        "nrt_delivery_ratio": m.delivered[nrt] / m.generated[nrt],
        "rt_delay_p95_ms": m.delay_stats(rt)[1] * 1e3,
        "energy_per_delivered_uj": m.total_energy / m.delivered_total() * 1e6,
        "alive_ratio_end": m.alive_at(m.end_time) / m.sensor_count,
    }


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[str]

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n {len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}"


def measure(wl: Workload, seeds: list[int], seconds: float, recorded: dict) -> Result:
    """Untraced ops over `seeds`, cycling until `seconds` have passed."""
    host = {name: [] for name in HOST_METRICS}
    host_wall, scales = [], []
    per_seed = []
    failed = 0
    ops = 0
    start = time.perf_counter()
    while ops < len(seeds) or time.perf_counter() - start < seconds:
        op = run_op(wl, seeds[ops % len(seeds)])
        if op.digests != recorded[str(op.seed)]:
            failed += 1
        for name, value in op.at_reference_speed().items():
            host[name].append(value)
        host_wall.append(op.wall_s)
        scales.append(op.scale)
        if ops < len(seeds):
            per_seed.append(qos(op.metrics))
        ops += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {}
    report = [
        f"{wl.name}: seeds {seeds}, {ops} ops, {failed} outputs mismatched",
        f"  host seconds per op: median {statistics.median(host_wall):.6g}  "
        f"{spread(host_wall)}; host speed / reference speed: median "
        f"{statistics.median(scales):.4g}  {spread(scales)}",
    ]
    for name in HOST_METRICS:
        value = statistics.median(host[name])
        metrics[name] = (value, E2E_UNITS[name])
        report.append(f"  {name:24} median {value:.6g}  {spread(host[name])}  {E2E_UNITS[name]}")
    metrics["peak_rss_mb"] = (peak_rss_mb, E2E_UNITS["peak_rss_mb"])
    report.append(f"  {'peak_rss_mb':24} {peak_rss_mb:.6g}  MB")
    for name in per_seed[0]:
        values = [row[name] for row in per_seed]
        value = statistics.fmean(values)
        metrics[name] = (value, E2E_UNITS[name])
        report.append(
            f"  {name:24} mean {value:.9g} over {len(values)} seeds  {spread(values)}"
            f"  {E2E_UNITS[name]}"
        )
    report.append(f"  {'output_mismatch_ratio':24} {failed / ops:.6g}  ratio ({failed} of {ops})")
    return Result(ops, failed, metrics, report)


def trace(wl: Workload, seed: int, seconds: float, recorded: dict) -> Result:
    """Pairs of untraced and traced ops of one seed until `seconds` have passed."""
    plain_wall, traced_wall = [], []
    times = {name: [] for name in TIME_METRICS}
    counts: dict[str, float] | None = None
    failed = 0
    ops = 0
    errors: list[str] = []
    start = time.perf_counter()
    while not traced_wall or time.perf_counter() - start < seconds:
        plain = run_op(wl, seed)
        tracer = Tracer()
        with tracer:
            traced = run_op(wl, seed)
        ops += 2
        layers = tracer.layer_metrics()
        op_errors = identity_errors(layers, traced.metrics)
        if plain.digests != recorded[str(seed)]:
            failed += 1
            errors.append("untraced outputs differ from the recorded digests")
        if traced.digests != plain.digests:
            op_errors.append("traced outputs differ from untraced ones")
        op_counts = {k: v for k, v in layers.items() if k not in TIME_METRICS}
        if counts is None:
            counts = op_counts
        elif op_counts != counts:
            op_errors.append("traced counts differ between repeats of one seed")
        if op_errors:
            failed += 1
            errors.extend(op_errors)
        plain_wall.append(plain.wall_s * plain.scale)
        traced_wall.append(traced.wall_s * traced.scale)
        for name in TIME_METRICS:
            times[name].append(layers[name] * traced.scale)

    values = dict(counts)
    for name in TIME_METRICS:
        values[name] = statistics.median(times[name])
    values["trace.overhead_ratio"] = statistics.median(traced_wall) / statistics.median(
        plain_wall
    )
    report = [f"{wl.name}: seed {seed}, {ops // 2} untraced/traced pairs"]
    report += [f"  check failed: {e}" for e in errors]
    report += [f"  {name:32} {values[name]:.6g}  {UNITS[name]}" for name in UNITS]
    return Result(ops, failed, {name: (values[name], UNITS[name]) for name in UNITS}, report)


# -- recorded digests ----------------------------------------------------


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def recorded_for(wl: Workload) -> dict:
    entry = load_digests().get(wl.name)
    if entry is None or entry["scenario_sha256"] != wl.scenario_sha256:
        raise SystemExit(
            f"error: no digests recorded for the current {wl.name} scenario; "
            "run perfbench/run.py --record"
        )
    return entry["seeds"]


def record(names: list[str]) -> None:
    digests = load_digests()
    for name in names:
        wl = WORKLOADS[name]
        seeds = {}
        for seed in range(1, wl.pool_size + 1):
            seeds[str(seed)] = run_op(wl, seed).digests
            print(f"{name} seed {seed}: {seeds[str(seed)]}", flush=True)
        digests[name] = {"scenario_sha256": wl.scenario_sha256, "seeds": seeds}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


# -- the harness's own smoke check -----------------------------------------


def smoke() -> list[str]:
    """Tiny version of every workload through both modes; returns problems."""
    spec = json.loads(BENCHMARK.read_text())
    problems = []
    if {w["name"]: w["why"] for w in spec["workloads"]} != {
        w.name: w.why for w in WORKLOADS.values()
    }:
        problems.append("BENCHMARK.json workloads differ from scenarios.py")
    problems += [f"{w.name}: why is over 200 characters" for w in WORKLOADS.values()
                 if len(w.why) > 200]
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for full in WORKLOADS.values():
        wl = full.tiny()
        seed = wl.run_seeds(0)[0]
        first = run_op(wl, seed)
        via_cli = OUT / wl.name / "cli"
        cfg_path = OUT / wl.name / "scenario.txt"
        cfg_path.write_text(wl.config_text(seed))
        cli.main(["--config", str(cfg_path), "--out", str(via_cli), "--quiet"])
        cli_digests = {
            "metrics": sha256(via_cli / "metrics.csv"),
            "timeline": sha256(via_cli / "timeline.csv"),
        }
        if cli_digests != first.digests:
            problems.append(f"{wl.name}: harness outputs differ from the wsnqos CLI's")
        recorded = {str(seed): first.digests}
        for mode, result in (
            (0, measure(wl, [seed], 0.0, recorded)),
            (1, trace(wl, seed, 0.0, recorded)),
        ):
            print("\n".join(result.report))
            got = {name: unit for name, (_v, unit) in result.metrics.items()}
            if got != want[mode] or result.failed:
                problems.append(
                    f"{wl.name} --trace {mode}: failed {result.failed}, "
                    f"metrics differ from BENCHMARK.json: "
                    f"{sorted(set(got.items()) ^ set(want[mode].items()))}"
                )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record digests")
    parser.add_argument("--smoke", action="store_true", help="self-check the harness")
    args = parser.parse_args()

    if args.smoke:
        problems = smoke()
        print("\n".join(problems) or "smoke check passed")
        return 1 if problems else 0
    if args.record:
        record([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    wl = WORKLOADS[args.workload]
    recorded = recorded_for(wl)
    seeds = wl.run_seeds(args.seed)
    if args.trace:
        result = trace(wl, seeds[0], args.seconds, recorded)
    else:
        result = measure(wl, seeds, args.seconds, recorded)
    print("\n".join(result.report))
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
