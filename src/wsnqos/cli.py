"""Command-line entry point: run scenarios and emit stable CSV results.

Outputs, written into --out:

  metrics.csv   one row per run, columns in METRICS_COLUMNS order
  timeline.csv  one row per time bucket per run: seed, time_s, alive_nodes,
                delivered_cum

Floats are printed with 9 significant digits; identical (config, seed)
invocations produce byte-identical files. A seed sweep (--seeds N) runs
seeds base, base+1, ..., base+N-1 and writes each seed's rows, in that
order, when its run ends.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import TextIO

from .config import ConfigError, ScenarioConfig, load_config
from .engine import DropCause, Metrics, run
from .node import TrafficClass

METRICS_COLUMNS = [
    "seed",
    "generated",
    *(f"delivered_{cls.value}" for cls in TrafficClass),
    *(f"drop_{cause.value}" for cause in DropCause),
    "in_flight",
    # in the order Metrics.delay_stats gives them
    *(f"delay_{cls.value}_{stat}" for cls in TrafficClass
      for stat in ("mean", "p95", "max")),
    "energy_consumed_j",
    "first_death_s",
]

TIMELINE_COLUMNS = ["seed", "time_s", "alive_nodes", "delivered_cum"]


def _fnum(x: float) -> str:
    return format(x, ".9g")


def metrics_row(seed: int, m: Metrics) -> list[str]:
    delivered = m.delivered
    first_death = m.first_death_time if m.first_death_time is not None else math.nan
    return [
        str(seed),
        str(m.generated_total()),
        *(str(delivered[cls]) for cls in TrafficClass),
        *(str(m.drop_count(cause)) for cause in DropCause),
        str(m.in_flight),
        *(_fnum(v) for cls in TrafficClass for v in m.delay_stats(cls)),
        _fnum(m.total_energy),
        _fnum(first_death),
    ]


def timeline_rows(seed: int, cfg: ScenarioConfig, m: Metrics) -> list[list[str]]:
    rows = []
    delivered = 0
    # the last count is of deliveries after the last point: no row shows it
    counts = m.delivered_by_bucket[:-1]
    for t, count in zip(cfg.timeline_points(), counts, strict=True):
        delivered += count
        rows.append([str(seed), _fnum(t), str(m.alive_at(t)), str(delivered)])
    return rows


def write_rows(fh: TextIO, rows: list[list[str]]) -> None:
    for row in rows:
        fh.write(",".join(row) + "\n")


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_rows(fh, [header, *rows])


def summarize(seed: int, m: Metrics) -> str:
    rt_mean, _, _ = m.delay_stats(TrafficClass.RT)
    nrt_mean, _, _ = m.delay_stats(TrafficClass.NRT)
    drops = ", ".join(
        f"{cause.value} {m.drop_count(cause)}"
        for cause in DropCause
        if m.drop_count(cause)
    )
    death = (
        f"{m.first_death_time:.3f} s" if m.first_death_time is not None else "none"
    )
    delivered = m.delivered
    return (
        f"seed {seed}: generated {m.generated_total()}, "
        f"delivered {m.delivered_total()} "
        f"(rt {delivered[TrafficClass.RT]}, nrt {delivered[TrafficClass.NRT]}), "
        f"in flight {m.in_flight}\n"
        f"  drops: {drops or 'none'}\n"
        f"  mean delay: rt {rt_mean * 1e3:.3f} ms, nrt {nrt_mean * 1e3:.3f} ms\n"
        f"  energy {m.total_energy:.6f} J, first death {death}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnqos",
        description="QoS-aware geographic routing simulator for sensor networks",
    )
    parser.add_argument("--config", help="scenario file (key = value lines)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument(
        "--seeds", type=int, default=1, help="sweep this many consecutive seeds"
    )
    parser.add_argument(
        "--duration", type=float, help="override the simulated duration (s)"
    )
    parser.add_argument(
        "--out", default=".", help="directory for metrics.csv and timeline.csv"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the stdout summary"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # applied before the defaults resolve, so a default timeline_bucket
        # follows --duration
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.duration is not None:
            overrides["duration"] = args.duration
        cfg = (
            load_config(args.config, **overrides)
            if args.config
            else ScenarioConfig(**overrides)
        )
        if args.seeds < 1:
            raise ConfigError("seeds", "must be >= 1")
        seeds = range(cfg.seed, cfg.seed + args.seeds)
        # a sweep past the largest seed fails here, before any file is
        # written; each seed's own config is built when the sweep reaches it
        replace(cfg, seed=seeds[-1])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    # opened before the first run, so an unwritable --out fails at once
    out_dir = Path(args.out)
    metrics_path = out_dir / "metrics.csv"
    timeline_path = out_dir / "timeline.csv"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with (
            open(metrics_path, "w", encoding="utf-8", newline="") as metrics_fh,
            open(timeline_path, "w", encoding="utf-8", newline="") as timeline_fh,
        ):
            write_rows(metrics_fh, [METRICS_COLUMNS])
            write_rows(timeline_fh, [TIMELINE_COLUMNS])
            for seed in seeds:
                run_cfg = replace(cfg, seed=seed)
                metrics = run(run_cfg)
                write_rows(metrics_fh, [metrics_row(seed, metrics)])
                write_rows(timeline_fh, timeline_rows(seed, run_cfg, metrics))
                if not args.quiet:
                    print(summarize(seed, metrics))
    except OSError as exc:
        print(f"cannot write results: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"wrote {metrics_path} and {timeline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
