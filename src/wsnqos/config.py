"""Scenario configuration: plain `key = value` files with dotted keys.

Lines are `key = value`, `#` starts a comment, blank lines are ignored.
Omitted keys fall back to the shipped defaults (the reference radio and
weight constants, a 1000 m x 1000 m grid, 2 J batteries, 100-bit packets).
Node ids run from 0 to node_count - 1; id 0 is always the sink.

Key reference (defaults in parentheses):

    grid.width (1000), grid.height (1000)     grid extent in meters
    node_count (300)                          nodes including the sink
    sink.x, sink.y (grid center)              sink position
    position.<id> = x,y                       pin a sensor's position
    radio.e_elec_nj (50)                      electronics energy, nJ/bit
    radio.eps_fs_pj (10)                      free-space amp, pJ/bit/m^2
    radio.eps_amp_pj (0.0013)                 multipath amp, pJ/bit/m^4
    radio.bandwidth (250000)                  link rate, bit/s
    radio.range (crossover distance)          radio reach, m
    packet_bits (100), initial_energy (2.0)
    rate.rt (1.0), rate.nrt (1.0)             per-source arrival rates, pkt/s
    deadline.rt (0.05), deadline.nrt (0.5)    deadline budgets, s
    sources (all)                             "all" or comma-separated ids
    alpha (0.6), beta (0.3), gamma (0.1)      cost weights
    prr_window (100), queue_capacity (64)
    loss (0.0)                                uniform link loss probability
    loss.<from>.<to> = p                      per-directed-link override
    predictive_drop (true)                    drop packets that cannot make it
    include_service_time (true)               add tx time to predicted delay
    rate_tau (1.0)                            arrival-rate averaging time, s
    duration (1000.0), seed (1)
    timeline_bucket (duration / 100)          timeline.csv bucket width, s
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .energy import RadioParams, crossover_distance
from .routing import CostWeights

SINK_ID = 0


class ConfigError(ValueError):
    """Invalid or malformed scenario configuration."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class ScenarioConfig:
    grid_width: float = 1000.0
    grid_height: float = 1000.0
    node_count: int = 300
    sink_x: float | None = None
    sink_y: float | None = None
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    e_elec_nj: float = 50.0
    eps_fs_pj: float = 10.0
    eps_amp_pj: float = 0.0013
    bandwidth: float = 250_000.0
    radio_range: float | None = None
    packet_bits: int = 100
    initial_energy: float = 2.0
    rate_rt: float = 1.0
    rate_nrt: float = 1.0
    deadline_rt: float = 0.05
    deadline_nrt: float = 0.5
    sources: tuple[int, ...] | None = None
    alpha: float = 0.6
    beta: float = 0.3
    gamma: float = 0.1
    prr_window: int = 100
    queue_capacity: int = 64
    loss: float = 0.0
    link_loss: dict[tuple[int, int], float] = field(default_factory=dict)
    predictive_drop: bool = True
    include_service_time: bool = True
    rate_tau: float = 1.0
    duration: float = 1000.0
    seed: int = 1
    timeline_bucket: float | None = None

    def __post_init__(self) -> None:
        self._validate_raw()
        if self.sink_x is None:
            self.sink_x = self.grid_width / 2.0
        if self.sink_y is None:
            self.sink_y = self.grid_height / 2.0
        if self.radio_range is None:
            self.radio_range = crossover_distance(self.radio_params())
        if self.timeline_bucket is None:
            self.timeline_bucket = self.duration / 100.0 if self.duration > 0 else 1.0
        self._validate_resolved()

    def _validate_raw(self) -> None:
        for key, (attr, parse) in _SCALAR_KEYS.items():
            value = getattr(self, attr)
            if parse is _parse_float and value is not None and not math.isfinite(value):
                raise ConfigError(key, f"must be finite, got {value}")
        positive = [
            ("grid.width", self.grid_width),
            ("grid.height", self.grid_height),
            ("radio.e_elec_nj", self.e_elec_nj),
            ("radio.eps_fs_pj", self.eps_fs_pj),
            ("radio.eps_amp_pj", self.eps_amp_pj),
            ("radio.bandwidth", self.bandwidth),
            ("initial_energy", self.initial_energy),
            ("deadline.rt", self.deadline_rt),
            ("deadline.nrt", self.deadline_nrt),
        ]
        for key, value in positive:
            if value <= 0:
                raise ConfigError(key, f"must be > 0, got {value}")
        if self.node_count < 2:
            raise ConfigError("node_count", f"must be >= 2, got {self.node_count}")
        if self.packet_bits < 1:
            raise ConfigError("packet_bits", f"must be >= 1, got {self.packet_bits}")
        for key, value in (("rate.rt", self.rate_rt), ("rate.nrt", self.rate_nrt)):
            if value < 0:
                raise ConfigError(key, f"must be >= 0, got {value}")
        for key, value in (
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("gamma", self.gamma),
        ):
            if value < 0:
                raise ConfigError(key, f"must be >= 0, got {value}")
        if self.alpha == self.beta == self.gamma == 0:
            raise ConfigError("alpha", "cost weights must not all be zero")
        if self.prr_window < 1:
            raise ConfigError("prr_window", "must be >= 1")
        if self.queue_capacity < 1:
            raise ConfigError("queue_capacity", "must be >= 1")
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigError("loss", f"must be in [0, 1], got {self.loss}")
        for (u, v), p in self.link_loss.items():
            key = f"loss.{u}.{v}"
            if not 0.0 <= p <= 1.0:
                raise ConfigError(key, f"must be in [0, 1], got {p}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count) or u == v:
                raise ConfigError(key, "link endpoints must be distinct node ids")
        if self.rate_tau <= 0.0:
            raise ConfigError("rate_tau", "must be > 0")
        if self.duration < 0:
            raise ConfigError("duration", f"must be >= 0, got {self.duration}")
        if self.seed < 0 or self.seed >= 2**64:
            raise ConfigError("seed", "must fit an unsigned 64-bit integer")
        if self.radio_range is not None and self.radio_range <= 0:
            raise ConfigError("radio.range", "must be > 0")
        if self.timeline_bucket is not None and self.timeline_bucket <= 0:
            raise ConfigError("timeline_bucket", "must be > 0")
        for nid, (x, y) in self.positions.items():
            key = f"position.{nid}"
            if nid == SINK_ID:
                raise ConfigError(key, "id 0 is the sink; set sink.x / sink.y")
            if not 1 <= nid < self.node_count:
                raise ConfigError(key, f"node id out of range 1..{self.node_count - 1}")
            if not (0.0 <= x <= self.grid_width and 0.0 <= y <= self.grid_height):
                raise ConfigError(key, "position outside the grid")
        if self.sources is not None:
            for nid in self.sources:
                if not 1 <= nid < self.node_count:
                    raise ConfigError(
                        "sources", f"node id {nid} out of range 1..{self.node_count - 1}"
                    )

    def _validate_resolved(self) -> None:
        if not (0.0 <= self.sink_x <= self.grid_width):
            raise ConfigError("sink.x", "sink outside the grid")
        if not (0.0 <= self.sink_y <= self.grid_height):
            raise ConfigError("sink.y", "sink outside the grid")

    def radio_params(self) -> RadioParams:
        return RadioParams.from_table_units(
            self.e_elec_nj, self.eps_fs_pj, self.eps_amp_pj, self.bandwidth
        )

    def weights(self) -> CostWeights:
        return CostWeights(self.alpha, self.beta, self.gamma)

    def loss_for(self, u: int, v: int) -> float:
        return self.link_loss.get((u, v), self.loss)

    def source_ids(self) -> list[int]:
        if self.sources is None:
            return list(range(1, self.node_count))
        return sorted(set(self.sources))


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"expected an integer, got {raw!r}") from None


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ConfigError(key, f"expected true or false, got {raw!r}")


def _parse_sources(key: str, raw: str) -> tuple[int, ...] | None:
    if raw.lower() == "all":
        return None
    return tuple(_parse_int(key, part.strip()) for part in raw.split(","))


_SCALAR_KEYS = {
    "grid.width": ("grid_width", _parse_float),
    "grid.height": ("grid_height", _parse_float),
    "node_count": ("node_count", _parse_int),
    "sink.x": ("sink_x", _parse_float),
    "sink.y": ("sink_y", _parse_float),
    "radio.e_elec_nj": ("e_elec_nj", _parse_float),
    "radio.eps_fs_pj": ("eps_fs_pj", _parse_float),
    "radio.eps_amp_pj": ("eps_amp_pj", _parse_float),
    "radio.bandwidth": ("bandwidth", _parse_float),
    "radio.range": ("radio_range", _parse_float),
    "packet_bits": ("packet_bits", _parse_int),
    "initial_energy": ("initial_energy", _parse_float),
    "rate.rt": ("rate_rt", _parse_float),
    "rate.nrt": ("rate_nrt", _parse_float),
    "deadline.rt": ("deadline_rt", _parse_float),
    "deadline.nrt": ("deadline_nrt", _parse_float),
    "sources": ("sources", _parse_sources),
    "alpha": ("alpha", _parse_float),
    "beta": ("beta", _parse_float),
    "gamma": ("gamma", _parse_float),
    "prr_window": ("prr_window", _parse_int),
    "queue_capacity": ("queue_capacity", _parse_int),
    "loss": ("loss", _parse_float),
    "predictive_drop": ("predictive_drop", _parse_bool),
    "include_service_time": ("include_service_time", _parse_bool),
    "rate_tau": ("rate_tau", _parse_float),
    "duration": ("duration", _parse_float),
    "seed": ("seed", _parse_int),
    "timeline_bucket": ("timeline_bucket", _parse_float),
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse scenario text into a validated config with defaults filled in."""
    values: dict[str, object] = {}
    positions: dict[int, tuple[float, float]] = {}
    link_loss: dict[tuple[int, int], float] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in _SCALAR_KEYS:
            attr, parse = _SCALAR_KEYS[key]
            values[attr] = parse(key, raw)
        elif key.startswith("position."):
            nid = _parse_int(key, key[len("position."):])
            parts = raw.split(",")
            if len(parts) != 2:
                raise ConfigError(key, f"expected x,y; got {raw!r}")
            positions[nid] = (_parse_float(key, parts[0]), _parse_float(key, parts[1]))
        elif key.startswith("loss."):
            parts = key.split(".")
            if len(parts) != 3:
                raise ConfigError(key, "expected loss.<from>.<to>")
            u = _parse_int(key, parts[1])
            v = _parse_int(key, parts[2])
            link_loss[(u, v)] = _parse_float(key, raw)
        else:
            raise ConfigError(key, "unknown configuration key")
    if positions:
        values["positions"] = positions
    if link_loss:
        values["link_loss"] = link_loss
    return ScenarioConfig(**values)


def load_config(path: str) -> ScenarioConfig:
    """Read and parse a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dumps_config(cfg: ScenarioConfig) -> str:
    """Serialize the effective (fully resolved) config; round-trips exactly."""
    lines = []
    for key, (attr, _) in _SCALAR_KEYS.items():
        value = getattr(cfg, attr)
        if attr == "sources":
            value = "all" if value is None else ",".join(str(i) for i in value)
        lines.append(f"{key} = {_fmt(value)}")
    for nid in sorted(cfg.positions):
        x, y = cfg.positions[nid]
        lines.append(f"position.{nid} = {_fmt(x)},{_fmt(y)}")
    for (u, v) in sorted(cfg.link_loss):
        lines.append(f"loss.{u}.{v} = {_fmt(cfg.link_loss[(u, v)])}")
    return "\n".join(lines) + "\n"
