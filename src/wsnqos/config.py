"""Scenario configuration: plain `key = value` files with dotted keys.

Lines are `key = value`, `#` starts a comment, blank lines are ignored.
Omitted keys fall back to the shipped defaults (the reference radio and
weight constants, a 1000 m x 1000 m grid, 2 J batteries, 100-bit packets).
Node ids run from 0 to node_count - 1; id 0 is always the sink.

Key reference (defaults in parentheses):

    grid.width (1000), grid.height (1000)     grid extent in meters
    node_count (300)                          nodes including the sink;
                                              at most 300,000, and at most
                                              10^8 pairs expected in radio
                                              range, pinned positions
                                              counted from their cells
    sink.x, sink.y (grid center)              sink position
    position.<id> = x,y                       pin a sensor's position
    radio.e_elec_nj (50)                      electronics energy, nJ/bit
    radio.eps_fs_pj (10)                      free-space amp, pJ/bit/m^2
    radio.eps_amp_pj (0.0013)                 multipath amp, pJ/bit/m^4
    radio.bandwidth (250000)                  link rate, bit/s
    radio.range (crossover distance)          radio reach, m
    packet_bits (100), initial_energy (2.0)
    rate.rt (1.0), rate.nrt (1.0)             per-source arrival rates, pkt/s;
                                              at most 10^8 packets expected
    deadline.rt (0.05), deadline.nrt (0.5)    deadline budgets, s
    sources (all)                             "all" or comma-separated ids
    alpha (0.6), beta (0.3), gamma (0.1)      cost weights
    prr_window (100), queue_capacity (64)
    loss (0.0)                                uniform link loss probability
    loss.<from>.<to> = p                      per-directed-link override
    predictive_drop (true)                    drop packets that cannot make it
    rate_tau (1.0)                            arrival-rate averaging time, s
    duration (1000.0), seed (1)
    timeline_bucket (duration / 100)          timeline.csv bucket width, s;
                                              at most 10^6 buckets, the
                                              last ending at the duration;
                                              one where duration / 100 is 0
                                              (of 1 s at duration 0)

Each scalar key's parser and allowed range sit on its `ScenarioConfig`
field. Numbers must be finite; a value out of range raises `ConfigError`
naming the key, and the command line exits 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .energy import RadioParams, crossover_distance
from .geometry import in_range_pair_bound
from .node import RateEstimator
from .routing import CostWeights

SINK_ID = 0
# timeline.csv rows per seed; the bucket end points are built as a list
MAX_TIMELINE_BUCKETS = 1_000_000
# packets a run expects to generate; arrival instants are drawn at set-up,
# 8 B each, so at the cap they come to about 1 GB
MAX_EXPECTED_PACKETS = 10**8
# nodes a run holds; at the default density set-up peaks at about 1.6 KB per
# node (tracemalloc, 5,000 nodes), so at the cap they come to about 0.5 GB,
# half what the arrivals at MAX_EXPECTED_PACKETS do. Each allowed neighbor
# adds about 8 B more, and a run adds each link's PRR window as it sends.
MAX_NODE_COUNT = 300_000
# node pairs a run expects within radio range: the pairs among the pinned
# sensors and the sink bounded from their cells, plus min(1, pi r^2 / (W H))
# of each pair with an unpinned sensor. Each pair gives at most one
# allowed-neighbor entry, about 8.5 B, so at the cap they come to about 850 MB.
MAX_IN_RANGE_PAIRS = 10**8


class ConfigError(ValueError):
    """Invalid or malformed scenario configuration."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


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


def _key(key, parse, default, low=None, high=None, *, above=False):
    """A scalar field read from `key` by `parse`. A float value must be
    finite, and a value other than None must be >= low (> low when `above`)
    and <= high; a None bound is not checked."""
    return field(
        default=default,
        metadata={"key": key, "parse": parse, "range": (low, high, above)},
    )


@dataclass
class ScenarioConfig:
    grid_width: float = _key("grid.width", _parse_float, 1000.0, 0, above=True)
    grid_height: float = _key("grid.height", _parse_float, 1000.0, 0, above=True)
    node_count: int = _key("node_count", _parse_int, 300, 2, MAX_NODE_COUNT)
    sink_x: float | None = _key("sink.x", _parse_float, None)
    sink_y: float | None = _key("sink.y", _parse_float, None)
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    e_elec_nj: float = _key("radio.e_elec_nj", _parse_float, 50.0)
    eps_fs_pj: float = _key("radio.eps_fs_pj", _parse_float, 10.0)
    eps_amp_pj: float = _key("radio.eps_amp_pj", _parse_float, 0.0013)
    bandwidth: float = _key("radio.bandwidth", _parse_float, 250_000.0)
    radio_range: float | None = _key("radio.range", _parse_float, None, 0, above=True)
    packet_bits: int = _key("packet_bits", _parse_int, 100, 1)
    initial_energy: float = _key("initial_energy", _parse_float, 2.0, 0, above=True)
    rate_rt: float = _key("rate.rt", _parse_float, 1.0, 0)
    rate_nrt: float = _key("rate.nrt", _parse_float, 1.0, 0)
    deadline_rt: float = _key("deadline.rt", _parse_float, 0.05, 0, above=True)
    deadline_nrt: float = _key("deadline.nrt", _parse_float, 0.5, 0, above=True)
    sources: tuple[int, ...] | None = _key("sources", _parse_sources, None)
    alpha: float = _key("alpha", _parse_float, 0.6)
    beta: float = _key("beta", _parse_float, 0.3)
    gamma: float = _key("gamma", _parse_float, 0.1)
    prr_window: int = _key("prr_window", _parse_int, 100, 1)
    queue_capacity: int = _key("queue_capacity", _parse_int, 64, 1)
    loss: float = _key("loss", _parse_float, 0.0, 0, 1)
    link_loss: dict[tuple[int, int], float] = field(default_factory=dict)
    predictive_drop: bool = _key("predictive_drop", _parse_bool, True)
    rate_tau: float = _key("rate_tau", _parse_float, 1.0, 0, above=True)
    duration: float = _key("duration", _parse_float, 1000.0, 0)
    seed: int = _key("seed", _parse_int, 1, 0, 2**64 - 1)
    timeline_bucket: float | None = _key(
        "timeline_bucket", _parse_float, None, 0, above=True
    )

    def __post_init__(self) -> None:
        # CostWeights and RadioParams own their rules; the radio one sees
        # the values after the nJ/pJ -> SI conversion, which can underflow
        try:
            self.weights()
        except ValueError as exc:
            raise ConfigError("alpha/beta/gamma", str(exc)) from None
        try:
            radio = self.radio_params()
        except ValueError as exc:
            raise ConfigError("radio", f"{exc} in SI units") from None
        if self.sink_x is None:
            self.sink_x = self.grid_width / 2.0
        if self.sink_y is None:
            self.sink_y = self.grid_height / 2.0
        if self.radio_range is None:
            self.radio_range = crossover_distance(radio)
        if self.timeline_bucket is None:
            # one bucket of the whole run where duration / 100 underflows to 0
            self.timeline_bucket = self.duration / 100.0 or self.duration or 1.0
        # defaults resolve from earlier fields, so a bad input is named
        # before a value derived from it
        for f in fields(self):
            if "key" not in f.metadata:
                continue
            key, value = f.metadata["key"], getattr(self, f.name)
            low, high, above = f.metadata["range"]
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(key, f"must be finite, got {value}")
            if low is not None and (value <= low if above else value < low):
                bound = f"> {low}" if above else f">= {low}"
                raise ConfigError(key, f"must be {bound}, got {value}")
            if high is not None and value > high:
                raise ConfigError(key, f"must be <= {high}, got {value}")
        # RateEstimator owns its rule too: 1 / rate_tau must not overflow
        try:
            RateEstimator(self.rate_tau)
        except ValueError as exc:
            raise ConfigError("rate_tau", str(exc)) from None
        self._validate_cross_field()

    def _validate_cross_field(self) -> None:
        # A pair with an unpinned sensor is in range with the share of the
        # grid that a radio disk covers; a grid area that underflows to 0,
        # or a reach that covers it, puts every such pair in range. The
        # pairs among the pinned sensors and the sink number at most
        # C(p, 2), and only when that is too many are they bounded from
        # their cells. A pin the checks below reject counts as unpinned.
        pinned = [(self.sink_x, self.sink_y)] + [
            (x, y)
            for nid, (x, y) in self.positions.items()
            if 1 <= nid < self.node_count
            and 0.0 <= x <= self.grid_width
            and 0.0 <= y <= self.grid_height
        ]
        area = self.grid_width * self.grid_height
        reach = math.pi * self.radio_range * self.radio_range
        share = reach / area if 0.0 < area and reach < area else 1.0
        n, p = self.node_count, len(pinned)
        unpinned = (n * (n - 1) // 2 - p * (p - 1) // 2) * share
        pairs = unpinned + p * (p - 1) // 2
        if not pairs <= MAX_IN_RANGE_PAIRS:
            pairs = unpinned + in_range_pair_bound(pinned, self.radio_range)
        if not pairs <= MAX_IN_RANGE_PAIRS:
            raise ConfigError(
                "node_count",
                f"node pairs in radio range (pinned ones counted from their cells, "
                f"the rest as the share of the grid in range) must be "
                f"<= {MAX_IN_RANGE_PAIRS} expected pairs in range, got {pairs:.6g}",
            )
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
        for (u, v), p in self.link_loss.items():
            key = f"loss.{u}.{v}"
            if not 0.0 <= p <= 1.0:
                raise ConfigError(key, f"must be in [0, 1], got {p}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count) or u == v:
                raise ConfigError(key, "link endpoints must be distinct node ids")
        if not (0.0 <= self.sink_x <= self.grid_width):
            raise ConfigError("sink.x", "sink outside the grid")
        if not (0.0 <= self.sink_y <= self.grid_height):
            raise ConfigError("sink.y", "sink outside the grid")
        # sources counted without source_ids(), which lists every id
        sources = (
            self.node_count - 1 if self.sources is None else len(set(self.sources))
        )
        # per class, so a zero duration expects 0 packets at any rates
        per_source = self.rate_rt * self.duration + self.rate_nrt * self.duration
        expected = per_source * sources
        if not expected <= MAX_EXPECTED_PACKETS:
            raise ConfigError(
                "rate.rt" if self.rate_rt >= self.rate_nrt else "rate.nrt",
                f"(rate.rt x duration + rate.nrt x duration) x sources must be <= "
                f"{MAX_EXPECTED_PACKETS} expected packets, got {expected}",
            )
        buckets = self.duration / self.timeline_bucket
        if not buckets <= MAX_TIMELINE_BUCKETS:
            raise ConfigError(
                "timeline_bucket",
                f"duration / timeline_bucket must be <= {MAX_TIMELINE_BUCKETS}, "
                f"got {buckets}",
            )
        try:
            service = self.packet_bits / self.bandwidth
        except OverflowError:
            service = math.inf
        if not math.isfinite(service):
            raise ConfigError(
                "packet_bits/radio.bandwidth",
                f"service time must be finite, got {service}",
            )
        # the smallest budget that every creation time up to the horizon
        # can add to and still end later than it started
        least = math.ulp(self.duration) / 2.0
        for key, budget in (
            ("deadline.rt", self.deadline_rt),
            ("deadline.nrt", self.deadline_nrt),
        ):
            if not budget > least:
                raise ConfigError(
                    key, f"must be > {least!r}, half an ulp of duration, got {budget}"
                )

    def radio_params(self) -> RadioParams:
        return RadioParams.from_table_units(
            self.e_elec_nj, self.eps_fs_pj, self.eps_amp_pj, self.bandwidth
        )

    def weights(self) -> CostWeights:
        return CostWeights(self.alpha, self.beta, self.gamma)

    def timeline_bucket_count(self) -> int:
        """Rows of timeline.csv per seed: duration / timeline_bucket rounded
        up, except that a quotient that rounding left at most 2^-50 of itself
        above a whole number counts as that number."""
        buckets = self.duration / self.timeline_bucket
        return max(1, math.ceil(buckets * (1 - 2**-50)))

    def timeline_points(self) -> list[float]:
        """The times timeline.csv reports at, one per row, in ascending
        order: each bucket's end but the last, then the duration."""
        bucket = self.timeline_bucket
        ends = [(i + 1) * bucket for i in range(self.timeline_bucket_count() - 1)]
        return ends + [self.duration]

    def loss_for(self, u: int, v: int) -> float:
        return self.link_loss.get((u, v), self.loss)

    def source_ids(self) -> list[int]:
        if self.sources is None:
            return list(range(1, self.node_count))
        return sorted(set(self.sources))


_SCALAR_KEYS = {
    f.metadata["key"]: (f.name, f.metadata["parse"])
    for f in fields(ScenarioConfig)
    if "key" in f.metadata
}


def parse_config(text: str, **overrides: object) -> ScenarioConfig:
    """Parse scenario text into a validated config with defaults filled in.

    `overrides` (field name -> value) take the place of the text's values
    before the defaults derived from them, such as timeline_bucket, resolve.
    """
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
    values.update(overrides)
    return ScenarioConfig(**values)


def load_config(path: str, **overrides: object) -> ScenarioConfig:
    """Read and parse a scenario file; see parse_config for `overrides`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), **overrides)


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
