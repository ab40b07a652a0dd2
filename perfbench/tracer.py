"""Per-layer spans and counters, recorded from outside the program.

`Tracer` replaces each wsnqos module's entry points with a wrapper, at the
name the caller looks up: a module global such as `wsnqos.engine.tx_energy`,
a class attribute such as `LinkStats.record_outcome`, or the engine's
`heapq` reference. Every call therefore passes a wrapper, and `uninstall`
puts the originals back, so untraced runs in the same process are not
slowed.

A span records its name and its parent span. A span's self time is its
duration minus the durations of its child spans, so `queueing` time spent
inside a `routing.decision` is not counted as routing. Spans are aggregated
per (name, parent) as they close rather than kept one by one; only routing
decision durations are kept, for their percentiles.
"""

from __future__ import annotations

import math
import time
import types
from collections import Counter, defaultdict

import numpy as np

from wsnqos import cli, config, energy, engine, geometry, linkest, node, queueing, routing

UNITS = {
    "routing.decisions": "count",
    "routing.candidates_per_decision": "count/decision",
    "routing.decision_us_p50": "us",
    "routing.decision_us_p99": "us",
    "routing.self_s": "s",
    "queueing.params_built": "count",
    "queueing.wait_calls": "count",
    "queueing.unstable": "count",
    "queueing.self_s": "s",
    "engine.events": "count",
    "engine.calendar_s": "s",
    "engine.peak_calendar": "count",
    "engine.self_s": "s",
    "engine.traffic_gen_s": "s",
    "engine.arrivals_held": "count",
    "geometry.topology_s": "s",
    "geometry.pair_checks": "count",
    "geometry.neighbors_mean": "count/node",
    "geometry.self_s": "s",
    "linkest.records": "count",
    "linkest.prr_reads": "count",
    "linkest.loss_ratio": "ratio",
    "linkest.links": "count",
    "linkest.self_s": "s",
    "energy.tx_calls": "count",
    "energy.debits": "count",
    "energy.deaths": "count",
    "energy.self_s": "s",
    "node.enqueues": "count",
    "node.expire_scans": "count",
    "node.expired": "count",
    "node.rate_updates": "count",
    "node.self_s": "s",
    "config.parse_s": "s",
    "cli.output_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Host-time per-layer metrics; the rest are counts and ratios that repeat
# exactly for a given (scenario, seed).
TIME_METRICS = tuple(name for name, unit in UNITS.items() if unit in ("s", "us"))


class Tracer:
    """Installs span and counter wrappers; use as a context manager."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        # (name, parent name) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.decision_s: list[float] = []
        self.peak_calendar = 0
        self._stack: list[list] = [["root", 0.0]]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, count=None, on_result=None, durations=None):
        """Wrap fn in a span; optionally count calls and inspect results."""
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                agg = spans[(name, parent[0])]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if durations is not None:
                    durations.append(elapsed)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self._span(name, getattr(owner, attr), **kw))

    def install(self) -> None:
        counts = self.counts
        wrap = self._wrap

        # config and cli: the harness calls these through their modules
        wrap(config, "parse_config", "config.parse")
        for attr in ("metrics_row", "timeline_rows", "write_csv"):
            wrap(cli, attr, "cli.output")

        # engine
        sim = engine.Simulation
        wrap(sim, "__init__", "engine.setup")
        wrap(sim, "run", "engine.loop")

        def note_calendar(args, _result):
            self.peak_calendar = max(self.peak_calendar, len(args[0]))

        self._patch(
            engine,
            "heapq",
            types.SimpleNamespace(
                heappush=self._span(
                    "engine.calendar", engine.heapq.heappush, on_result=note_calendar
                ),
                heappop=self._span(
                    "engine.calendar", engine.heapq.heappop, count="engine.events"
                ),
            ),
        )

        def note_arrivals(_args, result):
            counts["engine.arrivals_held"] += len(result)

        wrap(engine, "stream_rng", "engine.traffic_gen")
        wrap(engine, "poisson_arrival_times", "engine.traffic_gen", on_result=note_arrivals)

        # routing
        wrap(sim, "_route", "routing.decision", count="routing.decisions",
             durations=self.decision_s)

        def note_candidates(args, _result):
            counts["routing.candidates"] += len(args[2])

        wrap(engine, "build_neighbor_table", "routing", on_result=note_candidates)
        for attr in ("select_next_hop", "min_finite_delay", "predictive_drop_check"):
            wrap(engine, attr, "routing")
        wrap(routing.NeighborView, "__init__", "routing")

        # queueing
        for cls in (queueing.QueueModelParams, queueing.ClassLoad):
            wrap(cls, "__init__", "queueing", count="queueing.params_built")
        for attr in ("wait_rt", "wait_nrt"):
            self._patch(
                routing,
                attr,
                self._span(
                    "queueing",
                    self._count_raises(getattr(routing, attr), queueing.UnstableError,
                                       "queueing.unstable"),
                    count="queueing.wait_calls",
                ),
            )

        # geometry
        topo = geometry.Topology

        def note_neighbors(_args, result):
            counts["geometry.senders"] += 1
            counts["geometry.neighbors"] += len(result)

        wrap(topo, "__init__", "geometry.topology")
        wrap(topo, "allowed_neighbor_ids", "geometry.topology", on_result=note_neighbors)
        # a plain counter: it runs N^2 times inside allowed_neighbor_ids, whose
        # span already holds its time
        self._patch(geometry, "is_allowed_neighbor",
                    self._counted(geometry.is_allowed_neighbor, "geometry.pair_checks"))
        wrap(topo, "distance_to_sink", "geometry")
        for attr in ("distance", "allowed_area", "delta"):
            wrap(engine, attr, "geometry")
        wrap(routing, "hops_linear", "geometry")

        # energy
        battery = energy.Battery
        wrap(engine, "tx_energy", "energy", count="energy.tx_calls")
        wrap(engine, "rx_energy", "energy")
        wrap(battery, "__init__", "energy")
        self._patch(battery, "debit", self._span(
            "energy", self._count_deaths(battery.debit), count="energy.debits"))
        self._patch(battery, "residual",
                    property(self._span("energy", battery.residual.fget)))

        # linkest
        stats = linkest.LinkStats

        def note_outcome(args, _result):
            if not args[1]:
                counts["linkest.false_outcomes"] += 1

        wrap(stats, "__init__", "linkest", count="linkest.links")
        wrap(stats, "record_outcome", "linkest", count="linkest.records",
             on_result=note_outcome)
        wrap(stats, "prr", "linkest", count="linkest.prr_reads")

        # node
        wrap(engine, "classify_enqueue", "node", count="node.enqueues")

        def note_expired(_args, result):
            counts["node.expired"] += len(result)

        wrap(engine, "expire_drops", "node", count="node.expire_scans",
             on_result=note_expired)
        for attr in ("dequeue_next", "service_time"):
            wrap(engine, attr, "node")
        rate = node.RateEstimator
        wrap(rate, "observe", "node", count="node.rate_updates")
        wrap(rate, "rate_at", "node")
        for cls in (rate, node.Packet, node.NodeQueues):
            wrap(cls, "__init__", "node")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _counted(self, fn, key: str):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _count_raises(self, fn, error: type[Exception], key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except error:
                counts[key] += 1
                raise

        return wrapper

    def _count_deaths(self, debit):
        counts = self.counts

        def wrapper(battery, amount):
            was_alive = battery.alive
            drained = debit(battery, amount)
            if was_alive and not battery.alive:
                counts["energy.deaths"] += 1
            return drained

        return wrapper

    # -- results ---------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(agg[2] for (name, _p), agg in self.spans.items() if name in names)

    def inclusive_s(self, name: str) -> float:
        """Total time of the outermost spans of this name."""
        return sum(
            agg[1] for (n, parent), agg in self.spans.items() if n == name and parent != name
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of one traced workload run, without the overhead ratio."""
        c = self.counts
        decisions = c["routing.decisions"]
        decision_us = np.asarray(self.decision_s) * 1e6
        p50, p99 = (
            np.percentile(decision_us, [50, 99]) if decisions else (math.nan, math.nan)
        )
        records = c["linkest.records"]
        senders = c["geometry.senders"]
        return {
            "routing.decisions": decisions,
            "routing.candidates_per_decision": (
                c["routing.candidates"] / decisions if decisions else 0.0
            ),
            "routing.decision_us_p50": float(p50),
            "routing.decision_us_p99": float(p99),
            "routing.self_s": self.self_s("routing.decision", "routing"),
            "queueing.params_built": c["queueing.params_built"],
            "queueing.wait_calls": c["queueing.wait_calls"],
            "queueing.unstable": c["queueing.unstable"],
            "queueing.self_s": self.self_s("queueing"),
            "engine.events": c["engine.events"],
            "engine.calendar_s": self.inclusive_s("engine.calendar"),
            "engine.peak_calendar": self.peak_calendar,
            "engine.self_s": self.self_s("engine.loop"),
            "engine.traffic_gen_s": self.inclusive_s("engine.traffic_gen"),
            "engine.arrivals_held": c["engine.arrivals_held"],
            "geometry.topology_s": self.inclusive_s("geometry.topology"),
            "geometry.pair_checks": c["geometry.pair_checks"],
            "geometry.neighbors_mean": c["geometry.neighbors"] / senders if senders else 0.0,
            "geometry.self_s": self.self_s("geometry.topology", "geometry"),
            "linkest.records": records,
            "linkest.prr_reads": c["linkest.prr_reads"],
            "linkest.loss_ratio": c["linkest.false_outcomes"] / records if records else 0.0,
            "linkest.links": c["linkest.links"],
            "linkest.self_s": self.self_s("linkest"),
            "energy.tx_calls": c["energy.tx_calls"],
            "energy.debits": c["energy.debits"],
            "energy.deaths": c["energy.deaths"],
            "energy.self_s": self.self_s("energy"),
            "node.enqueues": c["node.enqueues"],
            "node.expire_scans": c["node.expire_scans"],
            "node.expired": c["node.expired"],
            "node.rate_updates": c["node.rate_updates"],
            "node.self_s": self.self_s("node"),
            "config.parse_s": self.inclusive_s("config.parse"),
            "cli.output_s": self.inclusive_s("cli.output"),
        }


def identity_errors(layers: dict[str, float], m: engine.Metrics) -> list[str]:
    """Disagreements between traced counts and the program's own counters."""
    errors = []
    routed = sum(m.wait_count.values())
    refused = m.drop_count(engine.DropCause.NO_ROUTE) + m.drop_count(
        engine.DropCause.PREDICTIVE
    )
    if layers["routing.decisions"] != routed + refused:
        errors.append(
            f"routing.decisions {layers['routing.decisions']} != "
            f"wait_count {routed} + no_route/predictive drops {refused}"
        )
    tx = sum(m.tx_by_node.values())
    if layers["linkest.records"] != tx:
        errors.append(f"linkest.records {layers['linkest.records']} != tx_by_node {tx}")
    return errors
