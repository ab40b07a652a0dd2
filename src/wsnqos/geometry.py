"""Node placement geometry, the allowed-neighbor region, and hop estimation.

A node may only forward to neighbors that are inside its radio range AND no
farther from the sink than itself (the intersection of the sender's radio
disk with the sink-centered disk through the sender). That region's area,
divided by the number of neighbors inside it, gives an estimate of the
spacing between relays and hence of the number of hops left on a straight
path to the sink.

`Topology` finds each sender's allowed neighbors through a uniform cell grid
whose cell side is the radio range: every node sits in one cell, the index
maps each occupied cell to its nodes, and a sender checks only the nodes in
the cells its radio disk can touch. The allowed-neighbor predicate still
decides every pair, so the neighbor lists are those of an all-pairs scan,
at O(N) pair checks for a fixed node density instead of O(N^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class NoNeighborsError(ValueError):
    """Hop-spacing estimate requested with zero neighbors in the region."""


@dataclass(frozen=True)
class Position:
    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def is_allowed_neighbor(
    sender: Position, candidate: Position, sink: Position, radio_range: float
) -> bool:
    """True iff candidate is in radio reach and not farther from the sink.

    The sender itself never qualifies.
    """
    if candidate.x == sender.x and candidate.y == sender.y:
        return False
    return (
        distance(sender, candidate) <= radio_range
        and distance(candidate, sink) <= distance(sender, sink)
    )


def circle_intersection_area(r1: float, r2: float, d: float) -> float:
    """Area of the lens formed by two circles with center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    d1 = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    d2 = d - d1
    # clamp the acos arguments against round-off at tangency
    a1 = max(-1.0, min(1.0, d1 / r1))
    a2 = max(-1.0, min(1.0, d2 / r2))
    seg1 = r1 * r1 * math.acos(a1) - d1 * math.sqrt(max(r1 * r1 - d1 * d1, 0.0))
    seg2 = r2 * r2 * math.acos(a2) - d2 * math.sqrt(max(r2 * r2 - d2 * d2, 0.0))
    return seg1 + seg2


def allowed_area(sender: Position, sink: Position, radio_range: float) -> float:
    """Area of the sender's allowed-neighbor region.

    Intersection of disk(sender, radio_range) with disk(sink, |sender-sink|);
    requires the sender not to sit exactly on the sink.
    """
    d = distance(sender, sink)
    if d <= 0.0:
        raise ValueError("sender and sink must not coincide")
    return circle_intersection_area(radio_range, d, d)


def delta(area: float, neighbor_count: int) -> float:
    """Estimated spacing between relays: sqrt(area / neighbor_count)."""
    if neighbor_count <= 0:
        raise NoNeighborsError("neighbor_count must be > 0")
    return math.sqrt(area / neighbor_count)


def hops_linear(sender: Position, sink: Position, spacing: float) -> int:
    """Hops of a straight path to the sink at the given relay spacing.

    Ceiling of distance/spacing, never less than one hop.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be > 0")
    return max(1, math.ceil(distance(sender, sink) / spacing))


def _cell_span(u: float) -> range:
    """Cell indices along one axis that a sender at cell coordinate u reaches.

    u = fl(x / c) for the cell side c >= max(r, 1e-8), and eps = 2**-53.
    A candidate at x' that passes the predicate has
    hypot(fl(x - x'), fl(y - y')) <= r, and math.hypot errs by under one
    ulp, so |x - x'| <= r * (1 + 5 eps) <= c * (1 + 5 eps). Each division
    by c adds at most eps * |x / c|, so |u - u'| <= 1 + eps * (10 + 4 |u|),
    plus subnormal round-off under 1e-300. The margin 1e-9 * max(1, |u|)
    exceeds that, and the rounding of u +- reach, by over five orders of
    magnitude, and floor is monotone, so floor(u') lies in
    [floor(u - reach), floor(u + reach)]. That is the sender's cell and its
    two neighbors, plus one more only when u is within the margin of a cell
    edge: a bare 3-cell span can miss an in-range candidate that rounding
    put two cells away.
    """
    reach = 1.0 + 1e-9 * max(1.0, abs(u))
    return range(math.floor(u - reach), math.floor(u + reach) + 1)


@dataclass(frozen=True)
class Topology:
    """Immutable node placement: id -> position, plus sink id and radio range."""

    positions: dict[int, Position]
    sink: int
    radio_range: float
    _sink_dist: dict[int, float] = field(init=False, repr=False, compare=False)
    _cell: float = field(init=False, repr=False, compare=False)
    # occupied cell (floor(x / cell), floor(y / cell)) -> [(id, position)];
    # keyed by occupied cell so it holds at most N entries whatever the grid
    _cells: dict[tuple[int, int], list[tuple[int, Position]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.sink not in self.positions:
            raise ValueError(f"sink id {self.sink} has no position")
        if not self.radio_range > 0.0:
            raise ValueError("radio_range must be > 0")
        sink_pos = self.positions[self.sink]
        object.__setattr__(
            self,
            "_sink_dist",
            {nid: distance(p, sink_pos) for nid, p in self.positions.items()},
        )
        extent = 1.0
        for nid, p in self.positions.items():
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"node {nid} has a non-finite position {p}")
            extent = max(extent, abs(p.x), abs(p.y))
        # The cell side is the radio range, widened only for a range under
        # 1e-8 of max(1, largest |coordinate|). Then |x / side| <= 1e8, so
        # the margin in _cell_span stays under 0.1 cell, and subnormal
        # round-off is far below it. Any side of at least the range keeps
        # the argument in _cell_span.
        cell = max(self.radio_range, 1e-8 * extent)
        cells: dict[tuple[int, int], list[tuple[int, Position]]] = {}
        for nid, p in self.positions.items():
            key = (math.floor(p.x / cell), math.floor(p.y / cell))
            cells.setdefault(key, []).append((nid, p))
        object.__setattr__(self, "_cell", cell)
        object.__setattr__(self, "_cells", cells)

    def distance_to_sink(self, node_id: int) -> float:
        return self._sink_dist[node_id]

    def allowed_neighbor_ids(self, sender: int) -> list[int]:
        """Ids (sorted) inside the sender's allowed region, sender excluded."""
        sender_pos = self.positions[sender]
        sink_pos = self.positions[self.sink]
        r = self.radio_range
        cell = self._cell
        cells = self._cells
        # the same distance(p, sink) floats the predicate computes, so a
        # candidate farther from the sink is settled without calling it
        sink_dist = self._sink_dist
        limit = sink_dist[sender]
        ys = _cell_span(sender_pos.y / cell)
        found = []
        for cx in _cell_span(sender_pos.x / cell):
            for cy in ys:
                for nid, pos in cells.get((cx, cy), ()):
                    if (
                        nid != sender
                        and sink_dist[nid] <= limit
                        and is_allowed_neighbor(sender_pos, pos, sink_pos, r)
                    ):
                        found.append(nid)
        found.sort()
        return found
