"""Node placement geometry, the allowed-neighbor region, and hop estimation.

A node may only forward to neighbors that are inside its radio range AND
closer to the sink than itself (the intersection of the sender's radio disk
with the sink-centered disk through the sender, less that disk's rim). Each
hop then strictly approaches the sink, as in GPSR's greedy mode (Karp &
Kung, MobiCom 2000), so no packet can bounce between two nodes at equal
sink distance. That region's area, divided by the number of neighbors
inside it, gives an estimate of the spacing between relays and hence of
the number of hops left on a straight path to the sink.

`Topology` builds every sender's allowed-neighbor list at construction, in
one numpy pass over a uniform cell grid whose cell side is a little over the
radio range (the cell-list method of Hockney & Eastwood, 1981), so every
node in range of a sender lies in the 3 x 3 block of cells around it. The
nodes are sorted by cell, column first, so the block's three cells in one
column are one slice of that order, found by binary search; only the nodes
in those 3 slices are candidates. The senders go in blocks of a fixed
number of candidate pairs, so the pass's temporaries do not grow with N.
A candidate is kept when it is strictly closer to the sink, by the same
math.hypot distances the predicate compares, and in range by np.hypot. The
two hypot functions can disagree only for a pair within a few ulps of the
range, and every pair near the range is decided by the predicate itself, so
the lists are those of an all-pairs scan, at O(N) candidate pairs for a
fixed node density instead of N^2. `in_range_pair_bound` counts the same
slices to bound the pairs in range without checking any pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    """True iff candidate is in radio reach and closer to the sink.

    The sender itself, and any node at its position, never qualifies.
    """
    return (
        distance(sender, candidate) <= radio_range
        and distance(candidate, sink) < distance(sender, sink)
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


# Candidate pairs one block of senders holds at once in
# _allowed_neighbor_rows: its temporaries take about 60 B per pair, so a block
# holds about 0.5 MB whatever the number of nodes.
_BLOCK_PAIRS = 1 << 13

# np.hypot and math.hypot each err by under one ulp, so they can disagree
# about a pair only when its distance is within a few ulps of the radio
# range. The bulk pass leaves every pair within this share of the range (or
# within _NEAR_FLOOR of it, for a subnormal range) to is_allowed_neighbor.
_NEAR_RANGE = 2.0**-40
_NEAR_FLOOR = 2.0**-1000


def cell_side(radio_range: float, extent: float) -> float:
    """Side of the cell grid for nodes whose coordinates are at most
    `extent` in magnitude: the radio range plus a relative slack of 2**-20,
    widened only for a range under 1e-8 of max(1, extent), so that
    |x / side| <= 1e8.

    Then a candidate in range of a sender lies in the sender's cell or one
    of the eight around it (the cell-list method's rule). With eps = 2**-53,
    a pair that passes the predicate has hypot(fl(x - x'), fl(y - y')) <= r,
    and math.hypot errs by under one ulp, so |x - x'| <= r * (1 + 5 eps),
    which is under side * (1 - 2**-21). u = fl(x / side) and u' each err by
    at most eps * 1e8, about 1.1e-8, plus subnormal round-off under 1e-300,
    so |u - u'| < 1 and floor(u') is within one of floor(u). A range so
    near the largest float that the side overflows to inf puts every point
    in cell 0, where each reaches all the others.
    """
    return max(radio_range * (1.0 + 2.0**-20), 1e-8 * max(1.0, extent))


def _cell_slices(
    xs: np.ndarray, ys: np.ndarray, radio_range: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points (finite, one or more) sorted by cell, and for each point
    the slices of that order that hold its 3 x 3 block of cells:
    (order, start, stop), point p's column k at order[start[p, k]:stop[p, k]].

    Cell (i, j) is keyed (i - i0) * width + (j - j0), which is >= 0 and
    orders the cells by column, then row; i0, j0 and width leave a free
    column and row around the occupied cells. The rows j - 1..j + 1 of one
    column are then one slice of the sorted points, found by binary search.
    Keys stay below 2**63, since |i|, |j| <= 1e8 + 1 (see cell_side).
    """
    extent = float(max(np.abs(xs).max(), np.abs(ys).max()))
    side = cell_side(radio_range, extent)
    i = np.floor(xs / side).astype(np.int64)
    j = np.floor(ys / side).astype(np.int64)
    i0 = int(i.min()) - 1
    j0 = int(j.min()) - 1
    width = int(j.max()) - j0 + 2
    key = (i - i0) * width + (j - j0)
    order = np.argsort(key, kind="stable")
    # each point's own row in the column to its left, its own and its right
    row = key[:, None] + width * np.arange(-1, 2)
    key = key[order]
    start = np.searchsorted(key, row - 1, "left")
    return order, start, np.searchsorted(key, row + 1, "right")


def in_range_pair_bound(points: list[tuple[float, float]], radio_range: float) -> int:
    """An upper bound on the pairs of `points` (one or more, all finite)
    within radio_range of each other, from the occupancy of Topology's cells
    and no pair checks.

    A point can be in range only of the points in its 3 x 3 block of cells,
    so the bound is C(n, 2) for a cell of n points plus n * n' for each two
    cells n and n' that touch, at a side or a corner.
    """
    xy = np.array(points, dtype=float)
    _order, start, stop = _cell_slices(xy[:, 0], xy[:, 1], radio_range)
    reached = int((stop - start).sum())
    # each point's block holds the point itself once, and each other point
    # of a pair that can be in range holds it
    return (reached - len(points)) // 2


def _allowed_neighbor_rows(
    points: list[Position], sink: Position, sink_dist: np.ndarray, radio_range: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every point's allowed neighbors, as places in `points`: (start, rows),
    point i's in ascending order at rows[start[i]:start[i + 1]].

    sink_dist[i] is distance(points[i], sink). The senders go in blocks of
    about _BLOCK_PAIRS candidates, the points in their 3 x 3 blocks of
    cells. A candidate must be strictly closer to the sink, by the same
    floats the predicate compares, and in range by np.hypot, except that a
    pair near the range is decided by is_allowed_neighbor itself.
    """
    n = len(points)
    xs = np.array([p.x for p in points], dtype=float)
    ys = np.array([p.y for p in points], dtype=float)
    order, first, stop = _cell_slices(xs, ys, radio_range)
    # the candidates in cell order, where each slice is contiguous
    cand_x = xs[order]
    cand_y = ys[order]
    cand_dist = sink_dist[order]
    lengths = stop - first
    counts = lengths.sum(axis=1)
    ends = np.cumsum(counts)
    near = radio_range * _NEAR_RANGE + _NEAR_FLOOR
    rows = []
    found = []
    begin = 0
    while begin < n:
        before = int(ends[begin - 1]) if begin else 0
        end = max(begin + 1, int(np.searchsorted(ends, before + _BLOCK_PAIRS, "right")))
        # each candidate's place in the cell order: its slice's start plus
        # its offset in the slice
        seg_len = lengths[begin:end].ravel()
        shift = first[begin:end].ravel() - (np.cumsum(seg_len) - seg_len)
        place = np.arange(int(ends[end - 1]) - before) + np.repeat(shift, seg_len)
        sender = np.repeat(np.arange(begin, end), counts[begin:end])
        closer = cand_dist[place] < sink_dist[sender]
        place = place[closer]
        sender = sender[closer]
        d = np.hypot(xs[sender] - cand_x[place], ys[sender] - cand_y[place])
        inside = d <= radio_range
        for i in np.flatnonzero(np.abs(d - radio_range) <= near).tolist():
            inside[i] = is_allowed_neighbor(
                points[sender[i]], points[order[place[i]]], sink, radio_range
            )
        # senders ascend, so this orders each sender's neighbors
        pair = np.sort(sender[inside] * n + order[place[inside]])
        rows.append(pair % n)
        found.append(np.bincount(pair // n - begin, minlength=end - begin))
        begin = end
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(found), out=start[1:])
    return start, np.concatenate(rows)


class Topology:
    """Node placement: the positions of node ids 0..N-1, plus the sink id
    and the radio range, read-only by convention.

    Every node's allowed neighbors are found once, at construction.
    """

    def __init__(
        self, positions: dict[int, Position], sink: int, radio_range: float
    ) -> None:
        try:
            points = [positions[nid] for nid in range(len(positions))]
        except KeyError:
            raise ValueError(f"node ids must be 0..{len(positions) - 1}") from None
        if sink not in positions:
            raise ValueError(f"sink id {sink} has no position")
        if not radio_range > 0.0:
            raise ValueError("radio_range must be > 0")
        for nid, p in enumerate(points):
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"node {nid} has a non-finite position {p}")
        self.positions = positions
        self.sink = sink
        self.radio_range = radio_range
        sink_pos = positions[sink]
        self._sink_dist = [distance(p, sink_pos) for p in points]
        # node i's allowed neighbor ids, ascending, are
        # _neighbors[_start[i]:_start[i + 1]]
        self._start, self._neighbors = _allowed_neighbor_rows(
            points, sink_pos, np.array(self._sink_dist), radio_range
        )
        self._start.flags.writeable = self._neighbors.flags.writeable = False

    def distance_to_sink(self, node_id: int) -> float:
        if not 0 <= node_id < len(self._sink_dist):
            raise KeyError(node_id)
        return self._sink_dist[node_id]

    def allowed_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's allowed neighbors at once: (start, ids), node i's
        neighbors' ids, ascending, at ids[start[i]:start[i + 1]]. Both arrays
        are the topology's own, and read-only."""
        return self._start, self._neighbors

    def allowed_neighbor_ids(self, sender: int) -> list[int]:
        """Ids (sorted) inside the sender's allowed region, sender excluded."""
        if not 0 <= sender < len(self._sink_dist):
            raise KeyError(sender)
        return self._neighbors[self._start[sender] : self._start[sender + 1]].tolist()
