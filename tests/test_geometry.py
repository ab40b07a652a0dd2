import inspect
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wsnqos import geometry
from wsnqos.config import SINK_ID, ScenarioConfig
from wsnqos.engine import Simulation
from wsnqos.geometry import (
    NoNeighborsError,
    Position,
    Topology,
    allowed_area,
    circle_intersection_area,
    delta,
    distance,
    hops_linear,
    in_range_pair_bound,
    is_allowed_neighbor,
)


class TestDistance:
    def test_zero(self):
        assert distance(Position(0, 0), Position(0, 0)) == 0.0

    def test_pythagorean(self):
        assert distance(Position(0, 0), Position(3, 4)) == 5.0

    def test_grid_diagonal(self):
        d = distance(Position(0, 0), Position(1000, 1000))
        assert d == pytest.approx(1000 * math.sqrt(2))


class TestAllowedNeighbor:
    SINK = Position(0.0, 0.0)

    def test_candidate_at_sink(self):
        sender = Position(50.0, 0.0)
        assert is_allowed_neighbor(sender, self.SINK, self.SINK, 80.0)

    def test_candidate_farther_from_sink(self):
        sender = Position(50.0, 0.0)
        behind = Position(90.0, 0.0)
        assert not is_allowed_neighbor(sender, behind, self.SINK, 80.0)

    def test_candidate_out_of_radio_reach(self):
        sender = Position(200.0, 0.0)
        closer = Position(90.0, 0.0)
        assert not is_allowed_neighbor(sender, closer, self.SINK, 80.0)

    def test_sender_itself_excluded(self):
        sender = Position(50.0, 0.0)
        assert not is_allowed_neighbor(sender, sender, self.SINK, 80.0)

    @given(
        sx=st.floats(-100, 100),
        sy=st.floats(-100, 100),
        cx=st.floats(-100, 100),
        cy=st.floats(-100, 100),
        rng=st.floats(1.0, 150.0),
    )
    def test_matches_two_disk_membership(self, sx, sy, cx, cy, rng):
        sender, cand = Position(sx, sy), Position(cx, cy)
        expected = (
            cand != sender
            and math.hypot(cx - sx, cy - sy) <= rng
            and math.hypot(cx, cy) < math.hypot(sx, sy)
        )
        assert is_allowed_neighbor(sender, cand, self.SINK, rng) == expected


def lens_area_monte_carlo(r1, r2, d, samples=200_000, seed=17):
    """Independent check: rejection sampling over the smaller disk's bbox."""
    rng = np.random.default_rng(seed)
    r_small = min(r1, r2)
    # circle 1 at origin, circle 2 at (d, 0); center the box on the smaller one
    cx = 0.0 if r1 <= r2 else d
    xs = rng.uniform(cx - r_small, cx + r_small, samples)
    ys = rng.uniform(-r_small, r_small, samples)
    inside = (xs**2 + ys**2 <= r1**2) & ((xs - d) ** 2 + ys**2 <= r2**2)
    return inside.mean() * (2 * r_small) ** 2


class TestLensArea:
    def test_disjoint(self):
        assert circle_intersection_area(1.0, 1.0, 3.0) == 0.0

    def test_coincident(self):
        assert circle_intersection_area(2.0, 2.0, 0.0) == pytest.approx(math.pi * 4.0)

    def test_contained(self):
        assert circle_intersection_area(5.0, 1.0, 2.0) == pytest.approx(math.pi)

    def test_unit_circles_at_unit_distance(self):
        expected = 2 * math.pi / 3 - math.sqrt(3) / 2
        assert circle_intersection_area(1.0, 1.0, 1.0) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "r1,r2,d",
        [(1.0, 1.0, 1.0), (2.0, 1.5, 1.0), (3.0, 1.0, 2.5), (1.0, 4.0, 3.2)],
    )
    def test_against_monte_carlo(self, r1, r2, d):
        analytic = circle_intersection_area(r1, r2, d)
        estimate = lens_area_monte_carlo(r1, r2, d)
        assert estimate == pytest.approx(analytic, rel=0.02)


def min_max_lens_area(r1, r2, d):
    """circle_intersection_area as it was written with min() and max()."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    d1 = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    d2 = d - d1
    a1 = max(-1.0, min(1.0, d1 / r1))
    a2 = max(-1.0, min(1.0, d2 / r2))
    seg1 = r1 * r1 * math.acos(a1) - d1 * math.sqrt(max(r1 * r1 - d1 * d1, 0.0))
    seg2 = r2 * r2 * math.acos(a2) - d2 * math.sqrt(max(r2 * r2 - d2 * d2, 0.0))
    return seg1 + seg2


def same_float(a, b):
    """Bit for bit as values: both NaN, or equal with the same sign."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ArithmeticError as exc:
        return ("raises", type(exc))


def same_outcome(a, b):
    if a[0] == "raises" or b[0] == "raises":
        return a == b
    return same_float(a[1], b[1])


SPECIAL = [
    math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 2.0, 0.5,
    math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
    math.nextafter(-1.0, -2.0), math.nextafter(-1.0, 0.0),
    5e-324, -5e-324, 1e308, -1e308,
]
any_float = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True))


class TestLensAreaClamps:
    """circle_intersection_area clamps with compares; each one gives the
    float that the min() or max() call it replaced gives."""

    # each compare as circle_intersection_area writes it, with the call it
    # replaced
    CLAMPS = [
        ("(a1 if a1 > -1.0 else -1.0) if a1 < 1.0 else 1.0", "a1",
         lambda v: max(-1.0, min(1.0, v))),
        ("(a2 if a2 > -1.0 else -1.0) if a2 < 1.0 else 1.0", "a2",
         lambda v: max(-1.0, min(1.0, v))),
        ("0.0 if h1 < 0.0 else h1", "h1", lambda h: max(h, 0.0)),
        ("0.0 if h2 < 0.0 else h2", "h2", lambda h: max(h, 0.0)),
    ]

    def test_the_compares_are_the_functions_own(self):
        source = inspect.getsource(circle_intersection_area)
        for expr, _name, _call in self.CLAMPS:
            assert expr in source
        assert "r2 if r2 < r1 else r1" in source
        assert not {"min", "max"} & set(circle_intersection_area.__code__.co_names)

    @settings(max_examples=300, deadline=None)
    @given(v=any_float)
    def test_each_compare_is_its_call(self, v):
        for expr, name, call in self.CLAMPS:
            compare = eval(f"lambda {name}: {expr}")
            assert same_float(compare(v), call(v)), (expr, v)

    @settings(max_examples=300, deadline=None)
    @given(r1=any_float, r2=any_float)
    def test_the_radius_compare_is_min(self, r1, r2):
        assert same_float(r2 if r2 < r1 else r1, min(r1, r2))

    @settings(max_examples=500, deadline=None)
    @given(r1=any_float, r2=any_float, d=any_float)
    def test_area_is_the_min_max_area_bit_for_bit(self, r1, r2, d):
        assert same_outcome(
            outcome(circle_intersection_area, r1, r2, d),
            outcome(min_max_lens_area, r1, r2, d),
        )

    @settings(max_examples=500, deadline=None)
    @given(
        r1=st.floats(1e-6, 1e6),
        r2=st.floats(1e-6, 1e6),
        edge=st.sampled_from(["outer", "inner"]),
        ulps=st.integers(-3, 3),
    )
    def test_area_at_tangency_is_the_min_max_area(self, r1, r2, edge, ulps):
        # d within a few ulps of external (r1 + r2) or internal (|r1 - r2|)
        # tangency, where round-off pushes the acos argument past +-1 and
        # the square root's argument below 0
        d = r1 + r2 if edge == "outer" else abs(r1 - r2)
        for _ in range(abs(ulps)):
            d = math.nextafter(d, math.inf if ulps > 0 else -math.inf)
        assert same_outcome(
            outcome(circle_intersection_area, r1, r2, d),
            outcome(min_max_lens_area, r1, r2, d),
        )

    @settings(max_examples=500, deadline=None)
    @given(d=st.floats(1e-6, 1e6), ulps=st.integers(-3, 3))
    def test_allowed_area_at_containment_is_the_min_max_area(self, d, ulps):
        # the allowed area's own lens, circle_intersection_area(r, d, d),
        # at a range r within a few ulps of 2d, where the sink disk is
        # just contained in the radio disk
        r = 2.0 * d
        for _ in range(abs(ulps)):
            r = math.nextafter(r, math.inf if ulps > 0 else -math.inf)
        assert same_outcome(
            outcome(circle_intersection_area, r, d, d),
            outcome(min_max_lens_area, r, d, d),
        )


class TestAllowedArea:
    def test_sink_disk_contained(self):
        # range at least twice the sink distance swallows the whole sink disk
        sender, sink = Position(10.0, 0.0), Position(0.0, 0.0)
        assert allowed_area(sender, sink, 25.0) == pytest.approx(math.pi * 100.0)

    def test_sender_on_sink_rejected(self):
        p = Position(3.0, 3.0)
        with pytest.raises(ValueError):
            allowed_area(p, p, 10.0)

    def test_equals_lens_of_the_two_disks(self):
        sender, sink = Position(60.0, 80.0), Position(0.0, 0.0)  # dist 100
        assert allowed_area(sender, sink, 70.0) == pytest.approx(
            circle_intersection_area(70.0, 100.0, 100.0)
        )

    def test_allowed_points_lie_in_both_disks(self):
        sender, sink, rng_m = Position(120.0, 0.0), Position(0.0, 0.0), 90.0
        rng = np.random.default_rng(5)
        for _ in range(500):
            p = Position(rng.uniform(-50, 250), rng.uniform(-150, 150))
            if is_allowed_neighbor(sender, p, sink, rng_m):
                assert distance(p, sender) <= rng_m
                assert distance(p, sink) < distance(sender, sink)


class TestDelta:
    def test_exact_square(self):
        assert delta(100.0, 4) == 5.0

    def test_single_neighbor(self):
        assert delta(100.0, 1) == 10.0

    def test_lens_spacing(self):
        assert delta(1.2284, 3) == pytest.approx(0.640, abs=1e-3)

    def test_no_neighbors(self):
        with pytest.raises(NoNeighborsError):
            delta(100.0, 0)


class TestHopsLinear:
    SINK = Position(0.0, 0.0)

    def test_exact_division(self):
        assert hops_linear(Position(50.0, 0.0), self.SINK, 5.0) == 10

    def test_ceiling(self):
        assert hops_linear(Position(50.0, 0.0), self.SINK, 7.0) == 8

    def test_at_least_one_hop(self):
        assert hops_linear(Position(1.0, 0.0), self.SINK, 5.0) == 1

    def test_spacing_must_be_positive(self):
        with pytest.raises(ValueError):
            hops_linear(Position(1.0, 0.0), self.SINK, 0.0)


class TestTopology:
    def make(self):
        positions = {
            0: Position(0.0, 0.0),
            1: Position(60.0, 0.0),
            2: Position(120.0, 0.0),
            3: Position(180.0, 0.0),
            4: Position(240.0, 0.0),
        }
        return Topology(positions, sink=0, radio_range=87.7)

    def test_line_allowed_sets(self):
        topo = self.make()
        # node 2 reaches 1 and 3; only 1 is closer to the sink
        assert topo.allowed_neighbor_ids(2) == [1]
        assert topo.allowed_neighbor_ids(1) == [0]
        assert topo.allowed_neighbor_ids(4) == [3]

    def test_allowed_matches_brute_force(self):
        topo = self.make()
        sink_pos = topo.positions[0]
        for sender in (1, 2, 3, 4):
            expected = [
                nid
                for nid, pos in sorted(topo.positions.items())
                if distance(topo.positions[sender], pos) <= topo.radio_range
                and distance(pos, sink_pos) < distance(topo.positions[sender], sink_pos)
            ]
            assert topo.allowed_neighbor_ids(sender) == expected

    def test_distance_to_sink(self):
        topo = self.make()
        assert topo.distance_to_sink(3) == pytest.approx(180.0)

    def test_missing_sink_rejected(self):
        with pytest.raises(ValueError):
            Topology({1: Position(0, 0)}, sink=0, radio_range=10.0)

    @pytest.mark.parametrize("ids", [(0, 2), (1, 2)])
    def test_ids_other_than_zero_to_n_rejected(self, ids):
        positions = {nid: Position(float(nid), 0.0) for nid in ids}
        with pytest.raises(ValueError, match="node ids"):
            Topology(positions, sink=2, radio_range=10.0)

    @pytest.mark.parametrize("nid", [-1, 5])
    def test_ids_outside_the_nodes_are_key_errors(self, nid):
        # -1 must not wrap to the last node
        topo = self.make()
        with pytest.raises(KeyError):
            topo.distance_to_sink(nid)
        with pytest.raises(KeyError):
            topo.allowed_neighbor_ids(nid)

    def test_allowed_table_is_read_only(self):
        start, ids = self.make().allowed_table()
        assert not start.flags.writeable and not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[0] = 4


def all_pairs_allowed(topo, sender):
    """The all-pairs scan the cell index replaced, kept as the reference."""
    sender_pos = topo.positions[sender]
    sink_pos = topo.positions[topo.sink]
    return sorted(
        nid
        for nid, pos in topo.positions.items()
        if nid != sender
        and is_allowed_neighbor(sender_pos, pos, sink_pos, topo.radio_range)
    )


def assert_matches_all_pairs(points, radio_range, sink=0):
    topo = Topology(
        {nid: Position(x, y) for nid, (x, y) in enumerate(points)}, sink, radio_range
    )
    total = 0
    for sender in topo.positions:
        expected = all_pairs_allowed(topo, sender)
        assert topo.allowed_neighbor_ids(sender) == expected, sender
        total += len(expected)
    return total


def lattice(step, span, origin=(0.0, 0.0)):
    """Points on exact multiples of step, a range apart for step = r."""
    ox, oy = origin
    return [
        (ox + i * step, oy + j * step)
        for i in range(-span, span + 1)
        for j in range(-span, span + 1)
    ]


# drawn nodes (x, y, ulps): a float coordinate is used as is, a pair
# (k, on_side) is k times the cell side (on_side) or k times r, moved by
# `ulps` ulps
cell_multiple = st.tuples(st.integers(-20, 20), st.booleans())
layout_nodes = st.lists(
    st.tuples(
        st.one_of(st.floats(-1e3, 1e3), cell_multiple),
        st.one_of(st.floats(-1e3, 1e3), cell_multiple),
        st.integers(-2, 2),
    ),
    min_size=1,
    max_size=40,
)


def layout_points(r, nodes):
    """A node at the origin, then the drawn nodes at radio range r.

    cell_side(r, 1e3) is the layout's cell side: for a range of 1e-3 or
    more it is r * (1 + 2**-20) at any extent these draws reach, and a
    smaller range's layout is given a point at (1e3, 1e3).
    """
    side = geometry.cell_side(r, 1e3)

    def coord(c, ulps):
        if isinstance(c, float):
            return c
        k, on_side = c
        v = k * (side if on_side else r)
        for _ in range(abs(ulps)):
            v = math.nextafter(v, math.copysign(math.inf, ulps))
        return v

    return [(0.0, 0.0)] + [(coord(x, u), coord(y, -u)) for x, y, u in nodes]


class TestCellIndexMatchesAllPairs:
    """Topology.allowed_neighbor_ids against the all-pairs scan; where a test
    says so, in_range_pair_bound too."""

    @pytest.mark.parametrize("on_side", [False, True], ids=["range", "cell_side"])
    @pytest.mark.parametrize("r", [10.0, 0.1, 1.0 / 3.0, 87.70580193070293])
    def test_nodes_on_cell_edges(self, r, on_side):
        # nodes on multiples of the range, a range apart, or on the cells'
        # own edges, multiples of the cell side
        side = geometry.cell_side(r, 1e3)
        step = side if on_side else r
        points = lattice(step, 4)
        # also one ulp either side of each
        points += [(math.nextafter(x, -math.inf), math.nextafter(y, math.inf))
                   for x, y in lattice(step, 2)]
        # the points' extent stays under 1e3, so their cell side is `side`
        assert geometry.cell_side(r, max(map(abs, np.ravel(points)))) == side > r
        assert assert_pair_bound_holds(points, r)[2] > 0

    @pytest.mark.parametrize("r", [5.0, 0.1, 87.70580193070293])
    def test_pairs_exactly_one_range_apart(self, r):
        points = [(0.0, 0.0)]
        for k in (0, 1, 3, 7):
            base = (k * r, -k * r)
            points += [
                base,
                (base[0] + r, base[1]),  # along an axis
                (base[0], base[1] + r),
                (base[0] + 0.6 * r, base[1] + 0.8 * r),  # along a diagonal
                (base[0] - r / math.sqrt(2.0), base[1] - r / math.sqrt(2.0)),
            ]
        assert assert_matches_all_pairs(points, r) > 0
        # the 3-4-5 pair is exactly 5 apart and in range
        topo = Topology({0: Position(10.0, 10.0), 1: Position(3.0, 4.0),
                         2: Position(0.0, 0.0)}, sink=0, radio_range=5.0)
        assert topo.allowed_neighbor_ids(2) == [1]

    def test_range_apart_across_two_cell_boundaries(self):
        # x = -1e-17 sits in cell -1 and x = 10 in cell 1, yet fl(10 + 1e-17)
        # = 10 is in range: a bare 3x3 block around the sender misses it.
        # Nodes 1 and 3 are both 20.0 from the sink, so neither lists the other.
        points = [(20.0, 5.0), (-1e-17, 5.0), (10.0, 5.0), (-1e-300, 5.0)]
        topo = Topology({nid: Position(x, y) for nid, (x, y) in enumerate(points)},
                        sink=0, radio_range=10.0)
        assert topo.allowed_neighbor_ids(1) == [2]
        assert topo.allowed_neighbor_ids(3) == [2]
        assert_matches_all_pairs(points, 10.0)

    def test_coincident_nodes_exclude_each_other(self):
        points = [(0.0, 0.0), (30.0, 40.0), (30.0, 40.0), (30.0, 40.0), (10.0, 10.0)]
        topo = Topology({nid: Position(x, y) for nid, (x, y) in enumerate(points)},
                        sink=0, radio_range=100.0)
        assert topo.allowed_neighbor_ids(1) == [0, 4]
        assert_matches_all_pairs(points, 100.0)

    def test_node_at_the_sink(self):
        points = [(50.0, 50.0), (50.0, 50.0), (60.0, 50.0), (50.0, 140.0)]
        topo = Topology({nid: Position(x, y) for nid, (x, y) in enumerate(points)},
                        sink=0, radio_range=20.0)
        # coincident with the sink, so neither may forward to the other
        assert topo.allowed_neighbor_ids(1) == []
        assert topo.allowed_neighbor_ids(2) == [0, 1]
        assert_matches_all_pairs(points, 20.0)

    def test_range_larger_than_the_grid(self):
        rng = np.random.default_rng(3)
        points = [(float(x), float(y)) for x, y in rng.uniform(0.0, 100.0, (60, 2))]
        topo = Topology({nid: Position(x, y) for nid, (x, y) in enumerate(points)},
                        sink=0, radio_range=1e4)
        # every point sits in one cell, so each reaches all the others
        assert in_range_pair_bound(points, 1e4) == 59 * 60 // 2
        # all in reach: each sender's neighbors are the nodes nearer the sink
        assert assert_matches_all_pairs(points, 1e4) == 59 * 60 // 2

    def test_tiny_range_on_a_huge_grid(self):
        r = 1e-3  # grid / range = 1e7
        points = [(5e3, 5e3)]
        for base in ((1e4, 1e4), (0.0, 1e4), (1234.567, 8765.4321)):
            points += lattice(r, 2, origin=base)
            points += [(base[0] + 0.3 * r, base[1] - 0.9 * r),
                       (math.nextafter(base[0] + r, 0.0), base[1])]
        assert assert_matches_all_pairs(points, r) > 0

    @pytest.mark.parametrize("r", [1e-12, 1e-320])
    def test_range_far_below_the_coordinate_scale(self, r):
        # cells wider than the range keep x / cell finite and few cells per
        # sender; a pair 0.1 * r apart, and one subnormal distance apart,
        # must still be found
        points = [(500.0, 0.0), (500.0, 1e-321), (500.0, 0.0 + 0.1 * r),
                  (1e4, 1e4), (math.nextafter(1e4, 0.0), 1e4), (0.0, 0.0), (2e-321, 0.0)]
        topo = Topology({nid: Position(x, y) for nid, (x, y) in enumerate(points)},
                        sink=0, radio_range=r)
        assert topo.allowed_neighbor_ids(1) == [0]
        assert assert_pair_bound_holds(points, r)[2] >= 1

    def test_negative_coordinates(self):
        rng = np.random.default_rng(11)
        points = [(-250.0, -400.0)]
        points += [(float(x), float(y)) for x, y in rng.uniform(-500.0, 0.0, (150, 2))]
        points += lattice(50.0, 3, origin=(-300.0, -300.0))
        assert assert_matches_all_pairs(points, 50.0) > 0

    @settings(deadline=None)
    @given(r=st.floats(1e-3, 500.0), nodes=layout_nodes, cluster=st.integers(0, 30))
    def test_matches_all_pairs(self, r, nodes, cluster):
        # the cluster puts points within r / 10 of the first drawn one
        points = layout_points(r, nodes)
        x0, y0 = points[1]
        points += [(x0 + i * r / 300, y0 - i * r / 300) for i in range(cluster)]
        assert_pair_bound_holds(points, r)


# drawn layouts for the bulk pass: (x, y, ulps) nodes as in layout_nodes,
# plus a cluster of points within r / 10 of a drawn one and copies of drawn
# points
bulk_layouts = st.tuples(
    layout_nodes,
    st.integers(0, 30),
    st.lists(st.integers(0, 40), max_size=5),
)


def bulk_points(r, layout):
    nodes, cluster, copies = layout
    points = layout_points(r, nodes)
    x0, y0 = points[-1]
    points += [(x0 + i * r / 300, y0 - i * r / 300) for i in range(cluster)]
    points += [points[i % len(points)] for i in copies]
    return points


class TestBulkTablesMatchAllPairs:
    """The one numpy pass that builds every table, against the all-pairs scan,
    with blocks of 1 to 64 candidate pairs so that layouts span many blocks
    and single senders overflow one."""

    @settings(deadline=None)
    @given(r=st.floats(1e-3, 500.0), layout=bulk_layouts, block=st.integers(1, 64))
    def test_layouts_in_blocks(self, r, layout, block):
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            assert_matches_all_pairs(bulk_points(r, layout), r)

    @settings(deadline=None)
    @given(r=st.floats(1e-12, 1e-6), layout=bulk_layouts, block=st.integers(1, 64))
    def test_tiny_ranges_on_widened_cells(self, r, layout, block):
        # coordinates up to 1e3 make cell_side widen the cells past r; the
        # cluster and the cell multiples put pairs in range of each other
        points = bulk_points(r, layout) + [(1e3, 1e3)]
        assert geometry.cell_side(r, 1e3) > r
        with mock.patch.object(geometry, "_BLOCK_PAIRS", block):
            assert_matches_all_pairs(points, r)

    def test_lattice_on_cell_side_multiples(self):
        # every node on a cell corner or one ulp either side of it, some
        # with a partner one range away along an axis
        r = 10.0
        side = geometry.cell_side(r, 1e3)
        assert side > r
        points = lattice(side, 3)
        for step in (-math.inf, math.inf):
            points += [(math.nextafter(x, step), math.nextafter(y, -step))
                       for x, y in lattice(side, 3)]
        points += [(x + r, y) for x, y in lattice(side, 2)]
        points += [(x, y - r) for x, y in lattice(side, 2)]
        # the extent stays under 1e3, so the points' cell side is `side`
        assert geometry.cell_side(r, max(map(abs, np.ravel(points)))) == side
        with mock.patch.object(geometry, "_BLOCK_PAIRS", 7):
            assert assert_matches_all_pairs(points, r) > 0

    def test_a_layout_of_several_default_blocks(self):
        # about 190 candidates per sender: several blocks of _BLOCK_PAIRS
        rng = np.random.default_rng(19)
        points = [(float(x), float(y)) for x, y in rng.uniform(0.0, 100.0, (400, 2))]
        _order, start, stop = geometry._cell_slices(*np.array(points).T, 30.0)
        pairs = int((stop - start).sum())
        assert pairs > 2 * geometry._BLOCK_PAIRS
        assert assert_matches_all_pairs(points, 30.0) > 0


class TestThreeByThreeBlock:
    """Two points in range of each other lie in the same or adjacent cells on
    each axis, so a sender's 3 x 3 block of cells holds every candidate."""

    @settings(deadline=None, max_examples=200)
    @given(
        r=st.one_of(
            st.floats(1e-3, 500.0),
            # widened cells, and a side that overflows to inf
            st.sampled_from([1e-12, 1e-100, 1e-300, 1e-320, 5e-324, 1e308,
                             sys.float_info.max]),
        ),
        extent=st.floats(1.0, 1e12),
        data=st.data(),
    )
    def test_in_range_pairs_are_at_most_one_cell_apart(self, r, extent, data):
        side = geometry.cell_side(r, extent)
        # up to 1e8 cells from the origin, where the cells are widened
        cells = int(extent / side)

        def coord():
            if not (cells and data.draw(st.booleans())):
                return data.draw(st.floats(-extent, extent))
            v = data.draw(st.integers(-cells, cells)) * side
            ulps = data.draw(st.integers(-2, 2))
            for _ in range(abs(ulps)):
                v = math.nextafter(v, math.copysign(math.inf, ulps))
            return v

        a = (coord(), coord())
        dx, dy = data.draw(st.one_of(
            st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r),
                             (0.6 * r, 0.8 * r), (-0.6 * r, -0.8 * r)]),
            st.tuples(st.floats(-r, r), st.floats(-r, r)),
        ))
        b = (a[0] + dx, a[1] + dy)
        assume(distance(Position(*a), Position(*b)) <= r)
        # the side of a layout with both points and others out to `extent`
        side = geometry.cell_side(r, max(extent, *map(abs, a + b)))
        for u, v in zip(a, b):
            assert abs(math.floor(u / side) - math.floor(v / side)) <= 1

    def test_a_range_near_the_largest_float_gives_one_cell(self):
        r = sys.float_info.max
        assert geometry.cell_side(r, 1.0) == math.inf
        points = [(0.0, 0.0), (-1e307, 1e307), (1e307, 5e306), (1.0, -1e307)]
        _order, start, stop = geometry._cell_slices(*np.array(points).T, r)
        assert (stop - start).sum(axis=1).tolist() == [4] * 4
        assert_matches_all_pairs(points, r)


class TestHypotDisagreements:
    """Pairs at which np.hypot and math.hypot fall on opposite sides of the
    range: the table follows math.hypot, the predicate's distance. The sink
    is beyond the candidate, so the candidate is closer to it."""

    def table(self, dx, dy, r):
        positions = {0: Position(2.0 * dx, 2.0 * dy), 1: Position(0.0, 0.0),
                     2: Position(dx, dy)}
        return Topology(positions, sink=0, radio_range=r)

    def test_in_range_by_math_hypot_alone(self):
        dx, dy, r = 61.43358601869798, -95.47789389062397, 113.53463662207236
        assert math.hypot(dx, dy) <= r < np.hypot(dx, dy)
        topo = self.table(dx, dy, r)
        assert topo.allowed_neighbor_ids(1) == [2]
        assert is_allowed_neighbor(topo.positions[1], topo.positions[2],
                                   topo.positions[0], r)

    def test_out_of_range_by_math_hypot_alone(self):
        dx, dy, r = 5.931065029676461, 30.264042625483825, 30.839743974672565
        assert np.hypot(dx, dy) <= r < math.hypot(dx, dy)
        topo = self.table(dx, dy, r)
        assert topo.allowed_neighbor_ids(1) == []
        assert topo.distance_to_sink(2) < topo.distance_to_sink(1)


def pairs_in_range(points, radio_range):
    """Pairs of points within radio_range of each other, by the all-pairs scan."""
    pos = [Position(x, y) for x, y in points]
    return sum(
        distance(a, pos[j]) <= radio_range
        for i, a in enumerate(pos)
        for j in range(i + 1, len(pos))
    )


def assert_pair_bound_holds(points, radio_range):
    """The cell index against the all-pairs scan, and in_range_pair_bound
    against the pairs in range: (bound, pairs in range, allowed entries)."""
    bound = in_range_pair_bound(points, radio_range)
    in_range = pairs_in_range(points, radio_range)
    allowed = assert_matches_all_pairs(points, radio_range)
    # each pair in range gives at most one allowed entry
    assert bound >= in_range >= allowed
    return bound, in_range, allowed


class TestInRangePairBound:
    """in_range_pair_bound against the all-pairs scan, with no pair checks.
    TestCellIndexMatchesAllPairs checks it on its edge, tiny-range and drawn
    layouts."""

    def test_no_pair_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pair was checked")

        monkeypatch.setattr(geometry, "is_allowed_neighbor", refuse)
        monkeypatch.setattr(geometry, "distance", refuse)
        assert in_range_pair_bound([(0.0, 0.0), (1.0, 0.0), (500.0, 0.0)], 10.0) == 1

    def test_clustered_layout_is_counted_in_full(self):
        # 200 points in a 1 m patch, in range of each other, and one far away
        rng = np.random.default_rng(5)
        points = [(float(x), float(y)) for x, y in rng.uniform(100.0, 101.0, (200, 2))]
        points.append((900.0, 900.0))
        assert assert_pair_bound_holds(points, 10.0)[:2] == (199 * 200 // 2,) * 2

    def test_uniform_layout_is_counted_near_its_pairs(self):
        # the default density: 300 points on 1000 m x 1000 m, range 87.7 m
        rng = np.random.default_rng(7)
        points = [(float(x), float(y)) for x, y in rng.uniform(0.0, 1e3, (300, 2))]
        bound, in_range, _allowed = assert_pair_bound_holds(points, 87.70580193070293)
        # a 3 x 3 block of cells covers 9 / pi of a radio disk
        assert bound < 4 * in_range


def test_cell_index_checks_few_pairs(monkeypatch):
    """At the default density, set-up checks O(N) pairs, not N^2."""
    calls = 0
    check = geometry.is_allowed_neighbor

    def counted(*args):
        nonlocal calls
        calls += 1
        return check(*args)

    monkeypatch.setattr(geometry, "is_allowed_neighbor", counted)
    n = 3000
    side = 1000.0 * math.sqrt(n / 300)  # the default 300 nodes per km^2
    sim = Simulation(ScenarioConfig(node_count=n, grid_width=side, grid_height=side,
                                    rate_rt=0.001, rate_nrt=0.001, duration=1.0))
    entries = sum(len(st.allowed) for st in sim.nodes)
    assert entries > n
    assert calls < 0.05 * n * n
    # the table holds one start per node and one id per allowed entry
    start, allowed = sim.topology.allowed_table()
    assert len(start) == n + 1 and len(allowed) == entries
    # each node's neighbour list holds the states of its allowed neighbours;
    # the lists link back to their owners, so repr and == must skip them
    sink = sim.nodes[SINK_ID]
    assert sink.allowed == []
    assert "allowed" not in repr(sink)
    # Simulation.nodes is a list indexed by node id
    assert len(sim.nodes) == n
    for nid, st in enumerate(sim.nodes):
        assert st.node_id == nid
        if nid != SINK_ID:
            assert [s.node_id for s in st.allowed] == sim.topology.allowed_neighbor_ids(nid)
        assert repr(st).startswith(f"NodeState(node_id={nid},")
        assert st == st


def test_non_finite_positions_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Topology({0: Position(0.0, 0.0), 1: Position(math.nan, 1.0)}, 0, 10.0)
    with pytest.raises(ValueError, match="radio_range"):
        Topology({0: Position(0.0, 0.0)}, 0, math.nan)
