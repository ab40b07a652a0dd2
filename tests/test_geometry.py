import math

import numpy as np
import pytest
from hypothesis import given, settings
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


def lattice(radio_range, span, origin=(0.0, 0.0)):
    """Points on exact multiples of radio_range: every one on a cell edge."""
    ox, oy = origin
    return [
        (ox + i * radio_range, oy + j * radio_range)
        for i in range(-span, span + 1)
        for j in range(-span, span + 1)
    ]


# drawn nodes (x, y, ulps): a float coordinate is used as is, an integer k
# is the cell multiple k * r moved by `ulps` ulps
layout_nodes = st.lists(
    st.tuples(
        st.one_of(st.floats(-1e3, 1e3), st.integers(-20, 20)),
        st.one_of(st.floats(-1e3, 1e3), st.integers(-20, 20)),
        st.integers(-2, 2),
    ),
    min_size=1,
    max_size=40,
)


def layout_points(r, nodes):
    """A node at the origin, then the drawn nodes at radio range r."""
    def coord(c, ulps):
        if isinstance(c, float):
            return c
        v = c * r
        for _ in range(abs(ulps)):
            v = math.nextafter(v, math.copysign(math.inf, ulps))
        return v

    return [(0.0, 0.0)] + [(coord(x, u), coord(y, -u)) for x, y, u in nodes]


class TestCellIndexMatchesAllPairs:
    """Topology.allowed_neighbor_ids against the all-pairs scan."""

    @pytest.mark.parametrize("r", [10.0, 0.1, 1.0 / 3.0, 87.70580193070293])
    def test_nodes_on_cell_edges(self, r):
        points = lattice(r, 4)
        # also one ulp either side of each edge
        points += [(math.nextafter(x, -math.inf), math.nextafter(y, math.inf))
                   for x, y in lattice(r, 2)]
        assert assert_matches_all_pairs(points, r) > 0

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
        assert len(topo._cells) == 1
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
        assert assert_matches_all_pairs(points, r) >= 1

    def test_negative_coordinates(self):
        rng = np.random.default_rng(11)
        points = [(-250.0, -400.0)]
        points += [(float(x), float(y)) for x, y in rng.uniform(-500.0, 0.0, (150, 2))]
        points += lattice(50.0, 3, origin=(-300.0, -300.0))
        assert assert_matches_all_pairs(points, 50.0) > 0

    @settings(deadline=None)
    @given(r=st.floats(1e-3, 500.0), nodes=layout_nodes)
    def test_matches_all_pairs(self, r, nodes):
        assert_matches_all_pairs(layout_points(r, nodes), r)


def pairs_in_range(points, radio_range):
    """Pairs of points within radio_range of each other, by the all-pairs scan."""
    pos = [Position(x, y) for x, y in points]
    return sum(
        distance(a, pos[j]) <= radio_range
        for i, a in enumerate(pos)
        for j in range(i + 1, len(pos))
    )


def assert_pair_bound_holds(points, radio_range):
    bound = in_range_pair_bound(points, radio_range)
    in_range = pairs_in_range(points, radio_range)
    # each pair in range gives at most one allowed entry
    assert bound >= in_range >= assert_matches_all_pairs(points, radio_range)
    return bound, in_range


class TestInRangePairBound:
    """in_range_pair_bound against the all-pairs scan, with no pair checks."""

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
        assert assert_pair_bound_holds(points, 10.0) == (199 * 200 // 2,) * 2

    def test_uniform_layout_is_counted_near_its_pairs(self):
        # the default density: 300 points on 1000 m x 1000 m, range 87.7 m
        rng = np.random.default_rng(7)
        points = [(float(x), float(y)) for x, y in rng.uniform(0.0, 1e3, (300, 2))]
        bound, in_range = assert_pair_bound_holds(points, 87.70580193070293)
        # a 3 x 3 block of cells covers 9 / pi of a radio disk
        assert bound < 4 * in_range

    @pytest.mark.parametrize("r", [10.0, 1.0 / 3.0])
    def test_points_on_cell_edges(self, r):
        points = lattice(r, 4)
        points += [(math.nextafter(x, -math.inf), math.nextafter(y, math.inf))
                   for x, y in lattice(r, 2)]
        assert_pair_bound_holds(points, r)

    @pytest.mark.parametrize("r", [1e-12, 1e-320])
    def test_range_far_below_the_coordinate_scale(self, r):
        points = [(500.0, 0.0), (500.0, 1e-321), (500.0, 0.0 + 0.1 * r),
                  (1e4, 1e4), (math.nextafter(1e4, 0.0), 1e4), (0.0, 0.0), (2e-321, 0.0)]
        assert_pair_bound_holds(points, r)

    @settings(deadline=None)
    @given(r=st.floats(1e-3, 500.0), nodes=layout_nodes, cluster=st.integers(0, 30))
    def test_random_layouts(self, r, nodes, cluster):
        # the cluster puts points within r / 10 of the first drawn one
        points = layout_points(r, nodes)
        x0, y0 = points[1]
        points += [(x0 + i * r / 300, y0 - i * r / 300) for i in range(cluster)]
        assert_pair_bound_holds(points, r)


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
    assert sum(len(st.allowed) for st in sim.nodes.values()) > n
    assert calls < 0.05 * n * n
    assert len(sim.topology._cells) <= n
    # each node's neighbour list holds the states of its allowed neighbours;
    # the lists link back to their owners, so repr and == must skip them
    sink = sim.nodes[SINK_ID]
    assert sink.allowed == []
    assert "allowed" not in repr(sink)
    for nid, st in sim.nodes.items():
        if nid != SINK_ID:
            assert [s.node_id for s in st.allowed] == sim.topology.allowed_neighbor_ids(nid)
        assert repr(st).startswith(f"NodeState(node_id={nid},")
        assert st == st


def test_non_finite_positions_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Topology({0: Position(0.0, 0.0), 1: Position(math.nan, 1.0)}, 0, 10.0)
    with pytest.raises(ValueError, match="radio_range"):
        Topology({0: Position(0.0, 0.0)}, 0, math.nan)
