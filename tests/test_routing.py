import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wsnqos.energy import RadioParams
from wsnqos.geometry import Position, hops_linear
from wsnqos.node import TrafficClass
from wsnqos.queueing import ClassLoad, QueueModelParams
from wsnqos.routing import (
    CostWeights,
    NeighborEntry,
    NeighborView,
    build_neighbor_table,
    link_cost,
    min_finite_delay,
    predicted_hop_delay,
    predictive_drop_check,
    select_next_hop,
)

RADIO = RadioParams.from_table_units(50.0, 10.0, 0.0013, 250_000.0)
WEIGHTS = CostWeights(0.6, 0.3, 0.1)
X = 100 / 250_000.0  # 0.4 ms per packet


def loads(rate_rt=0.0, rate_nrt=0.0):
    return QueueModelParams(
        rt=ClassLoad.deterministic(rate_rt, X),
        nrt=ClassLoad.deterministic(rate_nrt, X),
    )


class TestLinkCost:
    def test_reference_weights(self):
        # 0.6 * 1 + 0.3 / 2 + 0.1 / 1
        assert link_cost(1.0, 2.0, 1.0, WEIGHTS) == pytest.approx(0.85)

    def test_pure_delay_weighting_preserves_order(self):
        w = CostWeights(1.0, 0.0, 0.0)
        delays = [0.5, 0.1, 0.9, 0.3]
        costs = [link_cost(d, 1.0, 1.0, w) for d in delays]
        assert sorted(range(4), key=costs.__getitem__) == sorted(
            range(4), key=delays.__getitem__
        )

    def test_vanishing_prr_blows_up(self):
        assert link_cost(1e-3, 1.0, 1e-9, WEIGHTS) > 1e7
        assert link_cost(1e-3, 1.0, 0.0, WEIGHTS) == math.inf

    def test_depleted_energy_is_infinite(self):
        assert link_cost(1e-3, 0.0, 1.0, WEIGHTS) == math.inf
        assert link_cost(1e-3, -1.0, 1.0, WEIGHTS) == math.inf

    def test_unstable_delay_is_infinite_even_with_zero_alpha(self):
        w = CostWeights(0.0, 1.0, 1.0)
        assert link_cost(math.inf, 1.0, 1.0, w) == math.inf

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            CostWeights(-0.1, 0.3, 0.1)
        with pytest.raises(ValueError):
            CostWeights(0.0, 0.0, 0.0)


def entry(nid, delay, energy, prr, weights=WEIGHTS):
    return NeighborEntry(nid, delay, energy, prr, link_cost(delay, energy, prr, weights))


class TestSelectNextHop:
    def test_single_entry(self):
        assert select_next_hop([entry(7, 1e-3, 1.0, 1.0)], WEIGHTS) == 7

    def test_argmin(self):
        table = [
            entry(1, 1.5, 1.0, 1.0),  # cost 1.3
            entry(2, 1.0, 1.0, 1.0),  # cost 0.85... lower
            entry(3, 1.0, 0.0, 1.0),  # infinite
        ]
        assert select_next_hop(table, WEIGHTS) == 2

    def test_empty_table(self):
        assert select_next_hop([], WEIGHTS) is None

    def test_all_infinite(self):
        table = [entry(1, math.inf, 1.0, 1.0), entry(2, 1.0, 0.0, 1.0)]
        assert select_next_hop(table, WEIGHTS) is None

    def test_tie_breaks_to_lowest_id(self):
        table = [entry(9, 1.0, 1.0, 1.0), entry(4, 1.0, 1.0, 1.0)]
        assert select_next_hop(table, WEIGHTS) == 4

    @given(
        data=st.lists(
            st.tuples(
                st.floats(1e-5, 1.0),  # delay
                st.floats(0.01, 3.0),  # energy
                st.floats(0.01, 1.0),  # prr
            ),
            min_size=1,
            max_size=20,
        ),
        scale=st.floats(1e-3, 1e3),
    )
    # rounding the scaled costs reorders this near-tie: prr 0.01 against the next float
    @example(data=[(1.0, 1.0, 0.01), (1.0, 1.0, 0.010000000000000002)], scale=1.5)
    def test_weight_scaling_never_changes_choice(self, data, scale):
        table = [entry(i, d, en, p) for i, (d, en, p) in enumerate(data)]
        scaled = CostWeights(0.6 * scale, 0.3 * scale, 0.1 * scale)
        a = select_next_hop(table, WEIGHTS)
        b = select_next_hop(table, scaled)
        if a != b:
            # a scale that is not a power of two rounds each cost, so only a
            # tie to within a few ulps may change hands
            ea, eb = table[a], table[b]
            cost_a = link_cost(ea.predicted_delay, ea.usable_energy, ea.prr, WEIGHTS)
            cost_b = link_cost(eb.predicted_delay, eb.usable_energy, eb.prr, WEIGHTS)
            assert math.isclose(cost_a, cost_b, rel_tol=1e-12)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(1e-5, 1.0),
                st.floats(-1.0, 3.0),
                st.floats(0.0, 1.0),
            ),
            max_size=20,
        )
    )
    def test_never_selects_unusable_neighbor(self, data):
        table = [entry(i, d, en, p) for i, (d, en, p) in enumerate(data)]
        choice = select_next_hop(table, WEIGHTS)
        if choice is not None:
            picked = table[choice]
            assert picked.usable_energy > 0.0
            assert picked.prr > 0.0


class TestPredictedDelay:
    def test_rt_uses_high_priority_wait(self):
        params = loads(rate_rt=1000.0, rate_nrt=1000.0)  # rho 0.4 + 0.4
        rt = predicted_hop_delay(TrafficClass.RT, params, X)
        nrt = predicted_hop_delay(TrafficClass.NRT, params, X)
        assert rt < nrt

    def test_idle_neighbor_costs_one_service_time(self):
        assert predicted_hop_delay(TrafficClass.RT, loads(), X) == X
        assert predicted_hop_delay(TrafficClass.NRT, loads(), X) == X

    def test_unstable_maps_to_infinity(self):
        params = loads(rate_rt=3000.0)  # rho1 = 1.2
        assert predicted_hop_delay(TrafficClass.RT, params, X) == math.inf


class TestBuildNeighborTable:
    def test_sink_candidate_is_scored_and_selected(self):
        sender = Position(50.0, 0.0)
        cands = [
            NeighborView(0, math.inf, loads(), 1.0),
            NeighborView(3, 1.5, loads(rate_rt=500.0), 0.9),
        ]
        table = build_neighbor_table(
            sender, TrafficClass.RT, cands, 100, RADIO, WEIGHTS
        )
        assert [e.node_id for e in table] == [0, 3]
        sink_entry = table[0]
        assert sink_entry.usable_energy == math.inf
        assert sink_entry.cost == pytest.approx(0.6 * X + 0.1)
        assert select_next_hop(table, WEIGHTS) == 0

    def test_exhausted_relay_gets_infinite_cost(self):
        rx_cost = 100 * RADIO.e_elec
        cands = [NeighborView(2, rx_cost * 0.5, loads(), 1.0)]
        table = build_neighbor_table(
            Position(5.0, 0.0), TrafficClass.RT, cands, 100, RADIO, WEIGHTS
        )
        assert table[0].usable_energy <= 0.0
        assert table[0].cost == math.inf

    def test_usable_energy_subtracts_receive_cost(self):
        cands = [NeighborView(2, 2.0, loads(), 1.0)]
        table = build_neighbor_table(
            Position(5.0, 0.0), TrafficClass.RT, cands, 100, RADIO, WEIGHTS
        )
        assert table[0].usable_energy == pytest.approx(2.0 - 5e-6)


class TestMinFiniteDelay:
    def test_picks_smallest_finite(self):
        table = [
            entry(1, math.inf, 1.0, 1.0),
            entry(2, 5e-3, 1.0, 1.0),
            entry(3, 2e-3, 0.0, 1.0),  # infinite cost but finite delay counts
        ]
        assert min_finite_delay(table) == 2e-3

    def test_none_when_all_unstable(self):
        assert min_finite_delay([entry(1, math.inf, 1.0, 1.0)]) is None
        assert min_finite_delay([]) is None


class TestPredictiveDrop:
    SINK = Position(0.0, 0.0)

    def test_slack_deadline_keeps(self):
        hops = hops_linear(Position(50.0, 0.0), self.SINK, 5.0)
        assert predictive_drop_check(math.inf, 0.0, hops, 5e-3)

    def test_already_expired_drops(self):
        hops = hops_linear(Position(50.0, 0.0), self.SINK, 5.0)
        assert not predictive_drop_check(1.0, 1.5, hops, 1e-6)

    def test_ten_hops_at_5ms_cannot_meet_40ms(self):
        # distance 50 at spacing 5 estimates 10 hops; 10 * 5 ms > 40 ms left
        hops = hops_linear(Position(50.0, 0.0), self.SINK, 5.0)
        assert hops == 10
        assert not predictive_drop_check(0.040, 0.0, hops, 5e-3)

    def test_same_path_meets_60ms(self):
        hops = hops_linear(Position(50.0, 0.0), self.SINK, 5.0)
        assert predictive_drop_check(0.060, 0.0, hops, 5e-3)
