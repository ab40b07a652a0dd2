import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsnqos.energy import Battery, RadioParams, crossover_distance, rx_energy, tx_energy

# reference radio: 50 nJ/bit electronics, 10 pJ/bit/m^2 free-space amp,
# 0.0013 pJ/bit/m^4 multipath amp, 250 kbit/s
REF = RadioParams.from_table_units(50.0, 10.0, 0.0013, 250_000.0)


class TestCrossover:
    def test_equal_amps(self):
        radio = RadioParams(1e-9, 1e-12, 1e-12, 1.0)
        assert crossover_distance(radio) == pytest.approx(1.0)

    def test_reference_constants(self):
        d0 = crossover_distance(REF)
        assert d0 == pytest.approx(math.sqrt(10.0 / 0.0013))
        assert d0 == pytest.approx(87.7058, abs=1e-3)

    def test_perfect_square_ratio(self):
        radio = RadioParams(1e-9, 4e-12, 1e-12, 1.0)
        assert crossover_distance(radio) == pytest.approx(2.0)


class TestTxEnergy:
    def test_zero_distance(self):
        assert tx_energy(100, 0.0, REF) == pytest.approx(100 * 50e-9)

    def test_reference_at_50m(self):
        # 100 * 50e-9 + 100 * 10e-12 * 50^2
        assert tx_energy(100, 50.0, REF) == pytest.approx(7.5e-6, rel=1e-12)

    def test_branches_agree_at_crossover(self):
        d0 = crossover_distance(REF)
        free_space = 100 * REF.e_elec + 100 * REF.eps_fs * d0**2
        multipath = 100 * REF.e_elec + 100 * REF.eps_amp * d0**4
        assert abs(free_space - multipath) <= 1e-12 * free_space
        assert tx_energy(100, d0, REF) == pytest.approx(multipath, rel=1e-12)

    @given(
        d1=st.floats(0.0, 500.0),
        d2=st.floats(0.0, 500.0),
    )
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert tx_energy(100, lo, REF) <= tx_energy(100, hi, REF) * (1 + 1e-12)

    @given(k=st.integers(1, 10_000), d=st.floats(0.0, 500.0))
    def test_monotone_in_bits_and_rx_bound(self, k, d):
        assert tx_energy(k + 1, d, REF) > tx_energy(k, d, REF)
        assert rx_energy(k, REF) <= tx_energy(k, d, REF)


class TestRxEnergy:
    def test_reference_packet(self):
        assert rx_energy(100, REF) == pytest.approx(5e-6)

    def test_unit_case(self):
        radio = RadioParams(1.0, 1e-12, 1e-12, 1.0)
        assert rx_energy(1, radio) == 1.0


class TestBattery:
    def test_simple_debit(self):
        b = Battery(2.0)
        drained = b.debit(7.5e-6)
        assert drained == 7.5e-6
        assert b.residual == pytest.approx(1.9999925)
        assert b.alive

    def test_exhaustion_clamps_and_kills(self):
        b = Battery(2.0, consumed=2.0 - 1e-9)
        drained = b.debit(7.5e-6)
        assert drained == pytest.approx(1e-9)
        assert not b.alive
        assert b.residual == 0.0
        assert b.consumed == 2.0

    def test_zero_debit_identity(self):
        b = Battery(2.0)
        assert b.debit(0.0) == 0.0
        assert b.residual == 2.0
        assert b.alive

    def test_dead_battery_takes_nothing(self):
        b = Battery(1.0)
        b.debit(2.0)
        assert not b.alive
        assert b.debit(0.5) == 0.0
        assert b.consumed == 1.0

    def test_negative_debit_rejected(self):
        with pytest.raises(ValueError):
            Battery(1.0).debit(-1.0)

    def test_supported_transmission_count(self):
        # 2 J paying 7.5e-6 J per send covers exactly floor(2 / 7.5e-6) sends;
        # the send that cannot be fully paid for does not happen
        b = Battery(2.0)
        cost = tx_energy(100, 50.0, REF)
        count = 0
        while b.alive:
            if b.debit(cost) == cost:
                count += 1
        assert count == math.floor(2.0 / 7.5e-6)
        assert count == 266_666

    def test_stored_level_is_the_clamped_difference(self):
        # the stored level must be exactly max(0, initial - consumed) after
        # every draw, whatever the draws' sizes and order; a decremented
        # level would drift from it in the last bits
        rng = random.Random(2024)
        for _ in range(200):
            b = Battery(rng.uniform(1e-6, 3.0))
            scale = b.initial * rng.choice([1e-6, 1e-3, 0.05])
            while b.alive:
                if rng.random() < 0.02:
                    amount = rng.uniform(0.0, 2.0 * b.initial)  # often a shortfall
                elif rng.random() < 0.02:
                    amount = b.residual  # exactly what is left
                else:
                    amount = rng.uniform(0.0, scale)
                b.debit(amount)
                if b.alive:
                    assert b.residual == max(0.0, b.initial - b.consumed)
            assert b.residual == 0.0
            b.debit(rng.uniform(0.0, scale))
            assert b.residual == 0.0

    @given(
        initial=st.floats(1e-9, 10.0),
        draws=st.lists(
            st.one_of(
                st.floats(0.0, 1.0),  # a share of the initial charge
                st.floats(0.0, 1e-6),
                st.just("rest"),  # exactly what is left
            ),
            max_size=60,
        ),
    )
    def test_stored_level_is_the_clamped_difference_bit_for_bit(self, initial, draws):
        # the sign of zero included, so the stored level is the float that
        # max(0.0, initial - consumed) gives, not merely one equal to it
        b = Battery(initial)
        for draw in draws:
            b.debit(b.level if draw == "rest" else draw * initial)
            expected = max(0.0, b.initial - b.consumed)
            assert b.level == expected
            assert math.copysign(1.0, b.level) == math.copysign(1.0, expected)
            assert b.alive or b.level == 0.0

    @given(
        initial=st.floats(1e-12, 10.0),
        shares=st.lists(st.floats(0.0, 1.0), max_size=20),
        end=st.sampled_from(["at", "below", "past"]),
    )
    def test_clamp_is_max_at_the_end_of_the_charge_bit_for_bit(
        self, initial, shares, end
    ):
        # debit clamps the level with a compare, not max(0.0, ·): the two give
        # the same float, the sign of zero included, on debits (each a share
        # of what is left) that end exactly at the charge, one ulp below it
        # or past it, and on a last debit of whatever that leaves
        def check(b):
            expected = max(0.0, b.initial - b.consumed)
            assert b.level == expected
            assert math.copysign(1.0, b.level) == math.copysign(1.0, expected)

        b = Battery(initial)
        for share in shares:
            b.debit(share * b.level)
            check(b)
        last = {
            "at": b.level,
            "below": math.nextafter(b.level, 0.0),
            "past": math.nextafter(b.level, math.inf),
        }[end]
        b.debit(last)
        check(b)
        assert b.alive == (end != "past")
        b.debit(b.level)
        check(b)

    @given(
        initial=st.floats(1e-12, 10.0),
        ratio=st.one_of(
            st.sampled_from([1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]),
            st.floats(0.0, 2.0),
        ),
        alive=st.booleans(),
    )
    def test_built_level_is_max_bit_for_bit(self, initial, ratio, alive):
        # __post_init__ clamps the level it builds by the same compare
        b = Battery(initial, consumed=initial * ratio, alive=alive)
        expected = max(0.0, b.initial - b.consumed) if alive else 0.0
        assert b.level == expected
        assert math.copysign(1.0, b.level) == math.copysign(1.0, expected)
