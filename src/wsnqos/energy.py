"""First-order radio energy model and per-node battery accounting.

Transmitting k bits over distance d costs k*e_elec plus an amplifier term
that switches from a d^2 (free-space) to a d^4 (multipath) law at the
crossover distance d0 = sqrt(eps_fs / eps_amp). Receiving k bits costs
k*e_elec. All constants are in SI units (J/bit, J/bit/m^2, J/bit/m^4);
scenario files carry the conventional nJ/pJ units and are converted on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RadioParams:
    """Radio constants in SI units plus the link bit rate."""

    e_elec: float  # J/bit
    eps_fs: float  # J/bit/m^2
    eps_amp: float  # J/bit/m^4
    bandwidth: float  # bit/s
    # crossover_distance of these constants, taken once at construction
    crossover: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("e_elec", "eps_fs", "eps_amp", "bandwidth"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        object.__setattr__(self, "crossover", crossover_distance(self))

    @classmethod
    def from_table_units(
        cls,
        e_elec_nj: float,
        eps_fs_pj: float,
        eps_amp_pj: float,
        bandwidth: float,
    ) -> "RadioParams":
        """Build from nJ/bit, pJ/bit/m^2, pJ/bit/m^4 and bit/s."""
        return cls(e_elec_nj * 1e-9, eps_fs_pj * 1e-12, eps_amp_pj * 1e-12, bandwidth)


def crossover_distance(radio: RadioParams) -> float:
    """Distance d0 = sqrt(eps_fs / eps_amp) where the amplifier law switches."""
    return math.sqrt(radio.eps_fs / radio.eps_amp)


def tx_energy(k: int, d: float, radio: RadioParams) -> float:
    """Energy to transmit k bits over distance d (meters).

    Uses the free-space d^2 amplifier below the crossover distance and the
    multipath d^4 amplifier at or beyond it; the two branches agree at d0,
    which the radio holds as `crossover`.
    """
    if d < radio.crossover:
        return k * radio.e_elec + k * radio.eps_fs * d * d
    return k * radio.e_elec + k * radio.eps_amp * d * d * d * d


def rx_energy(k: int, radio: RadioParams) -> float:
    """Energy to receive k bits: k * e_elec."""
    return k * radio.e_elec


@dataclass(slots=True)
class Battery:
    """Finite energy store of one node, a slotted record.

    Draws are accumulated in `consumed` (single add path, so the metrics
    ledger and the battery agree bit-for-bit). The charge left is stored in
    `level`: after each draw it is set to `initial - consumed`, or to 0.0
    when that is not above 0.0, never decremented, so it is the same float
    the difference gives. The compare gives what `max(0.0, ·)` gives for
    every float, -0.0 and NaN included, without the call. `residual` reads
    it. A draw the battery cannot cover drains it completely and marks the
    node dead; dead nodes take no further debits.
    """

    initial: float
    consumed: float = field(default=0.0)
    alive: bool = field(default=True)
    level: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.initial <= 0.0:
            raise ValueError("initial energy must be > 0")
        level = self.initial - self.consumed
        self.level = level if self.alive and level > 0.0 else 0.0

    @property
    def residual(self) -> float:
        return self.level

    def debit(self, amount: float) -> float:
        """Drain `amount` joules; returns the joules actually drained.

        A shortfall drains the remaining charge, sets `alive = False` and
        pins `consumed` to `initial` so the ledger closes exactly.
        """
        if amount < 0.0:
            raise ValueError("debit amount must be >= 0")
        if not self.alive:
            return 0.0
        if amount <= self.level:
            self.consumed += amount
            level = self.initial - self.consumed
            self.level = level if level > 0.0 else 0.0
            return amount
        drained = self.level
        self.consumed = self.initial
        self.level = 0.0
        self.alive = False
        return drained
