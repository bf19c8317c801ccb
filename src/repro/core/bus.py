"""Shared-bus interconnect model (paper Fig. 1: bus-connected cores/PEs).

The architecture connects PEs, the shared accumulators and the global
buffer over buses, and the scheduler broadcasts activations SIMT-style.
This module gives the bus a first-class model: width, per-bit transfer
energy, broadcast vs unicast accounting, and contention (a transfer
occupies the bus for ceil(bits/width) cycles; concurrent requests
serialize).  The design classes use the width constant directly; the
scheduler can attach a :class:`SharedBus` to also account interconnect
energy and utilization.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional


@dataclasses.dataclass(frozen=True)
class BusConfig:
    """Bus parameters.

    ``energy_pj_per_bit_mm`` with ``avg_distance_mm`` gives the wire
    transfer energy (28 nm on-chip wires: ~0.05-0.2 pJ/bit/mm).
    """

    width_bits: int = 128
    energy_pj_per_bit_mm: float = 0.1
    avg_distance_mm: float = 2.0

    def __post_init__(self):
        if self.width_bits <= 0:
            raise ValueError("bus width must be positive")
        if self.energy_pj_per_bit_mm < 0 or self.avg_distance_mm < 0:
            raise ValueError("energies/distances must be non-negative")

    @property
    def energy_pj_per_bit(self) -> float:
        return self.energy_pj_per_bit_mm * self.avg_distance_mm


@dataclasses.dataclass
class Transfer:
    """One logged bus transaction."""

    tag: str
    bits: int
    receivers: int
    start_cycle: float
    cycles: float

    @property
    def end_cycle(self) -> float:
        return self.start_cycle + self.cycles


class SharedBus:
    """A serializing broadcast bus with energy/utilization accounting.

    Broadcast semantics (the SIMT case): one transfer delivers the same
    bits to any number of receivers in the same cycles — wire energy is
    charged once for the trunk plus a small per-receiver tap charge.
    """

    #: fraction of the trunk energy charged per extra receiver tap
    TAP_ENERGY_FRACTION = 0.05

    def __init__(self, config: Optional[BusConfig] = None):
        self.config = config or BusConfig()
        self.transfers: List[Transfer] = []
        self._cursor = 0.0

    # -------------------------------------------------------------- requests
    def transfer_cycles(self, bits: int) -> float:
        """Cycles one transaction of ``bits`` occupies the bus."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return math.ceil(bits / self.config.width_bits)

    def request(self, tag: str, bits: int, receivers: int = 1,
                at_cycle: Optional[float] = None) -> Transfer:
        """Schedule a transfer; it starts when the bus frees up.

        ``at_cycle`` is the earliest the data is available; contention with
        previously scheduled transfers pushes the start later.
        """
        if receivers < 1:
            raise ValueError("a transfer needs at least one receiver")
        earliest = self._cursor if at_cycle is None \
            else max(self._cursor, at_cycle)
        cycles = self.transfer_cycles(bits)
        transfer = Transfer(tag=tag, bits=bits, receivers=receivers,
                            start_cycle=earliest, cycles=cycles)
        self.transfers.append(transfer)
        self._cursor = transfer.end_cycle
        return transfer

    # ------------------------------------------------------------- accounting
    def total_cycles(self) -> float:
        return self._cursor

    def busy_cycles(self) -> float:
        return sum(t.cycles for t in self.transfers)

    def utilization(self) -> float:
        """Busy fraction of the bus's makespan."""
        total = self.total_cycles()
        return self.busy_cycles() / total if total else 0.0

    def energy_pj(self) -> float:
        """Wire energy: trunk once per transfer + per-receiver taps."""
        e_bit = self.config.energy_pj_per_bit
        total = 0.0
        for t in self.transfers:
            taps = (t.receivers - 1) * self.TAP_ENERGY_FRACTION
            total += t.bits * e_bit * (1.0 + taps)
        return total

    def traffic_by_tag(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for t in self.transfers:
            out[t.tag] = out.get(t.tag, 0) + t.bits
        return out

    def reset(self) -> None:
        self.transfers.clear()
        self._cursor = 0.0
