"""RRAM technology variant — the paper's portability claim, made concrete.

Sec. 3 of the paper: "this hybrid architecture could be adapted to different
NVM technologies, like MRAM or RRAM.  Here in this work, we use MRAM as a
digital NVM case study."  This module supplies the RRAM case study: a
two-state (HRS/LRS) resistive device compact model mirroring the
:class:`~repro.energy.mtj.MTJ` API, and an RRAM-flavoured
:class:`~repro.energy.tech.TechnologyModel` that drops into every design
class (``DenseCIMDesign``, ``HybridSparseDesign``) unchanged.

Literature-typical 28 nm HfOx constants (documented ASSUMPTIONs):

=====================  ==============  =================
property               STT-MRAM        RRAM (HfOx)
=====================  ==============  =================
write energy / bit     ~0.05 pJ        ~1-5 pJ (forming-free set/reset)
write latency          ~3-10 ns        ~50-100 ns
endurance (cycles)     1e12 - 1e15     1e6 - 1e9
density vs SRAM        ~0.5x           ~0.3x (4F^2-ish with selector)
=====================  ==============  =================

The asymmetries all point the same way: RRAM makes *writes even more
expensive* and adds a hard endurance wall — strengthening the paper's case
for keeping learning out of the NVM (see :mod:`repro.energy.endurance`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from .tech import GlobalSpec, MRAMPESpec, SRAMPESpec, TechnologyModel
from .units import PJ_PER_J, S_PER_NS


@dataclasses.dataclass(frozen=True)
class RRAMParams:
    """HfOx-class bipolar RRAM device parameters (binary/digital use)."""

    resistance_lrs_ohm: float = 10e3      # low-resistance (SET) state
    resistance_hrs_ohm: float = 150e3     # high-resistance (RESET) state
    set_voltage_v: float = 1.2
    reset_voltage_v: float = 1.4
    write_pulse_ns: float = 50.0
    endurance_cycles: float = 1e7         # typical HfOx filamentary cell
    read_voltage_v: float = 0.2

    def __post_init__(self):
        if self.resistance_hrs_ohm <= self.resistance_lrs_ohm:
            raise ValueError("HRS resistance must exceed LRS resistance")
        if self.endurance_cycles <= 0:
            raise ValueError("endurance must be positive")


class RRAMCell:
    """One binary RRAM cell with endurance wear-out tracking."""

    STATE_LRS = 0     # logical '0': low resistance
    STATE_HRS = 1     # logical '1': high resistance

    def __init__(self, params: RRAMParams = RRAMParams(),
                 state: int = STATE_HRS):
        if state not in (self.STATE_LRS, self.STATE_HRS):
            raise ValueError(f"invalid state {state}")
        self.params = params
        self.state = state
        self.write_count = 0

    @property
    def resistance_ohm(self) -> float:
        return (self.params.resistance_hrs_ohm if self.state == self.STATE_HRS
                else self.params.resistance_lrs_ohm)

    @property
    def on_off_ratio(self) -> float:
        return self.params.resistance_hrs_ohm / self.params.resistance_lrs_ohm

    def write(self, target_state: int,
              rng: Optional[np.random.Generator] = None) -> bool:
        """Switch the cell; returns False once endurance is exhausted.

        Wear-out is modelled as a hard failure at the endurance limit, with
        an optional stochastic early-failure tail (log-normal, when ``rng``
        is given) reflecting cell-to-cell endurance variation.
        """
        if target_state not in (self.STATE_LRS, self.STATE_HRS):
            raise ValueError(f"invalid target state {target_state}")
        if self.state == target_state:
            return True
        self.write_count += 1
        limit = self.params.endurance_cycles
        if rng is not None:
            # ~0.5 decade sigma endurance variation.
            limit = limit * float(rng.lognormal(mean=0.0, sigma=0.5))
        if self.write_count >= limit:
            return False
        self.state = target_state
        return True

    def write_energy_pj(self) -> float:
        """SET/RESET pulse energy: V^2 / R * t (into the addressed state)."""
        p = self.params
        if self.state == self.STATE_HRS:   # SET: HRS -> LRS
            v, r = p.set_voltage_v, p.resistance_hrs_ohm
        else:                              # RESET: LRS -> HRS
            v, r = p.reset_voltage_v, p.resistance_lrs_ohm
        return v * v / r * p.write_pulse_ns * S_PER_NS * PJ_PER_J


def rram_pe_spec(params: RRAMParams = RRAMParams()) -> MRAMPESpec:
    """An NVM-PE spec with RRAM device characteristics.

    Reuses the MRAM PE's digital periphery (the near-memory compute is
    technology-agnostic, which is the paper's point) and swaps the
    array-level constants: ~0.6x the MTJ array area (denser 1T1R cell),
    higher write energy, and a longer write pulse.
    """
    cell = RRAMCell(params, state=RRAMCell.STATE_HRS)
    set_e = cell.write_energy_pj()
    cell.state = RRAMCell.STATE_LRS
    reset_e = cell.write_energy_pj()
    write_energy = (set_e + reset_e) / 2.0
    write_cycles = max(1, math.ceil(params.write_pulse_ns / 2.0))  # 500 MHz
    return dataclasses.replace(
        MRAMPESpec(),
        array_area=0.00686 * 0.6,
        resistance_p_ohm=params.resistance_lrs_ohm,
        resistance_ap_ohm=params.resistance_hrs_ohm,
        write_energy_pj_per_bit=write_energy,
        write_latency_cycles=write_cycles,
    )


def rram_technology(params: RRAMParams = RRAMParams()) -> TechnologyModel:
    """A drop-in :class:`TechnologyModel` with RRAM as the NVM.

    Usage::

        tech = rram_technology()
        design = HybridSparseDesign(NMPattern(1, 4), tech=tech)
    """
    return TechnologyModel(sram=SRAMPESpec(), mram=rram_pe_spec(params),
                           global_blocks=GlobalSpec())


def compare_nvm_write_cost(params: RRAMParams = RRAMParams()
                           ) -> Tuple[float, float]:
    """(RRAM write pJ/bit, MRAM write pJ/bit) — the portability trade-off."""
    return (rram_pe_spec(params).write_energy_pj_per_bit,
            MRAMPESpec().write_energy_pj_per_bit)
