"""Compact STT-MRAM magnetic tunnel junction (MTJ) device model.

The paper extracts SPICE-compatible STT-MRAM device models for circuit
simulation (Sec. 5.2).  Offline, we provide the standard compact model: a
two-state resistor (parallel P / anti-parallel AP) with TMR, a
spin-transfer-torque switching threshold, and thermally-activated switching
below threshold (Néel-Arrhenius).  The read path computes sense margins for
the sense amplifiers; the write path yields energy/latency for the cost
models and reproduces Table 2's device row (R_P = 4408 ohm,
R_AP = 8759 ohm, 0.048 pJ/bit set/reset).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from .units import A_PER_UA, PJ_PER_J, S_PER_NS, UA_PER_A

# Boltzmann constant (J/K)
K_B = 1.380649e-23


@dataclasses.dataclass(frozen=True)
class MTJParams:
    """Device parameters; defaults reproduce the paper's Table 2 entries."""

    resistance_p_ohm: float = 4408.0
    resistance_ap_ohm: float = 8759.0
    critical_current_ua: float = 30.0     # STT switching threshold current
    write_pulse_ns: float = 3.0           # nominal write pulse width
    write_voltage_v: float = 0.3          # write driver voltage
    thermal_stability: float = 60.0       # Delta = E_barrier / kT (retention)
    temperature_k: float = 300.0
    attempt_time_ns: float = 1.0          # tau_0 for thermal activation

    def __post_init__(self):
        if self.resistance_ap_ohm <= self.resistance_p_ohm:
            raise ValueError("AP resistance must exceed P resistance")
        if self.critical_current_ua <= 0:
            raise ValueError("critical current must be positive")


class MTJ:
    """One magnetic tunnel junction: binary state with read/write physics."""

    STATE_P = 0    # parallel, low resistance, logical '0' by convention
    STATE_AP = 1   # anti-parallel, high resistance, logical '1'

    def __init__(self, params: MTJParams = MTJParams(), state: int = STATE_P):
        self.params = params
        if state not in (self.STATE_P, self.STATE_AP):
            raise ValueError(f"invalid state {state}")
        self.state = state
        self.write_count = 0

    # ------------------------------------------------------------------ read
    @property
    def resistance_ohm(self) -> float:
        return (self.params.resistance_ap_ohm if self.state == self.STATE_AP
                else self.params.resistance_p_ohm)

    @property
    def tmr(self) -> float:
        p = self.params
        return (p.resistance_ap_ohm - p.resistance_p_ohm) / p.resistance_p_ohm

    def sense_margin_ua(self, read_voltage_v: float = 0.1) -> float:
        """Current difference between the two states the SA must resolve."""
        p = self.params
        i_p = read_voltage_v / p.resistance_p_ohm * UA_PER_A
        i_ap = read_voltage_v / p.resistance_ap_ohm * UA_PER_A
        return i_p - i_ap

    # ----------------------------------------------------------------- write
    def write_current_ua(self) -> float:
        """Current delivered by the write driver into the present state."""
        return self.params.write_voltage_v / self.resistance_ohm * UA_PER_A

    def switching_probability(self, current_ua: float,
                              pulse_ns: float) -> float:
        """P(switch) for a given drive current and pulse width.

        Above the critical current the device switches deterministically
        (precessional regime, probability ~1 for pulses >= the nominal
        width); below it, switching is thermally activated with the barrier
        lowered by the spin torque (Néel-Arrhenius).
        """
        p = self.params
        if current_ua >= p.critical_current_ua:
            # Precessional: switching time shrinks as overdrive grows.
            overdrive = current_ua / p.critical_current_ua
            t_switch = p.write_pulse_ns / overdrive
            return 1.0 if pulse_ns >= t_switch else pulse_ns / t_switch
        barrier = p.thermal_stability * (1.0 - current_ua / p.critical_current_ua)
        rate = (1.0 / p.attempt_time_ns) * math.exp(-barrier)
        return 1.0 - math.exp(-rate * pulse_ns)

    def write(self, target_state: int, rng: np.random.Generator = None,
              current_ua: float = None, pulse_ns: float = None) -> bool:
        """Attempt a write; returns True if the cell holds ``target_state``.

        With default drive (write voltage over the cell resistance, nominal
        pulse) the write is reliable; a weak drive can probabilistically
        fail — the write-failure injection tests use this.
        """
        if target_state not in (self.STATE_P, self.STATE_AP):
            raise ValueError(f"invalid target state {target_state}")
        if self.state == target_state:
            return True
        current = self.write_current_ua() if current_ua is None else current_ua
        pulse = self.params.write_pulse_ns if pulse_ns is None else pulse_ns
        prob = self.switching_probability(current, pulse)
        self.write_count += 1
        if rng is None or prob >= 1.0:
            switched = prob >= 0.5
        else:
            switched = bool(rng.random() < prob)
        if switched:
            self.state = target_state
        return self.state == target_state

    def write_energy_pj(self, current_ua: float = None,
                        pulse_ns: float = None) -> float:
        """Energy of one write pulse: V * I * t."""
        current = self.write_current_ua() if current_ua is None else current_ua
        pulse = self.params.write_pulse_ns if pulse_ns is None else pulse_ns
        return (self.params.write_voltage_v * current * A_PER_UA
                * pulse * S_PER_NS * PJ_PER_J)

    # ------------------------------------------------------------- retention
    def retention_years(self) -> float:
        """Expected thermal retention (tau_0 * exp(Delta))."""
        p = self.params
        seconds = p.attempt_time_ns * S_PER_NS * math.exp(p.thermal_stability)
        return seconds / (365.25 * 24 * 3600)


def table2_write_energy_check(params: MTJParams = MTJParams()
                              ) -> Tuple[float, float]:
    """Return (modelled average write energy pJ, Table 2 value 0.048 pJ).

    The average of the P->AP and AP->P pulse energies at the default drive
    should land near the published per-bit set/reset energy; the test suite
    asserts same order of magnitude.
    """
    cell = MTJ(params, state=MTJ.STATE_P)
    e_p = cell.write_energy_pj()
    cell.state = MTJ.STATE_AP
    e_ap = cell.write_energy_pj()
    return (e_p + e_ap) / 2.0, 0.048
