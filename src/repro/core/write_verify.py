"""Write-verify-retry controller for the MRAM deployment path.

STT-MRAM switching is stochastic ("instability", paper Sec. 1): at finite
write current a pulse switches the MTJ only with probability < 1, so
production macros write with a verify-and-retry loop — write the row, read
it back through the sense amplifiers, re-pulse only the failed bits.  This
module models that loop over the :class:`~repro.energy.mtj.MTJ` compact
model, both Monte-Carlo (bit-level simulation) and analytically (expected
attempts/energy), so the one-time backbone-deployment cost and its
reliability can be quantified.

The hybrid design's framing: this machinery (and its energy/latency) is
paid **once** per deployed backbone; the learning path never touches it —
one more reason weight updates belong in SRAM.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..energy.mtj import MTJ, MTJParams


@dataclasses.dataclass
class WriteReport:
    """Outcome of writing a block of bits with verify-retry."""

    bits: int
    attempts: int              # total write pulses issued (incl. retries)
    failures: int              # bits still wrong after max_retries
    energy_pj: float
    verify_reads: int


class WriteVerifyController:
    """Write-verify-retry over stochastic MTJ switching.

    Parameters
    ----------
    params:
        MTJ device parameters (defaults reproduce Table 2).
    write_current_ua:
        Drive current; lower currents save energy per pulse but raise the
        retry rate — the knob the ablation sweeps.
    max_retries:
        Re-pulses per bit before declaring a (rare) hard failure.
    """

    def __init__(self, params: MTJParams = MTJParams(),
                 write_current_ua: Optional[float] = None,
                 pulse_ns: Optional[float] = None, max_retries: int = 3):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.params = params
        self.pulse_ns = pulse_ns if pulse_ns is not None else params.write_pulse_ns
        if write_current_ua is None:
            # default drive: write voltage over mean resistance
            mean_r = (params.resistance_p_ohm + params.resistance_ap_ohm) / 2
            write_current_ua = params.write_voltage_v / mean_r * 1e6
        self.write_current_ua = write_current_ua
        self.max_retries = max_retries
        ref = MTJ(params)
        self._p_switch = ref.switching_probability(self.write_current_ua,
                                                   self.pulse_ns)
        self._pulse_energy_pj = (params.write_voltage_v
                                 * self.write_current_ua * 1e-6
                                 * self.pulse_ns * 1e-9 * 1e12)

    # --------------------------------------------------------------- analytic
    @property
    def switch_probability(self) -> float:
        return self._p_switch

    def expected_attempts_per_bit(self) -> float:
        """E[pulses per toggling bit] under verify-retry (truncated geometric)."""
        p = self._p_switch
        if p <= 0:
            return float(self.max_retries + 1)
        q = 1.0 - p
        n = self.max_retries + 1
        # E[min(Geom(p), n)] = (1 - q^n) / p
        return (1.0 - q ** n) / p

    def expected_failure_rate(self) -> float:
        """P(bit still wrong after all retries)."""
        return (1.0 - self._p_switch) ** (self.max_retries + 1)

    def expected_energy_pj_per_bit(self) -> float:
        return self.expected_attempts_per_bit() * self._pulse_energy_pj

    # ------------------------------------------------------------ Monte Carlo
    def write_bits(self, current: np.ndarray, target: np.ndarray,
                   rng: Optional[np.random.Generator] = None) -> Tuple[
                       np.ndarray, WriteReport]:
        """Write ``target`` bits over ``current`` bits with verify-retry.

        Returns ``(resulting_bits, report)``.  Bits already in the target
        state cost nothing (the verify read screens them out first).
        """
        rng = rng or np.random.default_rng(0)
        current = np.asarray(current).astype(np.int8).copy()
        target = np.asarray(target).astype(np.int8)
        if current.shape != target.shape:
            raise ValueError("current/target shape mismatch")

        pending = current != target
        attempts = 0
        verify_reads = 1  # initial screening read
        for _ in range(self.max_retries + 1):
            n = int(pending.sum())
            if n == 0:
                break
            attempts += n
            switched = rng.random(n) < self._p_switch
            idx = np.nonzero(pending)
            ok_idx = tuple(axis[switched] for axis in idx)
            current[ok_idx] = target[ok_idx]
            pending = current != target
            verify_reads += 1

        report = WriteReport(
            bits=int(target.size),
            attempts=attempts,
            failures=int(pending.sum()),
            energy_pj=attempts * self._pulse_energy_pj,
            verify_reads=verify_reads)
        return current, report
