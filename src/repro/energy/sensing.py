"""Digital read-path robustness: sense margin under device variation.

Background (paper Sec. 2): analog PIM suffers accuracy loss from ADC noise;
MRAM's binary AP/P states enable *all-digital* readout through a sense
amplifier comparing the cell current against a reference.  Robustness then
hinges on the sense margin — the current gap between the two states — and
on how much device-to-device resistance variation erodes it.

This module computes the read bit-error rate (BER) analytically under
Gaussian resistance variation and shows the TMR the paper's device offers
(R_AP/R_P ~ 2x) leaves orders-of-magnitude margin, validating the
fully-digital design choice.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict

from .mtj import MTJParams
from .units import UA_PER_A

# --------------------------------------------------------------------------
# Read-path resolutions this model charges for.  These must agree with the
# datapath width contracts in repro.core (single source of truth:
# repro/core/widths.py) — lint rule R7 cross-checks them, so a datapath
# width change that would invalidate the sensing model is a lint error.
# --------------------------------------------------------------------------

#: Stored weight resolution per (weight, index) pair (= widths.WEIGHT_BITS).
SENSED_WEIGHT_BITS = 8

#: Stored index resolution per pair (= widths.INDEX_BITS).
SENSED_INDEX_BITS = 4

#: The all-digital sense amplifier resolves ONE bit per cell — no ADC.
#: (= widths.PARTIAL_PRODUCT_BITS; the BER model below is only valid for
#: binary AP/P discrimination.)
SENSE_AMP_RESOLUTION_BITS = 1


@dataclasses.dataclass(frozen=True)
class SenseConfig:
    """Read-path parameters."""

    read_voltage_v: float = 0.1
    resistance_sigma: float = 0.05    # relative (5%) device variation
    sense_offset_ua: float = 0.5      # SA input-referred offset (1-sigma)

    def __post_init__(self):
        if not 0 <= self.resistance_sigma < 0.5:
            raise ValueError("relative sigma must be in [0, 0.5)")


def state_currents_ua(params: MTJParams = MTJParams(),
                      config: SenseConfig = SenseConfig()) -> Dict[str, float]:
    """Mean read currents of the P and AP states and the midpoint reference."""
    i_p = config.read_voltage_v / params.resistance_p_ohm * UA_PER_A
    i_ap = config.read_voltage_v / params.resistance_ap_ohm * UA_PER_A
    return {"i_p_ua": i_p, "i_ap_ua": i_ap, "i_ref_ua": (i_p + i_ap) / 2.0}


def read_bit_error_rate(params: MTJParams = MTJParams(),
                        config: SenseConfig = SenseConfig()) -> float:
    """P(sense amplifier resolves the wrong state).

    Model: cell resistance ~ N(R, (sigma*R)^2) per state; the SA compares
    the cell current against the midpoint reference with its own Gaussian
    offset.  BER = average of the two states' miscompare probabilities.
    """
    cur = state_currents_ua(params, config)
    i_ref = cur["i_ref_ua"]

    def miss(mean_r: float) -> float:
        i_mean = config.read_voltage_v / mean_r * UA_PER_A
        # first-order: dI/I = -dR/R -> sigma_I = sigma_rel * I
        sigma_i = math.sqrt((config.resistance_sigma * i_mean) ** 2
                            + config.sense_offset_ua ** 2)
        if sigma_i == 0:
            return 0.0
        # P state current is above the reference; AP below
        z = abs(i_mean - i_ref) / sigma_i
        # Standard-normal upper tail, Q(z) = erfc(z / sqrt 2) / 2.
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    ber_p = miss(params.resistance_p_ohm)
    ber_ap = miss(params.resistance_ap_ohm)
    return (ber_p + ber_ap) / 2.0


def margin_study(params: MTJParams = MTJParams()) -> Dict[str, float]:
    """BER across variation levels — the 'digital is robust' evidence."""
    out = {}
    for sigma in (0.02, 0.05, 0.10, 0.15):
        cfg = SenseConfig(resistance_sigma=sigma)
        out[f"ber@sigma={sigma:.2f}"] = read_bit_error_rate(params, cfg)
    cur = state_currents_ua(params)
    out["sense_margin_ua"] = cur["i_p_ua"] - cur["i_ap_ua"]
    out["tmr"] = ((params.resistance_ap_ohm - params.resistance_p_ohm)
                  / params.resistance_p_ohm)
    return out
