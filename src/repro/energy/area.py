"""Area models for the design-space comparison (paper Fig. 7, right).

Two granularities are mixed, as the paper does:

* **Macro-scale effective densities** for multi-megabyte storage (the dense
  baselines and the hybrid's MRAM backbone store).  At NVSIM scale the
  periphery amortizes and what matters is µm²/bit *including* periphery.
  We anchor the SRAM density to the ISSCC'21-class all-digital SRAM CIM
  macro [29] and set the MRAM density from the paper's own observation that
  the ISCAS'23 MRAM design [30] "requires almost half the area" of [29] for
  the same model (calibrated constant, documented in EXPERIMENTS.md).
* **PE-level areas from Table 2** for the small number of SRAM sparse PEs
  the hybrid provisions (compute + active-layer working set + transposed
  buffers), where the compute periphery dominates.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable

from .tech import DEFAULT_TECH, TechnologyModel
from .units import MM2_PER_UM2

#: Effective macro density of the all-digital SRAM CIM baseline,
#: µm²/bit including periphery (anchored to [29]-class macros).
SRAM_MACRO_UM2_PER_BIT = 1.2

#: Effective macro density of the digital STT-MRAM CIM baseline.
#: Calibrated so the [30] baseline lands at ~48% of [29] (paper Fig. 7).
MRAM_MACRO_UM2_PER_BIT = 0.48 * SRAM_MACRO_UM2_PER_BIT

#: Extra periphery the *sparse* MRAM sub-arrays need on top of raw storage
#: (index decoding, activation MUX, parallel shift-accumulators, adder
#: trees), as a fraction of the storage area — from Table 2 the MRAM PE's
#: periphery is large relative to its array, amortized at macro scale.
MRAM_SPARSE_PERIPHERY_FACTOR = 0.7


def total_mm2(components: Iterable[float]) -> float:
    """Total of per-component areas, added in order."""
    return sum(components)


@dataclasses.dataclass
class AreaReport:
    """Per-component area in mm²."""

    components: Dict[str, float]

    @property
    def total_mm2(self) -> float:
        return total_mm2(self.components.values())

    def fraction(self, key: str) -> float:
        total = self.total_mm2
        return self.components.get(key, 0.0) / total if total else 0.0


def hybrid_area_components(backbone_compressed_bits, n_sram_pes,
                           sram_storage_bits, sram_pe_mm2,
                           control_overhead_fraction, buffer_mm2, relu_mm2
                           ) -> Dict[str, float]:
    """The hybrid's mm² breakdown: MRAM sparse storage + Rep-Net SRAM
    storage + a fixed set of Table 2 SRAM sparse compute PEs (elementwise
    over arrays, so a batch of designs shares the formula)."""
    mram_storage = (backbone_compressed_bits * MRAM_MACRO_UM2_PER_BIT
                    * MM2_PER_UM2)
    mram_periphery = mram_storage * MRAM_SPARSE_PERIPHERY_FACTOR
    sram_storage = sram_storage_bits * SRAM_MACRO_UM2_PER_BIT * MM2_PER_UM2
    sram_pes = n_sram_pes * sram_pe_mm2
    control = (mram_storage + mram_periphery + sram_storage + sram_pes) \
        * control_overhead_fraction
    return {
        "mram_storage": mram_storage,
        "mram_sparse_periphery": mram_periphery,
        "sram_storage": sram_storage,
        "sram_pes": sram_pes,
        "control": control,
        "global_buffer": buffer_mm2,
        "global_relu": relu_mm2,
    }


class AreaModel:
    """Composes storage + periphery + global-block areas for a design."""

    def __init__(self, tech: TechnologyModel = DEFAULT_TECH):
        self.tech = tech

    def dense_macro_mm2(self, bits: float, kind: str) -> float:
        """Macro-scale storage area (periphery included) for a dense design."""
        if kind == "sram":
            return bits * SRAM_MACRO_UM2_PER_BIT * MM2_PER_UM2
        if kind == "mram":
            return bits * MRAM_MACRO_UM2_PER_BIT * MM2_PER_UM2
        raise ValueError(f"unknown memory kind {kind!r}")

    def dense_design_area(self, model_bits: float, kind: str) -> AreaReport:
        """Per-component mm² breakdown of a dense (baseline) design."""
        gb = self.tech.global_blocks
        storage = self.dense_macro_mm2(model_bits, kind)
        control = storage * gb.control_overhead_fraction
        return AreaReport({
            f"{kind}_macros": storage,
            "control": control,
            "global_buffer": gb.buffer_area,
            "global_relu": gb.relu_area,
        })

    def hybrid_design_area(self, backbone_compressed_bits: float,
                           n_sram_pes: int,
                           sram_storage_bits: float = 0.0) -> AreaReport:
        """The hybrid's mm² breakdown (:func:`hybrid_area_components`)."""
        gb = self.tech.global_blocks
        return AreaReport(hybrid_area_components(
            backbone_compressed_bits, n_sram_pes, sram_storage_bits,
            self.tech.sram.total_area, gb.control_overhead_fraction,
            gb.buffer_area, gb.relu_area))
