"""Energy/latency cost model: converts micro-architectural event counts and
analytical layer traffic into energy breakdowns.

Derivation of the per-op energies (documented so the numbers are auditable):

* A busy SRAM sparse PE draws the sum of its Table 2 component powers
  (~25.9 mW); in dense operation it completes ``rows * lanes`` bit-MACs per
  cycle = 128 8-bit MACs/cycle, giving ``e_mac_sram ~ 0.4 pJ``.
* In *sparse* operation the comparator gating idles most adder-tree inputs
  each phase, so MAC-related components scale with activity while the index
  decoder runs continuously; we fold this into a flat sparse overhead factor
  on the per-MAC energy.
* The MRAM near-memory periphery is conventional 28 nm digital logic, so its
  per-MAC energy is set comparable to the SRAM path (0.5 pJ) plus a per-row
  sensing/decode charge; MRAM's advantage is *leakage* (non-volatile array)
  and density, not per-op energy — consistent with the paper's Fig. 7
  narrative.
* Writes: SRAM ~2 fJ/bit and single-cycle; MRAM 48 fJ/bit (Table 2 MTJ
  set/reset) and a multi-cycle pulse — the asymmetry at the heart of the
  hybrid design.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..core.stats import PEStats
from .tech import DEFAULT_TECH, TechnologyModel

# --------------------------------------------------------------------------
# Arithmetic resolutions the per-op energies are derived for.  These must
# agree with the datapath width contracts in repro.core (single source of
# truth: repro/core/widths.py) — lint rule R7 cross-checks them, so e.g.
# widening activations to INT16 without re-deriving e_mac is a lint error.
# --------------------------------------------------------------------------

#: Weight operand width of one costed MAC (= widths.WEIGHT_BITS).
MAC_WEIGHT_BITS = 8

#: Activation operand width of one costed MAC (= widths.ACTIVATION_BITS).
MAC_ACTIVATION_BITS = 8

#: Accumulator width the shift-accumulate/adder-tree energies assume
#: (= widths.ACCUM_BITS; the functional simulator's int64).
MAC_ACCUMULATOR_BITS = 64


@dataclasses.dataclass
class EnergyBreakdown:
    """Energy in pJ split by source (the Fig. 7 leakage/read split)."""

    leakage_pj: float = 0.0
    compute_pj: float = 0.0   # "read" in the paper's plots: array reads + MACs
    write_pj: float = 0.0
    buffer_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return self.leakage_pj + self.compute_pj + self.write_pj + self.buffer_pj

    @property
    def read_pj(self) -> float:
        """Everything that is not leakage (the paper's 'Read' bar segment)."""
        return self.compute_pj + self.write_pj + self.buffer_pj

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            leakage_pj=self.leakage_pj + other.leakage_pj,
            compute_pj=self.compute_pj + other.compute_pj,
            write_pj=self.write_pj + other.write_pj,
            buffer_pj=self.buffer_pj + other.buffer_pj,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "leakage_pj": self.leakage_pj,
            "compute_pj": self.compute_pj,
            "write_pj": self.write_pj,
            "buffer_pj": self.buffer_pj,
            "total_pj": self.total_pj,
        }


def write_cycles(bits, row_bits, cycles_per_row, parallel_arrays):
    """Cycles to write ``bits`` a row at a time over ``parallel_arrays``
    row-parallel write ports (elementwise over arrays)."""
    rows = bits / (row_bits * parallel_arrays)
    return rows * cycles_per_row


def leakage_mw(sram_mw_per_mb, sram_bytes, mram_mw_per_array, mram_arrays):
    """Standby power of ``sram_bytes`` of SRAM plus ``mram_arrays`` MRAM
    sub-array peripheries (elementwise over arrays)."""
    sram_leak = sram_mw_per_mb * sram_bytes / (1 << 20)
    mram_leak = mram_mw_per_array * mram_arrays
    return sram_leak + mram_leak


class CostModel:
    """Per-op energies + converters from event counts to energy/latency."""

    #: Extra per-MAC energy factor in sparse mode (comparators + index
    #: decoders + partially-idle adder trees).
    SPARSE_OVERHEAD = 0.3

    def __init__(self, tech: TechnologyModel = DEFAULT_TECH):
        self.tech = tech
        sram, mram = tech.sram, tech.mram

        # Dense SRAM PIM: full array (rows*lanes weights) per weight_bits
        # cycles -> rows*lanes/weight_bits MACs per cycle.
        macs_per_cycle = sram.rows * sram.lanes / sram.weight_bits
        self.e_mac_sram_pj = tech.mw_to_pj_per_cycle(
            sram.active_power_mw) / macs_per_cycle

        # ASSUMPTION (see module docstring): MRAM near-memory digital MAC
        # costs about the same logic energy as the SRAM path.
        self.e_mac_mram_pj = 0.5
        # Per-row sensing + decode charge for the MRAM array.
        self.e_row_read_mram_pj = tech.mw_to_pj_per_cycle(
            mram.col_decoder_power + mram.row_decoder_power)

        self.e_write_sram_pj_per_bit = sram.write_energy_pj_per_bit
        self.e_write_mram_pj_per_bit = mram.write_energy_pj_per_bit
        self.e_buffer_pj_per_bit = tech.global_blocks.buffer_energy_pj_per_bit

    # ------------------------------------------------------------ converters
    def cycles_to_s(self, cycles: float) -> float:
        return cycles * self.tech.cycle_s

    def mac_pj(self, kind: str, sparse: bool = False) -> float:
        """Dynamic energy of one real multiply-accumulate."""
        if kind == "sram":
            e = self.e_mac_sram_pj
        elif kind == "mram":
            e = self.e_mac_mram_pj
        else:
            raise ValueError(f"unknown memory kind {kind!r}")
        if sparse:
            e *= 1.0 + self.SPARSE_OVERHEAD
        return e

    def mac_energy_pj(self, macs: float, kind: str, sparse: bool = False) -> float:
        """Dynamic energy of ``macs`` real multiply-accumulates."""
        return macs * self.mac_pj(kind, sparse)

    def write_energy_pj(self, bits: float, kind: str) -> float:
        if kind == "sram":
            return bits * self.e_write_sram_pj_per_bit
        if kind == "mram":
            return bits * self.e_write_mram_pj_per_bit
        raise ValueError(f"unknown memory kind {kind!r}")

    def write_row(self, kind: str) -> Tuple[int, int]:
        """(bits per written row, cycles per row write) of a memory."""
        if kind == "sram":
            spec = self.tech.sram
            return (spec.lanes * (spec.weight_bits + spec.index_bits),
                    spec.write_latency_cycles)
        if kind == "mram":
            return self.tech.mram.row_bits, self.tech.mram.write_latency_cycles
        raise ValueError(f"unknown memory kind {kind!r}")

    def write_latency_cycles(self, bits: float, kind: str,
                             parallel_arrays: int = 1) -> float:
        """Cycles to write ``bits`` given row-parallel write ports."""
        if parallel_arrays < 1:
            raise ValueError("parallel_arrays must be >= 1")
        return write_cycles(bits, *self.write_row(kind), parallel_arrays)

    def buffer_energy_pj(self, bits: float) -> float:
        return bits * self.e_buffer_pj_per_bit

    def leakage_power_mw(self, sram_bytes: float, mram_arrays: int) -> float:
        """Standby power of the provisioned memories."""
        return leakage_mw(self.tech.sram.leakage_mw_per_mb, sram_bytes,
                          self.tech.mram.periphery_leakage_mw, mram_arrays)

    # ------------------------------------------- functional-sim integration
    def pe_stats_energy(self, stats: PEStats, kind: str,
                        sparse: bool = True) -> EnergyBreakdown:
        """Energy breakdown (pJ) of a functional PE run's event counters."""
        compute = self.mac_energy_pj(stats.macs, kind, sparse=sparse)
        if kind == "mram":
            compute += stats.adder_tree_ops * self.e_row_read_mram_pj
        write = self.write_energy_pj(
            stats.weight_bits_written + stats.index_bits_written, kind)
        buffer = self.buffer_energy_pj(stats.activation_bits_read)
        return EnergyBreakdown(compute_pj=compute, write_pj=write,
                               buffer_pj=buffer)
