"""Event counters shared by all PE/array simulators.

Every functional simulator in :mod:`repro.core` counts the micro-architectural
events that the cost models in :mod:`repro.energy` convert into energy, delay
and EDP: memory reads/writes (bit granularity), adder-tree activations,
accumulator updates, MAC operations and cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass
class PEStats:
    """Counters accumulated by a PE simulator run."""

    cycles: int = 0
    weight_bits_read: int = 0
    weight_bits_written: int = 0
    index_bits_read: int = 0
    index_bits_written: int = 0
    activation_bits_read: int = 0
    macs: int = 0                 # real (non-zero) multiply-accumulates
    dense_equivalent_macs: int = 0  # MACs a dense engine would have executed
    adder_tree_ops: int = 0
    shift_acc_ops: int = 0
    comparator_ops: int = 0
    mux_ops: int = 0
    rowwise_acc_ops: int = 0
    pipeline_stalls: int = 0

    def merge(self, other: "PEStats") -> "PEStats":
        """Accumulate another stats block into this one (returns self)."""
        for field in dataclasses.fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))
        return self

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    @property
    def mac_efficiency(self) -> float:
        """Real MACs / dense-equivalent MACs (1.0 = no skipped work)."""
        if self.dense_equivalent_macs == 0:
            return 0.0
        return self.macs / self.dense_equivalent_macs

    def __add__(self, other: "PEStats") -> "PEStats":
        out = PEStats()
        out.merge(self)
        out.merge(other)
        return out
