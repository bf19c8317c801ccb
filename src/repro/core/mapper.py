"""Mapping: weight matrices -> PE tiles -> the core/bank hierarchy.

Implements the paper's data-mapping strategy (Sec. 4 / Fig. 6):

* frozen backbone layers -> MRAM sparse PEs (written once at deployment),
* learnable Rep-Net layers -> SRAM sparse PEs (rewritten during learning),
* each architecture core provides 4x4 banks x 4x4 MRAM sub-arrays
  (= 16 MB per core, Sec. 5.2) plus the SRAM sparse PE pool.

Tiling: a ``(in_dim, out_dim)`` integer matrix is cut into row blocks that
are multiples of the N:M group size (so group alignment survives) and into
column blocks sized so each tile's *compressed* pairs fit one PE.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from ..obs import get_tracer
from ..sparsity.nm import NMPattern
from .mram_pe import MRAMPEConfig
from .sram_pe import SRAMPEConfig
from .workload import Workload


@dataclasses.dataclass(frozen=True)
class CoreConfig:
    """One hybrid core (paper Sec. 5.2: 4x4 banks of 4x4 MRAM sub-arrays)."""

    banks: int = 16                 # 4x4
    subarrays_per_bank: int = 16    # 4x4
    mram: MRAMPEConfig = dataclasses.field(default_factory=MRAMPEConfig)
    sram: SRAMPEConfig = dataclasses.field(default_factory=SRAMPEConfig)

    @property
    def mram_pes(self) -> int:
        return self.banks * self.subarrays_per_bank

    @property
    def mram_capacity_bytes(self) -> int:
        """16 MB with the default geometry — matching the paper's claim that
        a single core stores 16 MB (so the 26 MB dense model needs 2 cores)."""
        return self.mram_pes * self.mram.array_bits // 8


@dataclasses.dataclass
class Tile:
    """One PE-sized block of a layer's weight matrix."""

    layer: str
    row_offset: int
    col_offset: int
    rows: int
    cols: int
    pairs: int                      # compressed (weight, index) pairs
    kind: str                       # 'sram' | 'mram'
    pe_index: int = -1              # assigned by the mapper


@dataclasses.dataclass
class MappingPlan:
    """Where every layer's tiles live."""

    pattern: NMPattern
    tiles: List[Tile]
    sram_pes_used: int
    mram_pes_used: int
    cores_used: int

    @property
    def total_pairs(self) -> int:
        return sum(t.pairs for t in self.tiles)


def tile_layer_shapes(in_dim: int, out_dim: int, pattern: NMPattern,
                      pe_pairs: int, max_rows: int = 1024
                      ) -> List[Tuple[int, int, int, int]]:
    """Cut a matrix into (row_off, col_off, rows, cols) blocks.

    Row blocks are multiples of ``pattern.m`` (group alignment); column
    blocks are sized so the worst-case compressed pairs of a block —
    ``rows_per_block * density * cols`` — fit in ``pe_pairs``.
    """
    if in_dim <= 0 or out_dim <= 0:
        raise ValueError("matrix dimensions must be positive")
    m = pattern.m
    row_block = min(in_dim, max_rows)
    row_block = max(m, (row_block // m) * m)
    pairs_per_col = math.ceil(row_block * pattern.density)
    col_block = max(1, pe_pairs // max(1, pairs_per_col))

    blocks = []
    for r in range(0, in_dim, row_block):
        rows = min(row_block, in_dim - r)
        for c in range(0, out_dim, col_block):
            cols = min(col_block, out_dim - c)
            blocks.append((r, c, rows, cols))
    return blocks


class HybridMapper:
    """Maps a workload onto the hybrid core hierarchy."""

    def __init__(self, pattern: NMPattern,
                 core: Optional[CoreConfig] = None):
        self.pattern = pattern
        self.core = core or CoreConfig()

    def map_workload(self, workload: Workload) -> MappingPlan:
        """Assign every layer's tiles to PEs; frozen -> MRAM, learnable -> SRAM."""
        with get_tracer().span("mapper.map_workload",
                               workload=workload.name,
                               pattern=str(self.pattern)) as sp:
            plan = self._map_workload(workload)
            sp.count(tiles=len(plan.tiles), pairs=plan.total_pairs,
                     sram_pes=plan.sram_pes_used,
                     mram_pes=plan.mram_pes_used)
        return plan

    def _map_workload(self, workload: Workload) -> MappingPlan:
        tiles: List[Tile] = []
        sram_next = 0
        mram_next = 0
        sram_pairs = self.core.sram.pair_capacity
        mram_pairs = self.core.mram.rows * (
            self.core.mram.row_bits
            // (self.core.mram.weight_bits + self.core.mram.index_bits))

        for layer in workload.layers:
            kind = "sram" if layer.learnable else "mram"
            pe_pairs = sram_pairs if kind == "sram" else mram_pairs
            max_rows = (self.core.sram.rows if kind == "sram"
                        else self.core.mram.rows)
            for r, c, rows, cols in tile_layer_shapes(
                    layer.in_dim, layer.out_dim, self.pattern, pe_pairs,
                    max_rows=max_rows):
                pairs = math.ceil(rows * self.pattern.density) * cols
                if kind == "sram":
                    pe = sram_next
                    sram_next += 1
                else:
                    pe = mram_next
                    mram_next += 1
                tiles.append(Tile(layer.name, r, c, rows, cols, pairs,
                                  kind, pe))

        cores = max(1, math.ceil(mram_next / self.core.mram_pes))
        return MappingPlan(pattern=self.pattern, tiles=tiles,
                           sram_pes_used=sram_next, mram_pes_used=mram_next,
                           cores_used=cores)

    def storage_report(self, workload: Workload) -> Dict[str, float]:
        """Bytes by residence, plus the dense baseline for comparison."""
        plan = self.map_workload(workload)
        pair_bits = 8 + 4
        sram_bits = sum(t.pairs for t in plan.tiles if t.kind == "sram") * pair_bits
        mram_bits = sum(t.pairs for t in plan.tiles if t.kind == "mram") * pair_bits
        return {
            "sram_bytes": sram_bits / 8,
            "mram_bytes": mram_bits / 8,
            "dense_bytes": float(workload.dense_bytes()),
            "compression_ratio": (sram_bits + mram_bits)
            / max(1, workload.total_weights * 8),
            "cores_used": plan.cores_used,
            "sram_pes": plan.sram_pes_used,
            "mram_pes": plan.mram_pes_used,
        }


def dense_core_requirement(workload: Workload,
                           core: Optional[CoreConfig] = None) -> int:
    """Cores a *dense* (uncompressed) mapping needs — the paper's dual-core
    observation: 26 MB dense RepNet > 16 MB/core -> 2 cores."""
    core = core or CoreConfig()
    return max(1, math.ceil(workload.dense_bytes() / core.mram_capacity_bytes))
