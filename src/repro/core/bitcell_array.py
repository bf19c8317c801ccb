"""Bit-level model of the SRAM PIM array (paper Fig. 3, circuits 1-2).

Where :class:`~repro.core.sram_pe.SRAMSparsePE` models the PE at the
dataflow level (vectorized, fast), this module models it at the *bit-cell*
level: every stored weight is 8 physical bit-cells (two's-complement
weighting: the weight MSB column carries −128).  The matmul's weights are
decoded back from those cells, and the phase x bit-plane schedule is the
shared bit-serial kernel's.

It is deliberately loop-heavy and slow; its purpose is *cross-validation*:
the test suite drives both models over the same packed contents and
requires bit-identical results, anchoring the fast model's storage to the
circuit description.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..sparsity.nm import NMPattern
from .bitserial import plane_weight
from .csc import CSCMatrix
from .kernels import (KernelPlan, require_integer_activations,
                      spmm_bitserial)
from .sram_pe import SRAMPEConfig
from .widths import width_contract


class BitCellArray:
    """Raw bit storage for one PE array."""

    def __init__(self, config: Optional[SRAMPEConfig] = None):
        self.config = config or SRAMPEConfig()
        cfg = self.config
        # 8T compute cells: weight bits, one plane per bit position.
        self.weight_bits = np.zeros(
            (cfg.rows, cfg.lanes, cfg.weight_bits), dtype=np.uint8)

    # ------------------------------------------------------------------ store
    def store_pair(self, row: int, lane: int, weight: int, index: int) -> None:
        """Write one pair's weight into its bit-cells.

        The index must fit the pair's ``index_bits``-wide index cells; the
        matmul reads row positions from the CSC encoding, so the index
        bits are not stored.
        """
        cfg = self.config
        lo, hi = -(1 << (cfg.weight_bits - 1)), (1 << (cfg.weight_bits - 1)) - 1
        if not lo <= weight <= hi:
            raise ValueError(f"weight {weight} outside signed range")
        if not 0 <= index < (1 << cfg.index_bits):
            raise ValueError(f"index {index} outside {cfg.index_bits}-bit range")
        unsigned = weight + (1 << cfg.weight_bits) if weight < 0 else weight
        for b in range(cfg.weight_bits):
            self.weight_bits[row, lane, b] = (unsigned >> b) & 1

    def stored_weight(self, row: int, lane: int) -> int:
        """Decode the two's-complement weight back from its bit-cells."""
        cfg = self.config
        value = 0
        for b in range(cfg.weight_bits):
            value += plane_weight(b, cfg.weight_bits) \
                * int(self.weight_bits[row, lane, b])
        return value


class BitLevelSparsePE:
    """A complete sparse-matmul flow on :class:`BitCellArray`.

    Packs a CSC matrix with the same column-major policy as
    :class:`~repro.core.sram_pe.SRAMSparsePE` and multiplies with the
    weights decoded back from the cells, spilled columns included; the
    phase x bit-plane schedule is the shared bit-serial kernel's.

    No harness runs it: it is the gate-level oracle that
    ``tests/test_bitcell_array.py::TestCrossValidation`` holds
    ``SRAMSparsePE.matmul`` to, bit for bit.
    """

    def __init__(self, config: Optional[SRAMPEConfig] = None):
        self.config = config or SRAMPEConfig()
        self.array = BitCellArray(self.config)
        self._placements: List[List[Tuple[int, int]]] = []  # per column: cells
        self._col_rows: List[np.ndarray] = []
        self._plan: Optional[KernelPlan] = None
        self._pattern: Optional[NMPattern] = None
        self._shape: Optional[Tuple[int, int]] = None

    def load(self, matrix: np.ndarray, pattern: NMPattern) -> None:
        csc = CSCMatrix.from_dense(np.asarray(matrix), pattern, strict=False)
        cfg = self.config
        if csc.nnz > cfg.pair_capacity:
            raise ValueError("matrix exceeds PE capacity; tile first")
        lane, row = 0, 0
        self._placements = []
        self._col_rows = []
        for col in csc.columns:
            cells: List[Tuple[int, int]] = []
            for value, intra in zip(col.values, col.intra_indices):
                if row == cfg.rows:
                    lane, row = lane + 1, 0
                self.array.store_pair(row, lane, int(value), int(intra))
                cells.append((row, lane))
                row += 1
            self._placements.append(cells)
            self._col_rows.append(col.row_indices(pattern.m))
        self._pattern = pattern
        self._shape = csc.shape
        self._plan = self._plan_from_cells()

    def _plan_from_cells(self) -> KernelPlan:
        """Rebuild the kernel plan by decoding the stored bit-cells.

        Every weight goes through :meth:`BitCellArray.stored_weight` — the
        per-bit two's-complement decode over the physical cells — so the
        matmul operands are anchored to the bit-level storage, not to the
        CSC input that produced it.
        """
        columns: List[Tuple[np.ndarray, np.ndarray]] = []
        for cells, rows in zip(self._placements, self._col_rows):
            values = np.array([self.array.stored_weight(r, l)
                               for r, l in cells], dtype=np.int64)
            columns.append((np.asarray(rows, dtype=np.int64), values))
        return KernelPlan.from_columns(columns, self._shape)

    @width_contract(inputs="i8", weights="i8", accum="i64",
                    depth="MAX_REDUCTION_DEPTH",
                    returns="spmm_bitserial",
                    params={"activations": "inputs"})
    def matmul(self, activations: np.ndarray) -> np.ndarray:
        """Exact sparse matmul over the bit-cell contents.

        The operands are read back bit-by-bit from the array (see
        :meth:`_plan_from_cells`); the phase x bit-plane schedule itself is
        the shared :func:`~repro.core.kernels.spmm_bitserial` kernel's job
        (folded by linearity; its oracle walks the planes), so this model
        cross-validates the storage circuits while the differential suite
        cross-validates the kernels.
        """
        if self._pattern is None:
            raise RuntimeError("load() a matrix first")
        cfg = self.config
        activations = np.atleast_2d(np.asarray(activations))
        batch, in_dim = activations.shape
        if in_dim != self._shape[0]:
            raise ValueError("activation dim mismatch")
        require_integer_activations(activations, "bit-level SRAM PE")
        return spmm_bitserial(self._plan, activations, cfg.input_bits)
