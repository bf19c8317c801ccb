"""Bit-level model of the SRAM PIM array (paper Fig. 3, circuits 1-2).

Where :class:`~repro.core.sram_pe.SRAMSparsePE` models the PE at the
dataflow level (vectorized, fast), this module models it at the *bit-cell*
level: every stored weight is 8 physical bit-cells, every stored index 4
bit-cells, and each cycle evaluates the actual circuit primitives —

* the 8T cell's pass-gate AND of its stored bit with the shared input word
  line (one input bit per row per cycle),
* the per-pair 4-bit comparator against the lane's index-generator phase,
* the lane's adder tree summing the comparator-gated, bit-weighted columns
  (two's-complement weighting: the weight MSB column carries −128), and
* the shift accumulator applying the input bit-plane weight.

It is deliberately loop-heavy and slow; its purpose is *cross-validation*:
the test suite drives both models over the same packed contents and
requires bit-identical results, anchoring the fast model's arithmetic to
the circuit description.
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
    """Raw bit storage + per-cycle circuit evaluation for one PE array."""

    def __init__(self, config: Optional[SRAMPEConfig] = None):
        self.config = config or SRAMPEConfig()
        cfg = self.config
        # 8T compute cells: weight bits, one plane per bit position.
        self.weight_bits = np.zeros(
            (cfg.rows, cfg.lanes, cfg.weight_bits), dtype=np.uint8)
        # 6T index cells adjacent to each weight word.
        self.index_bits = np.zeros(
            (cfg.rows, cfg.lanes, cfg.index_bits), dtype=np.uint8)
        self.valid = np.zeros((cfg.rows, cfg.lanes), dtype=bool)

    # ------------------------------------------------------------------ store
    def store_pair(self, row: int, lane: int, weight: int, index: int) -> None:
        """Write one (weight, index) pair into its bit-cells."""
        cfg = self.config
        lo, hi = -(1 << (cfg.weight_bits - 1)), (1 << (cfg.weight_bits - 1)) - 1
        if not lo <= weight <= hi:
            raise ValueError(f"weight {weight} outside signed range")
        if not 0 <= index < (1 << cfg.index_bits):
            raise ValueError(f"index {index} outside {cfg.index_bits}-bit range")
        unsigned = weight + (1 << cfg.weight_bits) if weight < 0 else weight
        for b in range(cfg.weight_bits):
            self.weight_bits[row, lane, b] = (unsigned >> b) & 1
        for b in range(cfg.index_bits):
            self.index_bits[row, lane, b] = (index >> b) & 1
        self.valid[row, lane] = True

    def stored_weight(self, row: int, lane: int) -> int:
        """Decode the two's-complement weight back from its bit-cells."""
        cfg = self.config
        value = 0
        for b in range(cfg.weight_bits):
            value += plane_weight(b, cfg.weight_bits) \
                * int(self.weight_bits[row, lane, b])
        return value

    def stored_index(self, row: int, lane: int) -> int:
        return int(sum(int(self.index_bits[row, lane, b]) << b
                       for b in range(self.config.index_bits)))

    # ------------------------------------------------------------------ cycle
    @width_contract(inputs="u1", weights="u1", accum="i64",
                    depth="MAX_ARRAY_ROWS * BITSERIAL_MAX_BITS",
                    returns="MAX_ARRAY_ROWS * BITSERIAL_MAX_BITS"
                            " * (1 << (BITSERIAL_MAX_BITS - 1))",
                    params={"input_bits": "inputs"})
    def evaluate_cycle(self, input_bits: np.ndarray,
                       phase: int) -> np.ndarray:
        """One array cycle: AND, compare, adder-tree — per lane.

        ``input_bits``: one bit per row (the input word lines this cycle).
        ``phase``: the index generators' current value (shared across lanes
        here; per-lane phases are a trivial generalization).

        Returns the per-lane adder-tree outputs (signed partial sums).
        """
        cfg = self.config
        input_bits = np.asarray(input_bits)
        if input_bits.shape != (cfg.rows,):
            raise ValueError(
                f"need one input bit per row ({cfg.rows}), got "
                f"{input_bits.shape}")
        sums = np.zeros(cfg.lanes, dtype=np.int64)
        for lane in range(cfg.lanes):
            acc = 0
            for row in range(cfg.rows):
                if not self.valid[row, lane]:
                    continue
                # 4-bit comparator: stored index vs the generator phase.
                if self.stored_index(row, lane) != phase:
                    continue
                if input_bits[row] == 0:
                    continue  # pass-gate AND yields all-zero columns
                # 8T AND per bit column, summed with two's-complement
                # weights by the adder tree.
                for b in range(cfg.weight_bits):
                    if self.weight_bits[row, lane, b]:
                        acc += plane_weight(b, cfg.weight_bits)
            sums[lane] = acc
        return sums


class BitLevelSparsePE:
    """A complete sparse-matmul flow on :class:`BitCellArray`.

    Packs a CSC matrix with the same column-major policy as
    :class:`~repro.core.sram_pe.SRAMSparsePE` and executes the full
    phase x bit-plane schedule, including the shift accumulator and the
    row-wise (cross-lane) accumulation for spilled columns.

    No harness runs it: it is the gate-level oracle that
    ``tests/test_bitcell_array.py::TestCrossValidation`` holds
    ``SRAMSparsePE.matmul`` to, bit for bit.
    """

    def __init__(self, config: Optional[SRAMPEConfig] = None,
                 kernel: Optional[str] = None):
        self.config = config or SRAMPEConfig()
        self.kernel = kernel  # None -> the "fast" default
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
        (walked by its reference tier, folded by linearity in its fast
        tier), so this model cross-validates the storage circuits while the
        differential suite cross-validates the kernels.
        """
        if self._pattern is None:
            raise RuntimeError("load() a matrix first")
        cfg = self.config
        activations = np.atleast_2d(np.asarray(activations))
        batch, in_dim = activations.shape
        if in_dim != self._shape[0]:
            raise ValueError("activation dim mismatch")
        require_integer_activations(activations, "bit-level SRAM PE")
        return spmm_bitserial(self._plan, activations, cfg.input_bits,
                              impl=self.kernel)
