"""Bit-serial digital SRAM sparse PE (paper Fig. 3) — functional + cycle model.

Physical organisation (Sec. 3.1): a 128x96 bit-cell array organised as 8
column groups, each row of a group holding a 12-bit (8-bit weight, 4-bit
index) pair; per column group an index generator, 128x8 comparators and a
128-input 8-bit adder tree; a shift accumulator for bit-serial input
precision compensation and a row-wise accumulator for uneven column
sparsity.

Dataflow model (documented interpretation of the paper's Steps 1-3):

* The CSC-compressed entries of each logical output column are packed
  contiguously down a column group; a group's entries for input-group ``g``
  occupy consecutive physical rows.
* Activations stream bit-serially on the shared input word lines; the 8T
  bit-cells AND the input bit with each stored weight bit (Step 1 — parallel
  in-memory dot products).
* Each column group's index generator sweeps the intra-group index phase
  ``t = 0..m-1``; the per-row comparators fire when the stored 4-bit index
  matches ``t``, gating that row's partial product into the adder tree
  (Step 2 — index generation and compare).  Gating *accumulation* this way is
  exactly why CSC (and not CSR) is the right compression: multiplication
  against the shared word line is preserved, only the column-sum is
  re-ordered in time.
* The adder tree sums the gated products and the shift accumulator applies
  the two's-complement bit weighting (Step 3); when a logical column's
  compressed entries straddle two column groups (uneven sparsity), the
  row-wise accumulator merges the two partial sums.

Per input vector the PE therefore spends ``pattern.m * input_bits`` cycles
(index phases x bit planes), with every column group operating in parallel.

The functional result is bit-exact with the integer matmul of the decoded
sparse matrix — a property-based test enforces this.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..sparsity.nm import NMPattern
from .bitserial import from_partials, to_bit_planes
from .csc import CSCMatrix
from .kernels import KernelPlan, spmm_bitserial
from .stats import PEStats
from .widths import width_contract


@dataclasses.dataclass(frozen=True)
class SRAMPEConfig:
    """Geometry of one SRAM sparse PE (defaults = the paper's 128x96 macro)."""

    rows: int = 128
    lanes: int = 8          # column groups (weight+index pairs per row)
    weight_bits: int = 8
    index_bits: int = 4
    input_bits: int = 8

    @property
    def pair_capacity(self) -> int:
        """Total (weight, index) pairs the array stores."""
        return self.rows * self.lanes

    @property
    def array_bits(self) -> int:
        """Total bit-cells, weight + index sections (128x96 by default)."""
        return self.rows * self.lanes * (self.weight_bits + self.index_bits)

    def __post_init__(self):
        if self.rows <= 0 or self.lanes <= 0:
            raise ValueError("rows and lanes must be positive")
        if (1 << self.index_bits) < 2:
            raise ValueError("index_bits too small")


def check_weight_range(matrix: np.ndarray, bits: int) -> None:
    """Reject weights outside the signed ``bits``-bit range."""
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if matrix.size and (matrix.min() < lo or matrix.max() > hi):
        raise ValueError(f"weights outside signed {bits}-bit range")


class SRAMSparsePE:
    """Functional + cycle-accurate model of the SRAM sparse PE."""

    def __init__(self, config: Optional[SRAMPEConfig] = None):
        self.config = config or SRAMPEConfig()
        self.csc: Optional[CSCMatrix] = None
        self.lanes_used = 0      # lanes holding at least one entry
        self.spill_columns = 0   # columns whose entries straddle two lanes
        self.stats = PEStats()
        self._plan: Optional[KernelPlan] = None
        self._dense_cache: Optional[np.ndarray] = None  # decoded on demand
        # Whether the resident support was checked against its N:M pattern
        # (loaded with ``strict=True``); a same-support rewrite keeps it.
        self._nm_checked = False

    # ------------------------------------------------------------------ load
    def load(self, matrix: np.ndarray, pattern: NMPattern,
             strict: bool = True) -> None:
        """CSC-encode an integer ``(in_dim, out_dim)`` matrix and map it.

        Charges the write traffic (weight + index bits) to the stats block —
        this is the cost that makes SRAM the right home for the learnable
        path (fast, cheap writes) and is central to the Fig. 8 EDP study.
        """
        cfg = self.config
        matrix = np.asarray(matrix)
        check_weight_range(matrix, cfg.weight_bits)
        csc = CSCMatrix.from_dense(matrix, pattern, strict=strict)
        if csc.nnz > cfg.pair_capacity:
            raise ValueError(
                f"compressed matrix needs {csc.nnz} pairs; PE holds "
                f"{cfg.pair_capacity} — tile the matrix first")
        if pattern.index_bits > cfg.index_bits:
            raise ValueError(
                f"pattern {pattern} needs {pattern.index_bits}-bit indices; "
                f"PE provides {cfg.index_bits}")

        # Column-major packing with spill into the next lane: column c owns
        # the lane-major slots col_ptr[c]:col_ptr[c+1], slot k sitting in
        # lane k // rows.
        starts, ends = csc.col_ptr[:-1], csc.col_ptr[1:]
        self.csc = csc
        self.lanes_used = -(-csc.nnz // cfg.rows)
        self.spill_columns = int(np.count_nonzero(
            (ends > starts) & ((ends - 1) // cfg.rows > starts // cfg.rows)))
        self._plan = KernelPlan.from_csc(csc)
        self._dense_cache = None
        self._nm_checked = strict
        self._charge_write()

    def _charge_write(self) -> None:
        """Write traffic of one resident matrix: every (weight, index) pair."""
        cfg = self.config
        self.stats.weight_bits_written += self.csc.nnz * cfg.weight_bits
        self.stats.index_bits_written += self.csc.nnz * cfg.index_bits

    # ---------------------------------------------------------------- matmul
    @width_contract(inputs="i8", weights="i8", accum="i64",
                    returns="spmm_bitserial",
                    params={"activations": "inputs"})
    def matmul(self, activations: np.ndarray) -> np.ndarray:
        """Sparse matrix multiplication ``activations @ W`` on the PE.

        ``activations``: integer ``(batch, in_dim)`` within ``input_bits``
        signed range.  Returns int64 ``(batch, out_dim)``.

        Cycles and energy are charged analytically from nnz, geometry and
        batch.  The numbers come from :func:`spmm_bitserial`, which folds
        the bit planes x index phases x comparator gating away by linearity
        (its oracle walks them); it equals ``activations @ dense`` exactly
        and rejects non-integer activations, a wrong ``in_dim`` and
        activations outside the signed ``input_bits`` range.
        """
        if self.csc is None:
            raise RuntimeError("load() a weight matrix first")
        # The kernel validates the activations: shape, dtype and range.
        out = spmm_bitserial(self._plan, activations, self.config.input_bits)
        self._charge_matmul_stats(out.shape[0])
        return out

    def _charge_matmul_stats(self, batch: int) -> None:
        cfg = self.config
        csc = self.csc
        pattern = csc.pattern
        sweep_cycles = pattern.m * cfg.input_bits

        self.stats.cycles += sweep_cycles * batch
        self.stats.activation_bits_read += csc.shape[0] * cfg.input_bits * batch
        self.stats.macs += csc.nnz * batch
        self.stats.dense_equivalent_macs += csc.shape[0] * csc.shape[1] * batch
        # Each stored weight participates in its matching phase on every bit
        # plane; comparators evaluate every phase.
        self.stats.weight_bits_read += csc.nnz * cfg.weight_bits * cfg.input_bits * batch
        self.stats.index_bits_read += csc.nnz * cfg.index_bits * pattern.m * batch
        self.stats.comparator_ops += csc.nnz * pattern.m * batch
        self.stats.adder_tree_ops += self.lanes_used * sweep_cycles * batch
        self.stats.shift_acc_ops += self.lanes_used * sweep_cycles * batch
        self.stats.rowwise_acc_ops += self.spill_columns * cfg.input_bits * batch

    # ------------------------------------------------------------- dense ref
    def dense_weight(self) -> np.ndarray:
        """Decoded dense matrix (for verification).

        Decoded from the resident plan on the first call after a load or
        rewrite, then cached until the next one.
        """
        if self._plan is None:
            raise RuntimeError("load() a weight matrix first")
        if self._dense_cache is None:
            self._dense_cache = self._plan.decode()
        return self._dense_cache

    # --------------------------------------------------------------- updates
    def update_weights(self, matrix: np.ndarray, pattern: NMPattern,
                       strict: bool = True) -> None:
        """Weight rewrite (one training step's weight update).

        When ``matrix`` is non-zero at exactly the resident positions (same
        pattern, shape and integer dtype), only the values are rewritten:
        the new ``csc`` and plan share the resident ``row_indices`` and
        ``col_ptr``, the plan's dense panel is an int64 copy of ``matrix``,
        and lane packing is unchanged.
        Same support implies N:M only if the resident load checked it, so a
        ``strict`` update over a ``strict=False`` resident takes the full
        path.  Every other matrix (a moved support, a value that reaches
        zero) takes :meth:`load`, with its errors.  Either way the PE ends
        exactly as a fresh :meth:`load` of ``matrix`` leaves it, with the
        same write bits charged (every pair's weight and index bits), and a
        ``csc`` captured before the call is left unchanged.
        """
        matrix = np.asarray(matrix)
        values = self._same_support_values(matrix, pattern, strict)
        if values is None:
            self.load(matrix, pattern, strict=strict)
            return
        csc = self.csc
        self.csc = CSCMatrix(values, csc.row_indices, csc.col_ptr, csc.shape,
                             csc.pattern)
        self._plan = self._plan.with_values(values, matrix)
        self._dense_cache = None
        self._charge_write()

    def _same_support_values(self, matrix: np.ndarray, pattern: NMPattern,
                             strict: bool) -> Optional[np.ndarray]:
        """``matrix``'s values in resident CSC order if it keeps the
        resident support, else ``None``.  An out-of-range matrix raises
        :meth:`load`'s range error."""
        csc = self.csc
        if (csc is None or pattern != csc.pattern or matrix.shape != csc.shape
                or not np.issubdtype(matrix.dtype, np.integer)
                or (strict and not self._nm_checked)):
            return None
        check_weight_range(matrix, self.config.weight_bits)
        if np.count_nonzero(matrix) != csc.nnz:
            return None
        values = matrix[csc.row_indices, self._plan.entry_cols]
        return values.astype(np.int64, copy=False) if values.all() else None


class DenseDigitalPE:
    """Dense bit-serial digital PIM PE — the no-sparsity-support baseline.

    Models macros like the ISSCC'21 SRAM CIM [29]: the whole (zero-including)
    matrix is stored and every MAC is executed.  No harness runs it (Fig. 7/8
    price the dense baseline analytically, in :mod:`repro.core.designs`): it
    is the dense reference that ``tests/test_sram_pe.py::TestSparseVsDense``
    measures the sparse PE's MAC savings against.
    """

    def __init__(self, rows: int = 128, cols: int = 8, weight_bits: int = 8,
                 input_bits: int = 8):
        self.rows = rows
        self.cols = cols
        self.weight_bits = weight_bits
        self.input_bits = input_bits
        self.weight: Optional[np.ndarray] = None
        self.stats = PEStats()

    @property
    def array_bits(self) -> int:
        return self.rows * self.cols * self.weight_bits

    def load(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix)
        if matrix.shape[0] > self.rows or matrix.shape[1] > self.cols:
            raise ValueError(
                f"matrix {matrix.shape} exceeds PE geometry "
                f"({self.rows}x{self.cols})")
        self.weight = matrix.astype(np.int64)
        self.stats.weight_bits_written += matrix.size * self.weight_bits

    @width_contract(inputs="i8", weights="i8", accum="i64",
                    depth="MAX_REDUCTION_DEPTH",
                    returns="from_partials",
                    params={"activations": "inputs",
                            "self.weight": "weights"})
    def matmul(self, activations: np.ndarray) -> np.ndarray:
        if self.weight is None:
            raise RuntimeError("load() a weight matrix first")
        activations = np.atleast_2d(np.asarray(activations))
        batch, in_dim = activations.shape
        if in_dim != self.weight.shape[0]:
            raise ValueError("activation dim mismatch")

        planes = to_bit_planes(activations, self.input_bits)
        partials = np.stack([planes[b] @ self.weight
                             for b in range(self.input_bits)])
        out = from_partials(partials, self.input_bits)

        self.stats.cycles += self.input_bits * batch
        self.stats.activation_bits_read += in_dim * self.input_bits * batch
        self.stats.macs += self.weight.size * batch
        self.stats.dense_equivalent_macs += self.weight.size * batch
        self.stats.weight_bits_read += (
            self.weight.size * self.weight_bits * self.input_bits * batch)
        self.stats.adder_tree_ops += self.weight.shape[1] * self.input_bits * batch
        self.stats.shift_acc_ops += self.weight.shape[1] * self.input_bits * batch
        return out
