"""Near-memory MRAM sparse PE (paper Fig. 5) — functional + pipeline model.

Organisation (Sec. 3.2): a 1024x512 STT-MRAM sub-array split into a sparse
weight section and an index section, plus digital periphery — row/column
decoders and drivers, sense amplifiers, a MUX into the activation buffer,
parallel shift-and-accumulators and an adder tree.  Computation is
near-memory: the array only stores; all MACs happen in the periphery.

Dataflow (Fig. 5 (4)/(5)): for each occupied row, the decoder activates the
row; the sense amplifiers read out the row's (weight, index) pairs; the
index values drive the activation-buffer MUX to *select* the activations the
non-zero weights pair with (this is where N:M sparsity pays off: the dense
activation buffer shrinks from ``M`` candidates to the ``N`` selected per
group — the figure's ``4*16*N*9 -> 4*2*N*9`` annotation for 2:16); the
parallel shift-and-accumulator multiplies each pair by shift-add over the
weight bits.  The three stages — (read idx + weight) -> (fetch activation)
-> (shift-acc) — are pipelined with an initiation interval of one row.

Cycle model: a row occupies the shift-add stage for ``weight_bits`` cycles
(serial shift-add over bit planes), stages overlap, so a sweep of ``R``
occupied rows takes ``(R + pipeline_depth - 1) * weight_bits`` cycles.

Writes are the expensive operation: every stored bit costs the MTJ set/reset
energy (Table 2: 0.048 pJ/bit) and the long MRAM write pulse — the reason
the *frozen backbone* lives here while the learnable path lives in SRAM.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..sparsity.nm import NMPattern
from .bitserial import require_signed_range
from .csc import CSCMatrix
from .kernels import KernelPlan, require_integer_activations, spmm_gather
from .sram_pe import check_weight_range
from .stats import PEStats
from .widths import width_contract

PIPELINE_DEPTH = 3  # read idx/weight -> fetch activation -> shift-acc


@dataclasses.dataclass(frozen=True)
class MRAMPEConfig:
    """Geometry of one MRAM sparse PE (defaults = the paper's 1024x512 array)."""

    rows: int = 1024
    row_bits: int = 512
    weight_bits: int = 8
    index_bits: int = 4
    input_bits: int = 8

    @property
    def pairs_per_row(self) -> int:
        """(weight, index) pairs stored per physical row."""
        return self.row_bits // (self.weight_bits + self.index_bits)

    @property
    def pair_capacity(self) -> int:
        return self.rows * self.pairs_per_row

    @property
    def array_bits(self) -> int:
        return self.rows * self.row_bits

    def __post_init__(self):
        if self.pairs_per_row < 1:
            raise ValueError("row too narrow for a single (weight, index) pair")


class MRAMSparsePE:
    """Functional + cycle model of the near-memory MRAM sparse PE."""

    def __init__(self, config: Optional[MRAMPEConfig] = None):
        self.config = config or MRAMPEConfig()
        self.csc: Optional[CSCMatrix] = None
        self.stats = PEStats()
        self._plan: Optional[KernelPlan] = None
        self._dense_cache: Optional[np.ndarray] = None  # decoded on demand
        self._rows_used = 0

    # ------------------------------------------------------------------ load
    def load(self, matrix: np.ndarray, pattern: NMPattern,
             strict: bool = True) -> None:
        """CSC-encode and store an integer ``(in_dim, out_dim)`` matrix.

        Charges MTJ write traffic.  For the continual-learning studies this
        happens exactly once (offline backbone deployment); the training loop
        never writes here.
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
                f"pattern {pattern} needs {pattern.index_bits}-bit indices")

        self.csc = csc
        self._plan = KernelPlan.from_csc(csc)
        self._dense_cache = None
        # Integer ceil-div: rows = ceil(nnz / pairs_per_row), float-free.
        self._rows_used = -(-csc.nnz // cfg.pairs_per_row)

        self.stats.weight_bits_written += csc.nnz * cfg.weight_bits
        self.stats.index_bits_written += csc.nnz * cfg.index_bits

    # ---------------------------------------------------------------- matmul
    @width_contract(inputs="i8", weights="i8", accum="i64",
                    returns="spmm_gather",
                    params={"activations": "inputs"})
    def matmul(self, activations: np.ndarray) -> np.ndarray:
        """Sparse matmul ``activations @ W`` through the near-memory pipeline.

        ``activations``: integer ``(batch, in_dim)`` within ``input_bits``
        signed range, else ``ValueError`` (the same check as the SRAM PE).
        The dense activation vector is held in the activation buffer; per
        stored pair the MUX gathers ``x[group * m + index]`` and the
        shift-and-accumulator forms the product.  Bit-exact with the dense
        integer matmul.
        """
        if self.csc is None:
            raise RuntimeError("load() a weight matrix first")
        csc = self.csc
        activations = np.atleast_2d(np.asarray(activations))
        batch, in_dim = activations.shape
        if in_dim != csc.shape[0]:
            raise ValueError(
                f"activation dim {in_dim} != matrix in_dim {csc.shape[0]}")
        require_integer_activations(activations, "MRAM PE")
        require_signed_range(activations, self.config.input_bits)

        out = spmm_gather(self._plan, activations)

        self._charge_matmul_stats(batch)
        return out

    def _charge_matmul_stats(self, batch: int) -> None:
        cfg = self.config
        csc = self.csc
        rows = self._rows_used
        if rows == 0:
            return
        sweep = (rows + PIPELINE_DEPTH - 1) * cfg.weight_bits
        self.stats.cycles += sweep * batch
        self.stats.weight_bits_read += csc.nnz * cfg.weight_bits * batch
        self.stats.index_bits_read += csc.nnz * cfg.index_bits * batch
        self.stats.activation_bits_read += csc.nnz * cfg.input_bits * batch
        self.stats.mux_ops += csc.nnz * batch
        self.stats.macs += csc.nnz * batch
        self.stats.dense_equivalent_macs += csc.shape[0] * csc.shape[1] * batch
        self.stats.shift_acc_ops += csc.nnz * batch
        self.stats.adder_tree_ops += rows * batch
        self.stats.pipeline_stalls += (PIPELINE_DEPTH - 1) * batch

    def dense_weight(self) -> np.ndarray:
        """Decoded dense matrix (for verification), decoded from the
        resident plan on the first call after a load."""
        if self._plan is None:
            raise RuntimeError("load() a weight matrix first")
        if self._dense_cache is None:
            self._dense_cache = self._plan.decode()
        return self._dense_cache


class MRAMDensePE:
    """Dense near-memory MRAM PE — the ISCAS'23-style no-sparsity baseline.

    Stores the full (zero-including) matrix; every row sweep reads all
    weights and executes all MACs.  No harness runs it: it is the dense
    reference that ``tests/test_mram_pe.py::TestDenseMRAM`` measures
    :class:`MRAMSparsePE`'s read, MAC and cycle savings against.
    """

    def __init__(self, config: Optional[MRAMPEConfig] = None):
        self.config = config or MRAMPEConfig()
        self.weight: Optional[np.ndarray] = None
        self.stats = PEStats()
        self._rows_used = 0

    @property
    def weights_per_row(self) -> int:
        return self.config.row_bits // self.config.weight_bits

    @property
    def weight_capacity(self) -> int:
        return self.config.rows * self.weights_per_row

    def load(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix)
        if matrix.size > self.weight_capacity:
            raise ValueError(
                f"matrix with {matrix.size} weights exceeds capacity "
                f"{self.weight_capacity}")
        self.weight = matrix.astype(np.int64)
        self._rows_used = -(-matrix.size // self.weights_per_row)
        self.stats.weight_bits_written += matrix.size * self.config.weight_bits

    @width_contract(inputs="i8", weights="i8", accum="i64",
                    depth="MAX_REDUCTION_DEPTH",
                    returns="depth * inputs * weights",
                    params={"activations": "inputs",
                            "self.weight": "weights"})
    def matmul(self, activations: np.ndarray) -> np.ndarray:
        if self.weight is None:
            raise RuntimeError("load() a weight matrix first")
        activations = np.atleast_2d(np.asarray(activations))
        require_integer_activations(activations, "MRAM PE")
        activations = activations.astype(np.int64)
        batch = activations.shape[0]
        out = activations @ self.weight

        cfg = self.config
        rows = self._rows_used
        sweep = (rows + PIPELINE_DEPTH - 1) * cfg.weight_bits
        self.stats.cycles += sweep * batch
        self.stats.weight_bits_read += self.weight.size * cfg.weight_bits * batch
        self.stats.activation_bits_read += self.weight.size * cfg.input_bits * batch
        self.stats.macs += self.weight.size * batch
        self.stats.dense_equivalent_macs += self.weight.size * batch
        self.stats.shift_acc_ops += self.weight.size * batch
        self.stats.adder_tree_ops += rows * batch
        return out
