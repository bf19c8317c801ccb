"""Compressed Sparse Column (CSC) encoding of N:M-sparse weight matrices.

Orientation convention (used everywhere in :mod:`repro.core`): a weight
matrix is stored PIM-style as ``(in_dim, out_dim)`` — rows are the reduction
(input) dimension driven by the shared input word lines, columns are output
neurons accumulated by the adder trees.  The N:M pattern runs **down each
column** (along the reduction dimension, as in NVIDIA's 2:4), i.e. every
aligned group of ``m`` consecutive rows of a column holds at most ``n``
non-zeros.

CSC compresses each column: only the non-zero values survive, each paired
with its position within its group of ``m`` — a ``ceil(log2(m))``-bit index
(4 bits for the hardware's N:16 upper bound).  This is exactly the
``(compressed weight matrix, index matrix)`` pair of the paper's Fig. 4.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Tuple

import numpy as np

from ..sparsity.nm import NMPattern, verify_nm


@dataclasses.dataclass
class CSCColumn:
    """One compressed column: parallel arrays of values / group ids / indices."""

    values: np.ndarray        # int, non-zero weight values in row order
    group_ids: np.ndarray     # which group of m each value came from
    intra_indices: np.ndarray  # position within the group (0..m-1)

    def __post_init__(self):
        if not (len(self.values) == len(self.group_ids) == len(self.intra_indices)):
            raise ValueError("CSCColumn arrays must be parallel")
        # Same runtime guard as the kernel layer (lint rule R1's surface):
        # a float value sneaking in here would be silently truncated by the
        # int64 casts at decode/plan time.
        from .kernels import require_integer_values
        self.values = require_integer_values(self.values, "CSCColumn")
        self.group_ids = require_integer_values(
            self.group_ids, "CSCColumn group ids")
        self.intra_indices = require_integer_values(
            self.intra_indices, "CSCColumn intra indices")

    @property
    def nnz(self) -> int:
        return len(self.values)

    def row_indices(self, m: int) -> np.ndarray:
        """Original (uncompressed) row index of every stored value."""
        return self.group_ids * m + self.intra_indices


class CSCMatrix:
    """An N:M-sparse matrix in compressed sparse column form.

    The matrix *is* the CSC triplet: ``values`` (int64 non-zeros,
    column-major, rows ascending within a column), their dense
    ``row_indices`` and ``col_ptr`` (``out_dim + 1`` offsets; column ``c``
    owns ``col_ptr[c]:col_ptr[c+1]``).  Use :meth:`from_dense` to encode;
    :meth:`decode` round-trips back to the dense array (tested property:
    exact for any matrix satisfying the pattern).
    """

    def __init__(self, values: np.ndarray, row_indices: np.ndarray,
                 col_ptr: np.ndarray, shape: Tuple[int, int],
                 pattern: NMPattern):
        if len(col_ptr) != shape[1] + 1:
            raise ValueError(f"{len(col_ptr) - 1} columns for shape {shape}")
        self.values = values
        self.row_indices = row_indices
        self.col_ptr = col_ptr
        self.shape = shape
        self.pattern = pattern

    # -------------------------------------------------------------- encoding
    @classmethod
    def from_dense(cls, matrix: np.ndarray, pattern: NMPattern,
                   strict: bool = True) -> "CSCMatrix":
        """Encode a dense ``(in_dim, out_dim)`` matrix.

        ``strict=True`` (default) raises if any group violates the N:M
        budget; ``strict=False`` accepts arbitrary sparsity (the row-wise
        accumulator hardware tolerates uneven columns, Sec. 3.1, at a cycle
        cost the PE simulator charges).
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
        if not np.issubdtype(matrix.dtype, np.integer):
            raise TypeError(
                "CSC encodes integer (quantized) weights; quantize first "
                f"(got dtype {matrix.dtype})")
        if strict and not verify_nm(matrix, pattern, axis=0):
            raise ValueError(
                f"matrix violates the {pattern} pattern along the reduction "
                "dimension; prune first or pass strict=False")

        in_dim, out_dim = matrix.shape
        # Non-zeros of the transpose in C order: column-major, rows ascending.
        cols, rows = np.nonzero(matrix.T)
        col_ptr = np.zeros(out_dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=out_dim), out=col_ptr[1:])
        return cls(matrix[rows, cols].astype(np.int64),
                   rows.astype(np.int64, copy=False), col_ptr,
                   (in_dim, out_dim), pattern)

    @functools.cached_property
    def columns(self) -> List[CSCColumn]:
        """Per-column views of the triplet (built on first access)."""
        m = self.pattern.m
        ptr = self.col_ptr.tolist()
        return [CSCColumn(values=self.values[lo:hi],
                          group_ids=self.row_indices[lo:hi] // m,
                          intra_indices=self.row_indices[lo:hi] % m)
                for lo, hi in zip(ptr[:-1], ptr[1:])]

    # -------------------------------------------------------------- decoding
    def decode(self) -> np.ndarray:
        """Reconstruct the dense matrix (exact)."""
        from .kernels import KernelPlan
        return KernelPlan.from_csc(self).decode()

    # ------------------------------------------------------------ statistics
    @property
    def nnz(self) -> int:
        return int(self.col_ptr[-1])
