"""Sparse-PE compute kernels: one production kernel per dataflow.

Both PE functional models reduce to the same two primitives:

* :func:`spmm_gather` — the MRAM near-memory dataflow (Fig. 5): per stored
  (weight, index) pair the activation-buffer MUX gathers ``x[group*m + idx]``
  and the shift-and-accumulators fold the products per output column.
* :func:`spmm_bitserial` — the SRAM in-memory dataflow (Fig. 3): activations
  stream as two's-complement bit planes, comparator-gated partial products
  are adder-tree-summed per plane, and the shift accumulator recombines the
  planes.

Each runs as one dense product.  A :class:`KernelPlan` built once at
``load()`` time shares the CSC triplet (contiguous ``values`` /
``row_indices`` / ``col_ptr`` arrays) and scatters it into a dense
``(in_dim, out_dim)`` panel, so an entire matmul is ``activations @
panel``: one float64 BLAS GEMM when that is provably exact, numpy's int64
matmul otherwise (:mod:`repro.core.exact_gemm`).  Both dataflows sum the
same products, only in a different order, and integer sums do not depend
on order.  The SRAM kernel needs no bit planes at all: by linearity,
``sum_b plane_weight(b) * plane_b(x) == x`` for every in-range ``x``, so
the shift-accumulated plane partials equal the plain product.  After the
same signed-range check the planes would enforce, it *is* that product.

:func:`spmm_gather_reference` and :func:`spmm_bitserial_reference` keep the
readable per-column (and per-bit-plane) loops the PE models originally
inlined: easy to audit against the paper's dataflow description, slow, and
run by tests only.  They are the oracles ``tests/test_kernels_differential.py``
holds the production kernels to, bit for bit on int64; the tests substitute
them into the PE modules to compare whole PEs and accelerators.  Stats
charging lives in the PE models and is analytical (derived from nnz,
geometry and batch, never from loop trip counts), so the substitution can
never change reported cycles, energy or any other hardware number.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_tracer
from .bitserial import from_partials, require_signed_range, to_bit_planes
from .exact_gemm import DensePanel, exact_matmul
from .widths import BITSERIAL_MAX_BITS, width_contract

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .csc import CSCMatrix

def require_integer_activations(activations: np.ndarray, pe_name: str) -> None:
    """Reject float activations up front (silent truncation is a footgun)."""
    if not np.issubdtype(np.asarray(activations).dtype, np.integer):
        raise TypeError(f"{pe_name} consumes integer activations")


def require_integer_values(values: np.ndarray, context: str) -> np.ndarray:
    """Reject float weight/index arrays before an ``astype`` truncates them.

    The runtime counterpart of lint rule R1: every array entering the
    kernel plan must already be integer (quantize first), so the int64
    casts inside the plan builder are always exact.  Returns the array
    (as ``np.asarray``) for call-site convenience.
    """
    values = np.asarray(values)
    if values.dtype == np.bool_:
        raise TypeError(
            f"{context} stores integer values; got booleans "
            "(cast explicitly if 0/1 planes are intended)")
    if values.dtype == object:
        # np.asarray falls back to object for ints beyond int64 and for
        # ragged/mixed inputs; neither can enter the kernel plan exactly.
        raise TypeError(
            f"{context} stores integer values; got object dtype "
            "(ints beyond int64 or mixed element types)")
    # Empty arrays default to float64 without meaning it; nothing to truncate.
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise TypeError(
            f"{context} stores integer values; got dtype {values.dtype} "
            f"(quantize before encoding)")
    if values.ndim == 0:
        # Python ints and 0-d arrays normalise to a 0-d int64 array, so
        # scalars flow through the same dtype path as 1-d+ inputs.
        return values.astype(np.int64)
    return values


@dataclasses.dataclass(frozen=True)
class KernelPlan:
    """A CSC matrix flattened into kernel-ready arrays, built once per load.

    ``values`` / ``row_indices`` / ``col_ptr`` are the classic compressed
    sparse column triplet (``col_ptr`` has ``out_dim + 1`` entries; column
    ``c`` owns the half-open slice ``col_ptr[c]:col_ptr[c+1]``).  ``panel``
    is the same matrix scattered dense, ``(in_dim, out_dim)`` as int64 and
    float64 (:class:`~repro.core.exact_gemm.DensePanel`), which is what
    lets the production kernels run a whole matmul as one GEMM.
    """

    shape: Tuple[int, int]
    values: np.ndarray        # (nnz,) int64 — non-zero weights, column-major
    row_indices: np.ndarray   # (nnz,) int64 — original (dense) row of each value
    col_ptr: np.ndarray       # (out_dim + 1,) int64 — column start offsets
    panel: DensePanel         # (in_dim, out_dim) — the dense weight matrix
    #: The column of every CSC entry.  Derived from ``col_ptr`` alone, so
    #: plans on the same support share it.
    entry_cols: Optional[np.ndarray] = dataclasses.field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.entry_cols is None:
            object.__setattr__(self, "entry_cols", _entry_cols(self.col_ptr))

    # ------------------------------------------------------------ construction
    @classmethod
    def from_columns(cls, columns: Sequence[Tuple[np.ndarray, np.ndarray]],
                     shape: Tuple[int, int]) -> "KernelPlan":
        """Build a plan from per-column ``(row_indices, values)`` pairs."""
        out_dim = shape[1]
        if len(columns) != out_dim:
            raise ValueError(f"{len(columns)} columns for shape {shape}")
        counts = np.array([len(rows) for rows, _ in columns], dtype=np.int64)
        col_ptr = np.zeros(out_dim + 1, dtype=np.int64)
        np.cumsum(counts, out=col_ptr[1:])
        if col_ptr[-1]:
            row_indices = np.concatenate(
                [require_integer_values(rows, "KernelPlan row indices")
                 .astype(np.int64) for rows, _ in columns])
            values = np.concatenate(
                [require_integer_values(vals, "KernelPlan values")
                 .astype(np.int64) for _, vals in columns])
        else:
            row_indices = np.zeros(0, dtype=np.int64)
            values = np.zeros(0, dtype=np.int64)
        return cls._from_triplet(values, row_indices, col_ptr, shape)

    @classmethod
    def from_csc(cls, csc: "CSCMatrix") -> "KernelPlan":
        """Plan sharing (not copying) a :class:`~repro.core.csc.CSCMatrix`'s
        triplet arrays."""
        return cls._from_triplet(csc.values, csc.row_indices, csc.col_ptr,
                                 csc.shape)

    @classmethod
    def _from_triplet(cls, values: np.ndarray, row_indices: np.ndarray,
                      col_ptr: np.ndarray,
                      shape: Tuple[int, int]) -> "KernelPlan":
        entry_cols = _entry_cols(col_ptr)
        panel = _scatter_panel(shape, row_indices, entry_cols, values)
        return cls(shape, values, row_indices, col_ptr, panel, entry_cols)

    # -------------------------------------------------------------- inspection
    @property
    def nnz(self) -> int:
        return len(self.values)

    def column_slices(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(column, row_indices, values)`` — the oracles'
        view of the plan, identical to walking ``csc.columns``."""
        for c in range(self.shape[1]):
            lo, hi = self.col_ptr[c], self.col_ptr[c + 1]
            yield c, self.row_indices[lo:hi], self.values[lo:hi]

    def decode(self) -> np.ndarray:
        """The dense ``(in_dim, out_dim)`` int64 matrix: a writable copy of
        the panel."""
        return self.panel.ints.copy()

    def with_values(self, values: np.ndarray) -> "KernelPlan":
        """The same support carrying new ``values`` (int64, one per entry).

        Holds ``values`` as given and shares ``row_indices``, ``col_ptr``
        and ``entry_cols``; the panel is scattered afresh, so this plan is
        left unchanged.
        """
        panel = _scatter_panel(self.shape, self.row_indices, self.entry_cols,
                               values)
        return KernelPlan(self.shape, values, self.row_indices, self.col_ptr,
                          panel, self.entry_cols)


def _entry_cols(col_ptr: np.ndarray) -> np.ndarray:
    """The column of every CSC entry (``col_ptr`` starts at 0 and ends at
    the entry count, as in every CSC triplet)."""
    return np.repeat(np.arange(len(col_ptr) - 1, dtype=np.int64),
                     np.diff(col_ptr))


def _scatter_panel(shape: Tuple[int, int], row_indices: np.ndarray,
                   entry_cols: np.ndarray, values: np.ndarray) -> DensePanel:
    """Scatter the entries into a dense panel.  Entries that share a cell
    add up, as their products do in the per-column oracles."""
    ints = np.zeros(shape[0] * shape[1], dtype=np.int64)
    np.add.at(ints, row_indices * shape[1] + entry_cols, values)
    return DensePanel.from_ints(ints.reshape(shape))


def _check_activations(plan: KernelPlan, activations: np.ndarray,
                       input_bits: int, kernel: str) -> np.ndarray:
    """2-D integer activations of the plan's ``in_dim`` that fit signed
    ``input_bits``, else ``TypeError`` / ``ValueError``."""
    activations = np.atleast_2d(np.asarray(activations))
    require_integer_activations(activations, kernel)
    if activations.shape[1] != plan.shape[0]:
        raise ValueError(
            f"activation dim {activations.shape[1]} != matrix in_dim "
            f"{plan.shape[0]}")
    require_signed_range(activations, input_bits)
    return activations


# ---------------------------------------------------------------------------
# spmm_gather — MRAM-style MUX-select dataflow
# ---------------------------------------------------------------------------

@width_contract(inputs="i8", weights="i8", accum="i64",
                returns="exact_matmul",
                params={"activations": "inputs"})
def spmm_gather(plan: KernelPlan, activations: np.ndarray,
                input_bits: int) -> np.ndarray:
    """``activations @ W`` via MUX-select gather (int64, bit-exact).

    ``activations``: integer ``(batch, in_dim)`` that fit the activation
    buffer's ``input_bits``-bit signed words, else ``ValueError``.  Returns
    ``(batch, out_dim)`` int64, equal to ``activations @ plan.decode()``
    exactly (modulo ``2**64``, as int64 arithmetic wraps).  The range
    bounds ``max |activations|`` for the product's exactness guard.
    """
    activations = _check_activations(plan, activations, input_bits,
                                      "spmm_gather")
    magnitude = 1 << (input_bits - 1)
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.spmm_gather") as sp:
            sp.count(nnz=plan.nnz, batch=activations.shape[0], calls=1)
            return exact_matmul(activations, plan.panel, magnitude)
    return exact_matmul(activations, plan.panel, magnitude)


@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="depth * inputs * weights",
                params={"activations": "inputs", "vals": "weights",
                        "plan.values": "weights"})
def spmm_gather_reference(plan: KernelPlan, activations: np.ndarray,
                          input_bits: int) -> np.ndarray:
    """Oracle for :func:`spmm_gather`: the per-column loop the MRAM PE
    originally inlined, after the same checks.

    ``tests/test_kernels_differential.py::TestDifferentialSweep`` holds
    :func:`spmm_gather` to it bit for bit.
    """
    activations = _check_activations(plan, activations, input_bits,
                                      "spmm_gather")
    batch = activations.shape[0]
    out = np.zeros((batch, plan.shape[1]), dtype=np.int64)
    for c, rows, vals in plan.column_slices():
        if len(rows) == 0:
            continue
        # Stage 2: MUX-select activations by (group, intra-index).
        selected = activations[:, rows].astype(np.int64)
        # Stage 3: parallel shift-and-accumulate, then adder-tree fold.
        out[:, c] = selected @ vals
    return out


# ---------------------------------------------------------------------------
# spmm_bitserial — SRAM-style bit-plane x index-phase dataflow
# ---------------------------------------------------------------------------

@width_contract(inputs="i8", weights="i8", accum="i64",
                returns="exact_matmul",
                bounds={"input_bits": BITSERIAL_MAX_BITS},
                params={"activations": "inputs"})
def spmm_bitserial(plan: KernelPlan, activations: np.ndarray,
                   input_bits: int) -> np.ndarray:
    """``activations @ W`` via the bit-serial schedule (int64, bit-exact).

    ``activations`` must fit ``input_bits``-bit two's complement, else
    ``ValueError``.  The plane schedule folds away by linearity (module
    docstring): after the range check the planes imply, one product is
    exact, so the result equals ``activations @ plan.decode()``.  The
    range also bounds ``max |activations|`` for the product's guard.
    """
    activations = _check_activations(plan, activations, input_bits,
                                      "spmm_bitserial")
    magnitude = 1 << (input_bits - 1)
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.spmm_bitserial",
                         input_bits=input_bits) as sp:
            sp.count(nnz=plan.nnz, batch=activations.shape[0], calls=1)
            return exact_matmul(activations, plan.panel, magnitude)
    return exact_matmul(activations, plan.panel, magnitude)


@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="from_partials",
                bounds={"input_bits": BITSERIAL_MAX_BITS},
                params={"activations": "inputs", "vals": "weights",
                        "plan.values": "weights"})
def spmm_bitserial_reference(plan: KernelPlan, activations: np.ndarray,
                             input_bits: int) -> np.ndarray:
    """Oracle for :func:`spmm_bitserial`: the per-column, per-bit-plane
    loop the SRAM PE originally inlined.

    ``tests/test_kernels_differential.py::TestDifferentialSweep`` holds
    :func:`spmm_bitserial` to it bit for bit.
    """
    activations = _check_activations(plan, activations, input_bits,
                                      "spmm_bitserial")
    planes = to_bit_planes(activations, input_bits)  # (bits, batch, in)
    batch = activations.shape[0]
    out = np.zeros((batch, plan.shape[1]), dtype=np.int64)
    for c, rows, vals in plan.column_slices():
        if len(rows) == 0:
            continue
        # Step 1+2: for each bit plane, comparator-gated partial products.
        partials = np.empty((input_bits, batch), dtype=np.int64)
        for b in range(input_bits):
            # All phases t of the index sweep contribute; entry (row i)
            # fires in phase t == intra index, receiving activation bit
            # planes[b][:, rows].  Summing over the sweep == one gather.
            partials[b] = planes[b][:, rows] @ vals
        # Step 3: shift accumulate (two's complement plane weights).
        out[:, c] = from_partials(partials, input_bits)
    return out
