"""Sparse-PE compute kernels: one production kernel per dataflow.

Both PE functional models reduce to the same two primitives:

* :func:`spmm_gather` — the MRAM near-memory dataflow (Fig. 5): per stored
  (weight, index) pair the activation-buffer MUX gathers ``x[group*m + idx]``
  and the shift-and-accumulators fold the products per output column.
* :func:`spmm_bitserial` — the SRAM in-memory dataflow (Fig. 3): activations
  stream as two's-complement bit planes, comparator-gated partial products
  are adder-tree-summed per plane, and the shift accumulator recombines the
  planes.

Each runs fully vectorized.  A :class:`KernelPlan` built once at ``load()``
time shares the CSC triplet (contiguous ``values`` / ``row_indices`` /
``col_ptr`` arrays) and adds a zero-padded ``(max_nnz, out_dim)`` gather
matrix, so an entire matmul is one fancy-index gather plus one einsum.  The
SRAM kernel needs no bit planes at all: by linearity,
``sum_b plane_weight(b) * plane_b(x) == x`` for every in-range ``x``, so the
shift-accumulated plane partials equal the plain gather.  After the same
signed-range check the planes would enforce, it *is* the gather.

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
    ``c`` owns the half-open slice ``col_ptr[c]:col_ptr[c+1]``).  On top of
    that, ``gather_rows`` / ``gather_values`` are the same data padded into
    dense ``(max_nnz, out_dim)`` matrices — padding slots carry row 0 with
    value 0, so they gather a real activation but contribute nothing — which
    is what lets the fast kernels run the whole matmul as one gather + one
    contraction.
    """

    shape: Tuple[int, int]
    values: np.ndarray        # (nnz,) int64 — non-zero weights, column-major
    row_indices: np.ndarray   # (nnz,) int64 — original (dense) row of each value
    col_ptr: np.ndarray       # (out_dim + 1,) int64 — column start offsets
    gather_rows: np.ndarray   # (max_nnz, out_dim) int64 — padded row indices
    gather_values: np.ndarray  # (max_nnz, out_dim) int64 — padded values
    #: ``(slot, column)`` of every entry in the gather panels.  Derived from
    #: ``col_ptr`` alone, so plans on the same support share it.
    entry_slots: Optional[Tuple[np.ndarray, np.ndarray]] = dataclasses.field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.entry_slots is None:
            object.__setattr__(self, "entry_slots", _entry_slots(self.col_ptr))

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
        slots = _entry_slots(col_ptr)
        gather = _padded_panels(values, row_indices, col_ptr, slots)
        return cls(shape, values, row_indices, col_ptr, *gather, slots)

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
        """Scatter the plan back to the dense ``(in_dim, out_dim)`` matrix."""
        dense = np.zeros(self.shape, dtype=np.int64)
        if self.nnz:
            dense[self.row_indices, self.entry_slots[1]] = self.values
        return dense

    def with_values(self, values: np.ndarray) -> "KernelPlan":
        """The same support carrying new ``values`` (int64, one per entry).

        Shares ``row_indices``, ``col_ptr``, ``gather_rows`` and
        ``entry_slots``; ``gather_values`` is a new array, so this plan is
        left unchanged.
        """
        slot, entry_col = self.entry_slots
        gather_values = np.zeros_like(self.gather_rows)
        gather_values[slot, entry_col] = values
        return KernelPlan(self.shape, values, self.row_indices, self.col_ptr,
                          self.gather_rows, gather_values, self.entry_slots)


def _entry_slots(col_ptr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(slot, column)`` of every CSC entry: entry ``k`` of a column sits
    in slot ``k`` of that column.  As in every CSC triplet, ``col_ptr``
    starts at 0 and ends at the entry count."""
    entry_col = np.repeat(np.arange(len(col_ptr) - 1, dtype=np.int64),
                          np.diff(col_ptr))
    return np.arange(len(entry_col)) - col_ptr[entry_col], entry_col


def _padded_panels(values: np.ndarray, row_indices: np.ndarray,
                   col_ptr: np.ndarray,
                   slots: Tuple[np.ndarray, np.ndarray]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter the CSC triplet into zero-padded ``(max_nnz, out_dim)``
    row-index and value panels in one step, at :func:`_entry_slots`' slots;
    pad slots keep row 0 with value 0."""
    slot, entry_col = slots
    counts = np.diff(col_ptr)
    rows = np.zeros((int(counts.max(initial=0)), len(counts)), dtype=np.int64)
    vals = np.zeros_like(rows)
    rows[slot, entry_col] = row_indices
    vals[slot, entry_col] = values
    return rows, vals


def _check_activations(plan: KernelPlan, activations: np.ndarray,
                       kernel: str) -> np.ndarray:
    activations = np.atleast_2d(np.asarray(activations))
    require_integer_activations(activations, kernel)
    if activations.shape[1] != plan.shape[0]:
        raise ValueError(
            f"activation dim {activations.shape[1]} != matrix in_dim "
            f"{plan.shape[0]}")
    return activations


# ---------------------------------------------------------------------------
# spmm_gather — MRAM-style MUX-select dataflow
# ---------------------------------------------------------------------------

@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="depth * inputs * weights",
                params={"activations": "inputs",
                        "plan.gather_values": "weights"})
def _gather(plan: KernelPlan, activations: np.ndarray) -> np.ndarray:
    """One fancy-index gather + one einsum over the padded plan."""
    batch = activations.shape[0]
    if plan.nnz == 0:
        return np.zeros((batch, plan.shape[1]), dtype=np.int64)
    # The gather copies anyway; an int64 input needs no cast copy first.
    gathered = activations.astype(np.int64, copy=False)[:, plan.gather_rows]
    return np.einsum("bkc,kc->bc", gathered, plan.gather_values)


@width_contract(inputs="i8", weights="i8", accum="i64",
                returns="_gather",
                params={"activations": "inputs"})
def spmm_gather(plan: KernelPlan, activations: np.ndarray) -> np.ndarray:
    """``activations @ W`` via MUX-select gather (int64, bit-exact).

    ``activations``: integer ``(batch, in_dim)``.  Returns ``(batch,
    out_dim)`` int64, equal to ``activations @ plan.decode()`` exactly.
    """
    activations = _check_activations(plan, activations, "spmm_gather")
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.spmm_gather") as sp:
            sp.count(nnz=plan.nnz, batch=activations.shape[0], calls=1)
            return _gather(plan, activations)
    return _gather(plan, activations)


@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="depth * inputs * weights",
                params={"activations": "inputs", "vals": "weights",
                        "plan.values": "weights"})
def spmm_gather_reference(plan: KernelPlan,
                          activations: np.ndarray) -> np.ndarray:
    """Oracle for :func:`spmm_gather`: the per-column loop the MRAM PE
    originally inlined.

    ``tests/test_kernels_differential.py::TestDifferentialSweep`` holds
    :func:`spmm_gather` to it bit for bit.
    """
    activations = _check_activations(plan, activations, "spmm_gather")
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
                returns="_gather",
                bounds={"input_bits": BITSERIAL_MAX_BITS},
                params={"activations": "inputs"})
def spmm_bitserial(plan: KernelPlan, activations: np.ndarray,
                   input_bits: int) -> np.ndarray:
    """``activations @ W`` via the bit-serial schedule (int64, bit-exact).

    ``activations`` must fit ``input_bits``-bit two's complement, else
    ``ValueError``.  The plane schedule folds away by linearity (module
    docstring): after the range check the planes imply, one gather is
    exact, so the result equals ``activations @ plan.decode()``.
    """
    activations = _check_activations(plan, activations, "spmm_bitserial")
    require_signed_range(activations, input_bits)
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.spmm_bitserial",
                         input_bits=input_bits) as sp:
            sp.count(nnz=plan.nnz, batch=activations.shape[0], calls=1)
            return _gather(plan, activations)
    return _gather(plan, activations)


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
    activations = _check_activations(plan, activations, "spmm_bitserial")
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
