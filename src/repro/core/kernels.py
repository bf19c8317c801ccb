"""Sparse-PE compute kernels: one contract, three interchangeable implementations.

Both PE functional models reduce to the same two primitives:

* :func:`spmm_gather` — the MRAM near-memory dataflow (Fig. 5): per stored
  (weight, index) pair the activation-buffer MUX gathers ``x[group*m + idx]``
  and the shift-and-accumulators fold the products per output column.
* :func:`spmm_bitserial` — the SRAM in-memory dataflow (Fig. 3): activations
  stream as two's-complement bit planes, comparator-gated partial products
  are adder-tree-summed per plane, and the shift accumulator recombines the
  planes.

Each primitive ships in three implementations selected by the ``impl``
argument, the ``REPRO_KERNEL`` environment variable, or the default:

``reference``
    The readable per-column Python loops the PE models originally inlined.
    One numpy call per output column (and per bit plane for the SRAM
    kernel) — easy to audit against the paper's dataflow description, slow.

``fast``
    Fully vectorized.  A :class:`KernelPlan` built once at ``load()`` time
    shares the CSC triplet (contiguous ``values`` / ``row_indices`` /
    ``col_ptr`` arrays) and adds a zero-padded ``(max_nnz, out_dim)`` gather
    matrix, so an entire matmul is one fancy-index gather plus one einsum —
    and the SRAM bit-plane loop collapses into a single
    ``(bits, batch, nnz)``-shaped tensor contraction.

``flat``
    Plan-free inner loops over the contiguous CSC triplet.  Columns are
    grouped into at most :data:`FLAT_MAX_BUCKETS` nnz buckets (a small
    dynamic program minimizes padded work, so skewed magnitude-pruned
    column histograms don't pay the ``fast`` tier's pad-to-global-max
    tax), then concatenated column-major into one flat gather stream
    folded by a single segmented ``np.add.reduceat`` per batch block.
    The batch axis is blocked (at most :data:`FLAT_BATCH_BLOCK` rows,
    shrunk to fit :data:`FLAT_WORKSET_ELEMS`) for cache locality, and
    gather/reduction scratch comes from a bounded per-process workspace
    pool reused across ``matmul`` calls instead of being reallocated
    per call.

All implementations are bit-identical on int64 (enforced by
``tests/test_kernels_differential.py``), and the choice is observably pure:
stats charging lives in the PE models and is analytical (derived from nnz,
geometry and batch — never from loop trip counts), so switching kernels can
never change reported cycles, energy or any other hardware number.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import os
import threading
from typing import (TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..obs import get_tracer
from .bitserial import from_partials, to_bit_planes
from .concurrency import guarded_by
from .effects import effects
from .widths import BITSERIAL_MAX_BITS, width_contract

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .csc import CSCMatrix

#: Environment variable selecting the process-wide default implementation.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Implementation used when neither ``impl`` nor the env var says otherwise.
DEFAULT_KERNEL = "fast"

#: The recognised implementation names.
KERNEL_IMPLEMENTATIONS = ("reference", "fast", "flat")

#: Upper bound on nnz buckets per plan for the ``flat`` tier.  More buckets
#: means less padding waste but more per-bucket dispatch overhead; 8 keeps
#: the padded work within a few percent of ideal on DLMC-style histograms.
FLAT_MAX_BUCKETS = 8

#: Largest batch block the ``flat`` tier processes at once.
FLAT_BATCH_BLOCK = 64

#: Per-block working-set budget (int64 elements, ~16 MiB) — the batch
#: block shrinks below :data:`FLAT_BATCH_BLOCK` when the padded gather
#: stream is wide enough that a full block would thrash the cache.
FLAT_WORKSET_ELEMS = 1 << 21

#: Eviction bound of the shared workspace pool: at most this many free
#: scratch buffers are retained process-wide; beyond it, the least
#: recently used capacity class loses a buffer.
WORKSPACE_MAX_ENTRIES = 8


def resolve_kernel(impl: Optional[str] = None) -> str:
    """Resolve an implementation name: argument > ``REPRO_KERNEL`` > default."""
    name = impl or os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL
    if name not in KERNEL_IMPLEMENTATIONS:
        raise ValueError(
            f"unknown kernel implementation {name!r}; "
            f"choose from {KERNEL_IMPLEMENTATIONS}")
    return name


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
        gather = _padded_panels(values, row_indices, col_ptr,
                                np.arange(shape[1]),
                                int(np.diff(col_ptr).max(initial=0)))
        return cls(shape, values, row_indices, col_ptr, *gather)

    # -------------------------------------------------------------- inspection
    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def max_column_nnz(self) -> int:
        return self.gather_rows.shape[0]

    def column_slices(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(column, row_indices, values)`` — the reference kernels'
        view of the plan, identical to walking ``csc.columns``."""
        for c in range(self.shape[1]):
            lo, hi = self.col_ptr[c], self.col_ptr[c + 1]
            yield c, self.row_indices[lo:hi], self.values[lo:hi]

    def decode(self) -> np.ndarray:
        """Scatter the plan back to the dense ``(in_dim, out_dim)`` matrix."""
        dense = np.zeros(self.shape, dtype=np.int64)
        if self.nnz:
            col_ids = np.repeat(np.arange(self.shape[1], dtype=np.int64),
                                np.diff(self.col_ptr))
            dense[self.row_indices, col_ids] = self.values
        return dense

    @functools.cached_property
    def flat_buckets(self) -> Tuple["_FlatBucket", ...]:
        """The ``flat`` tier's nnz-bucketed view of this plan (built lazily,
        cached on the instance — ``cached_property`` writes the instance
        ``__dict__`` directly, which frozen dataclasses permit)."""
        return _build_flat_buckets(self)

    @functools.cached_property
    def flat_layout(self) -> Optional["_FlatLayout"]:
        """The buckets concatenated into one flat gather stream (lazy,
        cached; ``None`` when the plan has no non-empty column)."""
        return _build_flat_layout(self)


class _FlatBucket(NamedTuple):
    """One nnz bucket of a plan: a group of output columns padded to the
    bucket-local maximum column nnz (pad slots gather row 0 with value 0,
    exactly like the plan-wide gather matrices, but the pad width is the
    bucket's own maximum instead of the global one)."""

    cols: np.ndarray   # (ncols,) int64 — output column ids in this bucket
    rows: np.ndarray   # (width, ncols) int64 — padded row indices
    vals: np.ndarray   # (width, ncols) int64 — padded values


def _partition_column_counts(sorted_counts: np.ndarray,
                             max_buckets: int) -> List[Tuple[int, int]]:
    """Split ascending column-nnz counts into ≤ ``max_buckets`` segments.

    Returns half-open ``(start, end)`` index ranges over the sorted column
    order, chosen to minimize total padded work
    ``sum(seg_max_nnz * seg_ncols)`` — the exact element count the flat
    kernels gather and contract.  With few distinct counts every distinct
    count gets its own zero-waste segment; otherwise a small dynamic
    program over distinct counts picks the optimal boundaries.
    """
    n = len(sorted_counts)
    if n == 0:
        return []
    distinct, first = np.unique(sorted_counts, return_index=True)
    d = len(distinct)
    ends = np.append(first[1:], n).astype(np.int64)    # cols through bucket d
    if d <= max_buckets:
        return [(int(first[i]), int(ends[i])) for i in range(d)]

    starts = np.concatenate(([0], ends[:-1]))          # cols before distinct i
    # dp[b][j]: minimal padded work covering distinct counts 0..j with
    # b+1 segments; choice[b][j] is the distinct index starting the last
    # segment.  cand[j, i] = dp[b-1][i-1] + distinct[j] * (ends[j] -
    # starts[i]) vectorizes to one (d, d) matrix per bucket level.
    dp = (distinct * ends).astype(np.int64)
    choice = np.zeros((max_buckets, d), dtype=np.int64)
    lower = np.tril(np.ones((d, d), dtype=bool))       # valid starts: i <= j
    for b in range(1, max_buckets):
        prev = np.concatenate(([0], dp[:-1]))
        cand = prev[None, :] + distinct[:, None] * (ends[:, None]
                                                    - starts[None, :])
        cand = np.where(lower, cand, np.iinfo(np.int64).max)
        choice[b] = np.argmin(cand, axis=1)
        dp = cand[np.arange(d), choice[b]]

    segments: List[Tuple[int, int]] = []
    j = d - 1
    for b in range(max_buckets - 1, -1, -1):
        i = int(choice[b, j]) if b > 0 else 0
        segments.append((int(starts[i]), int(ends[j])))
        if i == 0:
            break
        j = i - 1
    segments.reverse()
    return segments


def _padded_panels(values: np.ndarray, row_indices: np.ndarray,
                   col_ptr: np.ndarray, cols: np.ndarray,
                   width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter columns ``cols`` into zero-padded ``(width, len(cols))``
    row-index and value panels in one step: entry ``k`` of a column lands
    in slot ``k``; pad slots keep row 0 with value 0."""
    counts = col_ptr[cols + 1] - col_ptr[cols]
    panel_col = np.repeat(np.arange(len(cols)), counts)
    slot = np.arange(len(panel_col)) - (np.cumsum(counts) - counts)[panel_col]
    src = col_ptr[cols][panel_col] + slot
    rows = np.zeros((width, len(cols)), dtype=np.int64)
    vals = np.zeros((width, len(cols)), dtype=np.int64)
    rows[slot, panel_col] = row_indices[src]
    vals[slot, panel_col] = values[src]
    return rows, vals


def _build_flat_buckets(plan: KernelPlan) -> Tuple[_FlatBucket, ...]:
    """Group a plan's non-empty columns into padded nnz buckets."""
    counts = np.diff(plan.col_ptr)
    nonempty = np.flatnonzero(counts).astype(np.int64)
    if len(nonempty) == 0:
        return ()
    # Stable (count, column) order: deterministic buckets for a given plan.
    order = np.lexsort((nonempty, counts[nonempty]))
    sorted_cols = nonempty[order]
    sorted_counts = counts[sorted_cols]

    buckets = []
    for start, end in _partition_column_counts(sorted_counts,
                                               FLAT_MAX_BUCKETS):
        cols = sorted_cols[start:end]
        width = int(sorted_counts[end - 1])     # ascending: last is the max
        rows, vals = _padded_panels(plan.values, plan.row_indices,
                                    plan.col_ptr, cols, width)
        buckets.append(_FlatBucket(cols=cols, rows=rows, vals=vals))
    return tuple(buckets)


class _FlatLayout(NamedTuple):
    """The buckets concatenated into one contiguous gather stream.

    Entries are column-major within each bucket, so every output column
    owns one contiguous run of ``widths[i]`` (bucket-padded) slots —
    which is exactly the segment structure ``np.add.reduceat`` folds in
    a single call, independent of how many buckets the partition chose.
    Pad slots gather row 0 with value 0 and so contribute nothing.
    """

    cols: np.ndarray     # (C,) int64 — non-empty output columns
    starts: np.ndarray   # (C,) int64 — segment start offsets into rows/vals
    widths: np.ndarray   # (C,) int64 — bucket-padded segment widths
    rows: np.ndarray     # (P,) int64 — padded row indices, column-major
    vals: np.ndarray     # (P,) int64 — padded values, column-major


def _build_flat_layout(plan: KernelPlan) -> Optional[_FlatLayout]:
    """Flatten a plan's nnz buckets into the reduceat-ready stream."""
    buckets = plan.flat_buckets
    if not buckets:
        return None
    cols = np.concatenate([b.cols for b in buckets])
    rows = np.concatenate([b.rows.T.reshape(-1) for b in buckets])
    vals = np.concatenate([b.vals.T.reshape(-1) for b in buckets])
    widths = np.concatenate(
        [np.full(len(b.cols), b.rows.shape[0], dtype=np.int64)
         for b in buckets])
    starts = np.zeros(len(cols), dtype=np.int64)
    np.cumsum(widths[:-1], out=starts[1:])
    return _FlatLayout(cols=cols, starts=starts, widths=widths,
                       rows=rows, vals=vals)


def _flat_block(batch: int, per_row_elems: int) -> int:
    """Batch rows per flat block: capped, working-set-budgeted, ≥ 1."""
    budget = max(1, FLAT_WORKSET_ELEMS // max(1, per_row_elems))
    return max(1, min(batch, FLAT_BATCH_BLOCK, budget))


# ---------------------------------------------------------------------------
# Workspace pool — preallocated scratch reused across flat matmul calls
# ---------------------------------------------------------------------------

def _workspace_capacity(nelems: int) -> int:
    """Round a request up to its power-of-two capacity class (min 1)."""
    return 1 << max(0, int(nelems) - 1).bit_length()


@guarded_by("_lock", "_buffers", "_total", "_hits", "_misses", "_evictions")
class _WorkspaceCache:
    """A bounded pool of int64 scratch buffers, checkout/checkin style.

    ``checkout`` *pops* a free buffer (or allocates a fresh one on a
    miss), so the caller owns it exclusively until ``checkin`` returns
    it — concurrent serve threads running flat matmuls simply populate
    the pool with one buffer each instead of racing on shared scratch.
    Capacities are power-of-two classes; the pool retains at most
    ``max_entries`` free buffers and evicts from the least recently
    used class beyond that, so mixed-shape call patterns cannot grow
    the pool without bound.
    """

    def __init__(self, max_entries: int = WORKSPACE_MAX_ENTRIES):
        self._lock = threading.Lock()
        self._max_entries = int(max_entries)
        # capacity class -> stack of free buffers, LRU order over classes.
        self._buffers: "collections.OrderedDict[int, List[np.ndarray]]" = \
            collections.OrderedDict()
        self._total = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def checkout(self, nelems: int) -> np.ndarray:
        """An exclusively-owned scratch buffer of ≥ ``nelems`` int64 slots."""
        cap = _workspace_capacity(nelems)
        with self._lock:
            stack = self._buffers.get(cap)
            if stack:
                buf = stack.pop()
                if not stack:
                    del self._buffers[cap]
                self._total -= 1
                self._hits += 1
                return buf
            self._misses += 1
        # Allocate outside the critical section: misses are the slow path.
        return np.empty(cap, dtype=np.int64)

    def checkin(self, buf: np.ndarray) -> None:
        """Return a checked-out buffer to the pool (LRU-bounded)."""
        cap = int(buf.size)
        with self._lock:
            stack = self._buffers.setdefault(cap, [])
            stack.append(buf)
            self._buffers.move_to_end(cap)
            self._total += 1
            while self._total > self._max_entries:
                oldest_cap, oldest = next(iter(self._buffers.items()))
                oldest.pop()
                if not oldest:
                    del self._buffers[oldest_cap]
                self._total -= 1
                self._evictions += 1

    def stats(self) -> Dict[str, int]:
        """Pool counters snapshot (testing/observability)."""
        with self._lock:
            return {
                "buffers": self._total,
                "classes": len(self._buffers),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def clear(self) -> None:
        """Drop every pooled buffer and zero the counters."""
        with self._lock:
            self._buffers.clear()
            self._total = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0


#: The per-process pool behind the flat kernels.
_WORKSPACES = _WorkspaceCache()


@effects("READS_GLOBAL",
         reason="bounded per-process buffer pool: checkout pops a free "
                "buffer under the pool lock (exclusive ownership) or "
                "allocates a fresh one, so callers always receive private "
                "scratch; recycling allocations can never change a "
                "kernel's result, only its allocation rate")
def _workspace_checkout(nelems: int) -> np.ndarray:
    return _WORKSPACES.checkout(nelems)


@effects("READS_GLOBAL",
         reason="returns a private scratch buffer to the bounded pool; "
                "eviction only drops spare allocations, never data a "
                "caller can still observe")
def _workspace_checkin(buf: np.ndarray) -> None:
    _WORKSPACES.checkin(buf)


def workspace_stats() -> Dict[str, int]:
    """Counters of the flat kernels' shared workspace pool."""
    return _WORKSPACES.stats()


def clear_workspaces() -> None:
    """Empty the flat kernels' workspace pool (tests, memory pressure)."""
    _WORKSPACES.clear()


def _check_activations(plan: KernelPlan, activations: np.ndarray) -> np.ndarray:
    activations = np.atleast_2d(np.asarray(activations))
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
                params={"activations": "inputs", "vals": "weights",
                        "plan.values": "weights"})
def _spmm_gather_reference(plan: KernelPlan,
                           activations: np.ndarray) -> np.ndarray:
    """Per-column loop, moved verbatim from ``MRAMSparsePE.matmul``."""
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


@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="depth * inputs * weights",
                params={"activations": "inputs",
                        "plan.gather_values": "weights"})
def _spmm_gather_fast(plan: KernelPlan, activations: np.ndarray) -> np.ndarray:
    """One fancy-index gather + one einsum over the padded plan."""
    batch = activations.shape[0]
    if plan.nnz == 0:
        return np.zeros((batch, plan.shape[1]), dtype=np.int64)
    gathered = activations.astype(np.int64)[:, plan.gather_rows]
    return np.einsum("bkc,kc->bc", gathered, plan.gather_values)


@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="depth * inputs * weights",
                params={"activations": "inputs", "layout.vals": "weights"})
def _spmm_gather_flat(plan: KernelPlan,
                      activations: np.ndarray) -> np.ndarray:
    """Flat CSC stream: one gather, one multiply, one segmented fold.

    The nnz buckets (see :func:`_build_flat_buckets`) are concatenated
    column-major into a single padded stream, so each batch block is
    three numpy calls regardless of bucket count: ``take`` into pooled
    scratch, an in-place multiply by the flat values (pad slots go to
    zero), and ``np.add.reduceat`` over the per-column segments.  The
    batch axis is blocked against a working-set budget for locality.
    """
    batch = activations.shape[0]
    out = np.zeros((batch, plan.shape[1]), dtype=np.int64)
    layout = plan.flat_layout
    if layout is None:
        return out
    acts = activations.astype(np.int64)
    padded = layout.rows.shape[0]
    ncols = layout.cols.shape[0]
    block = _flat_block(batch, padded)
    gather_ws = _workspace_checkout(block * padded)
    reduce_ws = _workspace_checkout(block * ncols)
    try:
        for b0 in range(0, batch, block):
            blk = acts[b0:b0 + block]
            bs = blk.shape[0]
            # mode="clip" keeps numpy on the unbuffered fast path for the
            # out= write; plan indices are in-range, so it never clips.
            prods = blk.take(layout.rows, axis=1, mode="clip",
                             out=gather_ws[:bs * padded].reshape(bs, padded))
            prods *= layout.vals
            sums = np.add.reduceat(
                prods, layout.starts, axis=1,
                out=reduce_ws[:bs * ncols].reshape(bs, ncols))
            out[b0:b0 + bs, layout.cols] = sums
    finally:
        _workspace_checkin(gather_ws)
        _workspace_checkin(reduce_ws)
    return out


@width_contract(inputs="i8", weights="i8", accum="i64",
                returns="_spmm_gather_fast",
                params={"activations": "inputs"})
def spmm_gather(plan: KernelPlan, activations: np.ndarray,
                impl: Optional[str] = None) -> np.ndarray:
    """``activations @ W`` via MUX-select gather (int64, bit-exact).

    ``activations``: integer ``(batch, in_dim)``.  Returns ``(batch,
    out_dim)`` int64, equal to ``activations @ plan.decode()`` exactly.
    """
    activations = _check_activations(plan, activations)
    name = resolve_kernel(impl)
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.spmm_gather", impl=name) as sp:
            sp.count(nnz=plan.nnz, batch=activations.shape[0], calls=1)
            return _GATHER_IMPLS[name](plan, activations)
    return _GATHER_IMPLS[name](plan, activations)


# ---------------------------------------------------------------------------
# spmm_bitserial — SRAM-style bit-plane x index-phase dataflow
# ---------------------------------------------------------------------------

@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="from_partials",
                bounds={"input_bits": BITSERIAL_MAX_BITS},
                params={"activations": "inputs", "vals": "weights",
                        "plan.values": "weights"})
def _spmm_bitserial_reference(plan: KernelPlan, activations: np.ndarray,
                              input_bits: int) -> np.ndarray:
    """Per-column, per-bit-plane loop, moved verbatim from
    ``SRAMSparsePE.matmul``."""
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


@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="from_partials",
                bounds={"input_bits": BITSERIAL_MAX_BITS},
                params={"activations": "inputs",
                        "plan.gather_values": "weights"})
def _spmm_bitserial_fast(plan: KernelPlan, activations: np.ndarray,
                         input_bits: int) -> np.ndarray:
    """All bit planes, columns and batch rows in one tensor contraction."""
    planes = to_bit_planes(activations, input_bits)  # (bits, batch, in)
    batch = activations.shape[0]
    if plan.nnz == 0:
        return np.zeros((batch, plan.shape[1]), dtype=np.int64)
    gathered = planes[:, :, plan.gather_rows]  # (bits, batch, max_nnz, out)
    partials = np.einsum("abkc,kc->abc", gathered, plan.gather_values)
    return from_partials(partials, input_bits)


@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="from_partials",
                bounds={"input_bits": BITSERIAL_MAX_BITS},
                params={"activations": "inputs", "layout.vals": "weights"})
def _spmm_bitserial_flat(plan: KernelPlan, activations: np.ndarray,
                         input_bits: int) -> np.ndarray:
    """Flat bit-plane stream over pooled scratch.

    Same fused gather/multiply/reduceat as :func:`_spmm_gather_flat`
    with the plane axis in front; the batch block is budgeted against
    ``input_bits`` times the stream width, so wide plans and deep bit
    depths automatically fall back to smaller, cache-resident blocks.
    """
    planes = to_bit_planes(activations, input_bits)  # (bits, batch, in)
    batch = activations.shape[0]
    out = np.zeros((batch, plan.shape[1]), dtype=np.int64)
    layout = plan.flat_layout
    if layout is None:
        return out
    padded = layout.rows.shape[0]
    ncols = layout.cols.shape[0]
    block = _flat_block(batch, input_bits * padded)
    gather_ws = _workspace_checkout(input_bits * block * padded)
    reduce_ws = _workspace_checkout(input_bits * block * ncols)
    try:
        for b0 in range(0, batch, block):
            pblk = planes[:, b0:b0 + block]
            bs = pblk.shape[1]
            # mode="clip": unbuffered out= path; indices never clip.
            prods = pblk.take(
                layout.rows, axis=2, mode="clip",
                out=gather_ws[:input_bits * bs * padded]
                .reshape(input_bits, bs, padded))
            prods *= layout.vals
            partials = np.add.reduceat(
                prods, layout.starts, axis=2,
                out=reduce_ws[:input_bits * bs * ncols]
                .reshape(input_bits, bs, ncols))
            out[b0:b0 + bs, layout.cols] = from_partials(partials,
                                                         input_bits)
    finally:
        _workspace_checkin(gather_ws)
        _workspace_checkin(reduce_ws)
    return out


@width_contract(inputs="i8", weights="i8", accum="i64",
                returns="_spmm_bitserial_fast",
                params={"activations": "inputs"})
def spmm_bitserial(plan: KernelPlan, activations: np.ndarray,
                   input_bits: int, impl: Optional[str] = None) -> np.ndarray:
    """``activations @ W`` via the bit-serial schedule (int64, bit-exact).

    Walks (reference), contracts (fast) or bucket-blocks (flat) the
    bit-plane x phase dataflow; either way the result equals
    ``activations @ plan.decode()`` exactly.
    """
    activations = _check_activations(plan, activations)
    name = resolve_kernel(impl)
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span("kernel.spmm_bitserial", impl=name,
                         input_bits=input_bits) as sp:
            sp.count(nnz=plan.nnz, batch=activations.shape[0], calls=1)
            return _BITSERIAL_IMPLS[name](plan, activations, input_bits)
    return _BITSERIAL_IMPLS[name](plan, activations, input_bits)


_GATHER_IMPLS = {
    "reference": _spmm_gather_reference,
    "fast": _spmm_gather_fast,
    "flat": _spmm_gather_flat,
}

_BITSERIAL_IMPLS = {
    "reference": _spmm_bitserial_reference,
    "fast": _spmm_bitserial_fast,
    "flat": _spmm_bitserial_flat,
}
