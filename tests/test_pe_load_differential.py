"""Differential suite: whole-array PE loads against the per-column original.

``CSCMatrix`` stores the CSC triplet directly, ``KernelPlan`` fills its padded
gather matrices with one scatter, and ``SRAMSparsePE`` derives lane packing in
closed form from ``col_ptr``.  The oracles below are the per-column bodies
those replaced, copied verbatim: ``CSCMatrix.from_dense`` building one
``CSCColumn`` per column, ``KernelPlan.from_columns`` filling the gather
matrices column by column, and the SRAM lane-packing loop with the
``PEStats`` charges that read it.  Every comparison is exact: arrays,
dtypes, counters and error messages.
"""

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core.csc import CSCColumn, CSCMatrix
from repro.core.kernels import KernelPlan, require_integer_values
from repro.core.mram_pe import MRAMSparsePE
from repro.core.sram_pe import SRAMPEConfig, SRAMSparsePE
from repro.sparsity import NMPattern, compute_nm_mask
from repro.sparsity.nm import verify_nm


# ----------------------------------------------------------------- oracle
class OracleCSCMatrix:
    def __init__(self, columns: List[CSCColumn], shape: Tuple[int, int],
                 pattern: NMPattern):
        if len(columns) != shape[1]:
            raise ValueError(f"{len(columns)} columns for shape {shape}")
        self.columns = columns
        self.shape = shape
        self.pattern = pattern
        self._nnz = sum(col.nnz for col in columns)

    @classmethod
    def from_dense(cls, matrix: np.ndarray, pattern: NMPattern,
                   strict: bool = True) -> "OracleCSCMatrix":
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
        m = pattern.m
        columns: List[CSCColumn] = []
        for c in range(out_dim):
            col = matrix[:, c]
            rows = np.nonzero(col)[0]
            columns.append(CSCColumn(
                values=col[rows].astype(np.int64),
                group_ids=(rows // m).astype(np.int64),
                intra_indices=(rows % m).astype(np.int64),
            ))
        return cls(columns, (in_dim, out_dim), pattern)

    def decode(self) -> np.ndarray:
        return oracle_plan_from_csc(self).decode()

    @property
    def nnz(self) -> int:
        return self._nnz


def oracle_plan_from_columns(columns: Sequence[Tuple[np.ndarray, np.ndarray]],
                             shape: Tuple[int, int]) -> KernelPlan:
    out_dim = shape[1]
    if len(columns) != out_dim:
        raise ValueError(f"{len(columns)} columns for shape {shape}")
    counts = np.array([len(rows) for rows, _ in columns], dtype=np.int64)
    col_ptr = np.zeros(out_dim + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    nnz = int(col_ptr[-1])
    if nnz:
        row_indices = np.concatenate(
            [require_integer_values(rows, "KernelPlan row indices")
             .astype(np.int64) for rows, _ in columns])
        values = np.concatenate(
            [require_integer_values(vals, "KernelPlan values")
             .astype(np.int64) for _, vals in columns])
    else:
        row_indices = np.zeros(0, dtype=np.int64)
        values = np.zeros(0, dtype=np.int64)

    max_nnz = int(counts.max()) if out_dim else 0
    gather_rows = np.zeros((max_nnz, out_dim), dtype=np.int64)
    gather_values = np.zeros((max_nnz, out_dim), dtype=np.int64)
    for c in range(out_dim):
        lo, hi = col_ptr[c], col_ptr[c + 1]
        gather_rows[:hi - lo, c] = row_indices[lo:hi]
        gather_values[:hi - lo, c] = values[lo:hi]
    return KernelPlan(shape=shape, values=values, row_indices=row_indices,
                      col_ptr=col_ptr, gather_rows=gather_rows,
                      gather_values=gather_values)


def oracle_plan_from_csc(csc: OracleCSCMatrix) -> KernelPlan:
    m = csc.pattern.m
    return oracle_plan_from_columns(
        [(col.row_indices(m), col.values) for col in csc.columns],
        csc.shape)


@dataclasses.dataclass
class _Placement:
    column: int
    lane_spans: List[Tuple[int, int, int]]  # (lane, start_row, count)

    @property
    def spans_lanes(self) -> bool:
        return len(self.lane_spans) > 1


class OracleSRAMSparsePE(SRAMSparsePE):
    """The per-column load and stats charge; ``matmul`` is inherited."""

    def load(self, matrix: np.ndarray, pattern: NMPattern,
             strict: bool = True) -> None:
        cfg = self.config
        matrix = np.asarray(matrix)
        self._check_range(matrix)
        csc = OracleCSCMatrix.from_dense(matrix, pattern, strict=strict)
        if csc.nnz > cfg.pair_capacity:
            raise ValueError(
                f"compressed matrix needs {csc.nnz} pairs; PE holds "
                f"{cfg.pair_capacity} — tile the matrix first")
        if pattern.index_bits > cfg.index_bits:
            raise ValueError(
                f"pattern {pattern} needs {pattern.index_bits}-bit indices; "
                f"PE provides {cfg.index_bits}")

        placements: List[_Placement] = []
        lane, row = 0, 0
        for c, col in enumerate(csc.columns):
            remaining = col.nnz
            spans: List[Tuple[int, int, int]] = []
            while remaining > 0:
                if lane >= cfg.lanes:
                    raise ValueError("packing overflow despite capacity check")
                take = min(remaining, cfg.rows - row)
                if take > 0:
                    spans.append((lane, row, take))
                    row += take
                    remaining -= take
                if row == cfg.rows:
                    lane, row = lane + 1, 0
            placements.append(_Placement(column=c, lane_spans=spans))

        self.csc = csc
        self.placements = placements
        self._plan = oracle_plan_from_csc(csc)
        self._dense_cache = self._plan.decode()

        self.stats.weight_bits_written += csc.nnz * cfg.weight_bits
        self.stats.index_bits_written += csc.nnz * cfg.index_bits

    def _check_range(self, matrix: np.ndarray) -> None:
        bits = self.config.weight_bits
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        if matrix.size and (matrix.min() < lo or matrix.max() > hi):
            raise ValueError(f"weights outside signed {bits}-bit range")

    def _charge_matmul_stats(self, batch: int) -> None:
        cfg = self.config
        csc = self.csc
        pattern = csc.pattern
        sweep_cycles = pattern.m * cfg.input_bits
        lanes_used = len({span[0] for p in self.placements for span in p.lane_spans})

        self.stats.cycles += sweep_cycles * batch
        self.stats.activation_bits_read += csc.shape[0] * cfg.input_bits * batch
        self.stats.macs += csc.nnz * batch
        self.stats.dense_equivalent_macs += csc.shape[0] * csc.shape[1] * batch
        self.stats.weight_bits_read += csc.nnz * cfg.weight_bits * cfg.input_bits * batch
        self.stats.index_bits_read += csc.nnz * cfg.index_bits * pattern.m * batch
        self.stats.comparator_ops += csc.nnz * pattern.m * batch
        self.stats.adder_tree_ops += lanes_used * sweep_cycles * batch
        self.stats.shift_acc_ops += lanes_used * sweep_cycles * batch
        spill_columns = sum(1 for p in self.placements if p.spans_lanes)
        self.stats.rowwise_acc_ops += spill_columns * cfg.input_bits * batch


class OracleMRAMSparsePE(MRAMSparsePE):
    """The MRAM load over the per-column CSC; ``matmul`` is inherited."""

    def load(self, matrix: np.ndarray, pattern: NMPattern,
             strict: bool = True) -> None:
        cfg = self.config
        matrix = np.asarray(matrix)
        bits = cfg.weight_bits
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        if matrix.size and (matrix.min() < lo or matrix.max() > hi):
            raise ValueError(f"weights outside signed {bits}-bit range")
        csc = OracleCSCMatrix.from_dense(matrix, pattern, strict=strict)
        if csc.nnz > cfg.pair_capacity:
            raise ValueError(
                f"compressed matrix needs {csc.nnz} pairs; PE holds "
                f"{cfg.pair_capacity} — tile the matrix first")
        if pattern.index_bits > cfg.index_bits:
            raise ValueError(
                f"pattern {pattern} needs {pattern.index_bits}-bit indices")

        self.csc = csc
        self._plan = oracle_plan_from_csc(csc)
        self._dense_cache = self._plan.decode()
        self._rows_used = -(-csc.nnz // cfg.pairs_per_row)

        self.stats.weight_bits_written += csc.nnz * cfg.weight_bits
        self.stats.index_bits_written += csc.nnz * cfg.index_bits


# ------------------------------------------------------------------ cases
PATTERNS = [NMPattern(1, 4), NMPattern(2, 4), NMPattern(1, 8),
            NMPattern(1, 16)]
DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8]
CONFIGS = {"default": SRAMPEConfig(),
           "rows16-lanes4": SRAMPEConfig(rows=16, lanes=4)}
IN_DIM = 64


def _values(rng, shape, dtype) -> np.ndarray:
    """Non-zero-biased values that fit both ``dtype`` and signed INT8."""
    lo = 0 if dtype == np.uint8 else -128
    return rng.integers(lo, 128, size=shape).astype(dtype)


def strict_matrix(rng, pattern, dtype, capacity) -> np.ndarray:
    per_column = IN_DIM * pattern.n // pattern.m
    out_dim = max(1, min(12, capacity // per_column))
    dense = _values(rng, (IN_DIM, out_dim), dtype)
    mask = compute_nm_mask(np.abs(dense.astype(np.int64)).astype(np.float64),
                           pattern, axis=0)
    return np.where(mask, dense, 0).astype(dtype)


def uneven_matrix(rng, dtype, capacity, out_dim=9) -> np.ndarray:
    """Random per-column nnz (some columns empty) within ``capacity``."""
    dense = np.zeros((IN_DIM, out_dim), dtype=dtype)
    budget = capacity
    for c in range(out_dim):
        k = min(budget, int(rng.integers(0, IN_DIM // 2 + 1)))
        if c % 4 == 1:
            k = 0
        rows = rng.choice(IN_DIM, size=k, replace=False)
        dense[rows, c] = _values(rng, k, dtype)
        budget -= int(np.count_nonzero(dense[:, c]))
    return dense


def loose_cases(rng, dtype, capacity):
    """``strict=False`` inputs: uneven, empty-column, all-zero, single."""
    yield "uneven", uneven_matrix(rng, dtype, capacity)
    empty = uneven_matrix(rng, dtype, capacity, out_dim=5)
    empty[:, [0, 2, 4]] = 0
    yield "empty-columns", empty
    yield "all-zero", np.zeros((IN_DIM, 6), dtype=dtype)
    single = np.zeros((IN_DIM, 1), dtype=dtype)
    k = min(capacity, 40)
    single[rng.choice(IN_DIM, size=k, replace=False), 0] = 1 + _values(
        rng, k, dtype) % 100
    yield "single-column", single
    yield "no-columns", np.zeros((IN_DIM, 0), dtype=dtype)


# ------------------------------------------------------------ comparisons
def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def assert_same_csc(matrix, pattern, strict) -> None:
    csc = CSCMatrix.from_dense(matrix, pattern, strict=strict)
    oracle = OracleCSCMatrix.from_dense(matrix, pattern, strict=strict)
    want = oracle_plan_from_csc(oracle)
    assert csc.shape == oracle.shape
    assert_same_array(csc.values, want.values)
    assert_same_array(csc.row_indices, want.row_indices)
    assert_same_array(csc.col_ptr, want.col_ptr)
    assert len(csc.columns) == len(oracle.columns)
    for got_col, want_col in zip(csc.columns, oracle.columns):
        assert_same_array(got_col.values, want_col.values)
        assert_same_array(got_col.group_ids, want_col.group_ids)
        assert_same_array(got_col.intra_indices, want_col.intra_indices)
    assert csc.nnz == oracle.nnz
    assert_same_array(csc.decode(), oracle.decode())

    plan = KernelPlan.from_csc(csc)
    assert plan.values is csc.values
    assert plan.row_indices is csc.row_indices
    assert plan.col_ptr is csc.col_ptr
    assert plan.shape == want.shape
    assert_same_array(plan.gather_rows, want.gather_rows)
    assert_same_array(plan.gather_values, want.gather_values)
    assert_same_array(plan.decode(), want.decode())


def assert_same_pe(new_pe, oracle_pe, matrix, pattern, strict, rng) -> None:
    new_pe.load(matrix, pattern, strict=strict)
    oracle_pe.load(matrix, pattern, strict=strict)
    assert new_pe.stats.as_dict() == oracle_pe.stats.as_dict()
    assert_same_array(new_pe.dense_weight(), oracle_pe.dense_weight())
    x = rng.integers(-128, 128, size=(3, matrix.shape[0]))
    assert_same_array(new_pe.matmul(x), oracle_pe.matmul(x))
    assert new_pe.stats.as_dict() == oracle_pe.stats.as_dict()


def assert_same_sram(matrix, pattern, strict, cfg, rng) -> None:
    pe, oracle = SRAMSparsePE(cfg), OracleSRAMSparsePE(cfg)
    assert_same_pe(pe, oracle, matrix, pattern, strict, rng)
    assert pe.lanes_used == len({span[0] for p in oracle.placements
                                 for span in p.lane_spans})
    assert pe.spill_columns == sum(1 for p in oracle.placements
                                   if p.spans_lanes)


# ------------------------------------------------------------------ tests
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("pattern", PATTERNS, ids=str)
@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
class TestLoadMatchesOracle:
    def test_strict(self, cfg, pattern, dtype):
        rng = np.random.default_rng(16)
        matrix = strict_matrix(rng, pattern, dtype, cfg.pair_capacity)
        assert_same_csc(matrix, pattern, strict=True)
        assert_same_sram(matrix, pattern, True, cfg, rng)
        assert_same_pe(MRAMSparsePE(), OracleMRAMSparsePE(), matrix,
                       pattern, True, rng)

    def test_loose(self, cfg, pattern, dtype):
        rng = np.random.default_rng(61)
        for _, matrix in loose_cases(rng, dtype, cfg.pair_capacity):
            assert_same_csc(matrix, pattern, strict=False)
            assert_same_sram(matrix, pattern, False, cfg, rng)
            assert_same_pe(MRAMSparsePE(), OracleMRAMSparsePE(), matrix,
                           pattern, False, rng)


def test_spills_are_exercised():
    """The small geometry really does spill columns across lanes."""
    rng = np.random.default_rng(5)
    cfg = CONFIGS["rows16-lanes4"]
    pe = SRAMSparsePE(cfg)
    pe.load(uneven_matrix(rng, np.int64, cfg.pair_capacity), NMPattern(1, 4),
            strict=False)
    assert pe.spill_columns > 0
    assert pe.lanes_used == cfg.lanes


def test_wide_values_encode_exactly():
    """CSC has no weight range of its own: int16/int64 extremes survive."""
    rng = np.random.default_rng(7)
    pattern = NMPattern(2, 8)
    for dtype in (np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        dense = rng.integers(info.min, info.max, size=(32, 7), dtype=dtype)
        dense[0, 0], dense[8, 1] = info.min, info.max
        mask = compute_nm_mask(np.abs(dense.astype(np.float64)), pattern,
                               axis=0)
        assert_same_csc(np.where(mask, dense, 0).astype(dtype), pattern,
                        strict=True)


def test_plan_from_columns_matches_oracle():
    rng = np.random.default_rng(9)
    shape = (40, 6)
    columns = []
    for c in range(shape[1]):
        rows = np.sort(rng.choice(shape[0], size=(0, 3, 11, 0, 1, 40)[c],
                                  replace=False))
        columns.append((rows, rng.integers(-9, 9, size=len(rows))))
    for cols in (columns, [(np.zeros(0, np.int64),) * 2] * shape[1]):
        got = KernelPlan.from_columns(cols, shape)
        want = oracle_plan_from_columns(cols, shape)
        for field in ("values", "row_indices", "col_ptr", "gather_rows",
                      "gather_values"):
            assert_same_array(getattr(got, field), getattr(want, field))
    bad = [(np.array([0]), np.array([1.5]))]
    want = _raised(lambda: oracle_plan_from_columns(bad, (1, 1)))
    assert want is not None
    assert _raised(lambda: KernelPlan.from_columns(bad, (1, 1))) == want


# ---------------------------------------------------------------- errors
def _raised(fn) -> Optional[Tuple[type, str]]:
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _int_matrix(rng, shape):
    return rng.integers(1, 100, size=shape).astype(np.int64)


ERROR_CASES = {
    "float": (lambda rng: _int_matrix(rng, (16, 3)).astype(np.float64),
              NMPattern(1, 4), False, SRAMPEConfig()),
    "bool": (lambda rng: _int_matrix(rng, (16, 3)) > 50,
             NMPattern(1, 4), False, SRAMPEConfig()),
    "nm-violation": (lambda rng: _int_matrix(rng, (16, 3)),
                     NMPattern(1, 4), True, SRAMPEConfig()),
    "one-dimensional": (lambda rng: _int_matrix(rng, (16,)),
                        NMPattern(1, 4), False, SRAMPEConfig()),
    "capacity": (lambda rng: _int_matrix(rng, (64, 3)),
                 NMPattern(1, 4), False, SRAMPEConfig(rows=16, lanes=4)),
    "out-of-range": (lambda rng: np.array([[300], [0], [0], [0]]),
                     NMPattern(1, 4), True, SRAMPEConfig()),
    "index-bits": (lambda rng: np.array([[3]] + [[0]] * 7),
                   NMPattern(1, 8), True, SRAMPEConfig(index_bits=2)),
}


@pytest.mark.parametrize("case", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_errors_match_oracle(case):
    make, pattern, strict, cfg = case
    matrix = make(np.random.default_rng(3))
    want = _raised(lambda: OracleSRAMSparsePE(cfg).load(matrix, pattern,
                                                        strict=strict))
    assert want is not None
    assert _raised(lambda: SRAMSparsePE(cfg).load(
        matrix, pattern, strict=strict)) == want
    assert _raised(lambda: MRAMSparsePE().load(
        matrix, pattern, strict=strict)) == _raised(
        lambda: OracleMRAMSparsePE().load(matrix, pattern, strict=strict))
    assert _raised(lambda: CSCMatrix.from_dense(
        matrix, pattern, strict=strict)) == _raised(
        lambda: OracleCSCMatrix.from_dense(matrix, pattern, strict=strict))
