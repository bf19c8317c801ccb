"""Differential suite: same-support weight rewrites against a fresh load.

``SRAMSparsePE.update_weights`` rewrites only the values when the new matrix
is non-zero at exactly the resident positions, and runs the full ``load``
otherwise.  ``HybridAccelerator.propagate_error`` keeps one transposed error
buffer per learnable GEMM and rewrites it through the same path.  The oracle
for both is the behaviour they replaced: a fresh ``load`` of the same
matrix, and an accelerator whose every update reloads its tiles and whose
every error propagation writes a new buffer.  Every comparison is exact:
the CSC triplet, every ``KernelPlan`` array (its dense panel also against
a per-column scatter), the decoded matrix, lane packing, every ``PEStats``
counter and the error messages.
"""

import numpy as np
import pytest

from repro.core import HybridAccelerator
from repro.core.sram_pe import SRAMPEConfig, SRAMSparsePE
from repro.core.transpose_pe import BackpropEngine, TransposedSRAMPE
from repro.sparsity import NMPattern, compute_nm_mask

PATTERN = NMPattern(1, 4)
CONFIGS = {"default": SRAMPEConfig(),
           "rows16-lanes4": SRAMPEConfig(rows=16, lanes=4)}
#: 6 entries per column at 1:4: on 16-row lanes, columns 2 and 5 spill.
SHAPE = (24, 7)


def plan_arrays(plan):
    """``name -> array`` for every array a ``KernelPlan`` holds."""
    return {"values": plan.values, "row_indices": plan.row_indices,
            "col_ptr": plan.col_ptr, "entry_cols": plan.entry_cols,
            "panel.ints": plan.panel.ints, "panel.floats": plan.panel.floats}


def column_scatter(plan):
    """The plan's entries scattered dense one column at a time, as the
    per-column oracles read them."""
    dense = np.zeros(plan.shape, dtype=np.int64)
    for c, rows, vals in plan.column_slices():
        dense[rows, c] = vals
    return dense


@pytest.fixture
def rng():
    return np.random.default_rng(2206)


def _nonzero(rng, shape, high=127):
    """Values in ``±[1, high]``: no zeros, so every entry is stored."""
    magnitude = rng.integers(1, high + 1, size=shape)
    return np.where(rng.random(shape) < 0.5, -magnitude,
                    magnitude).astype(np.int64)


def nm_matrix(rng, shape, pattern=PATTERN):
    """Exactly ``n`` non-zeros in every group of ``m``."""
    dense = _nonzero(rng, shape)
    mask = compute_nm_mask(np.abs(dense).astype(np.float64), pattern, axis=0)
    return np.where(mask.astype(bool), dense, 0)


def on_support(rng, w):
    """New non-zero values on ``w``'s support."""
    return np.where(w != 0, _nonzero(rng, w.shape), 0)


def zero_some(rng, w, count=3):
    """``w`` with ``count`` of its non-zeros driven to zero."""
    out = w.copy()
    rows, cols = np.nonzero(out)
    pick = rng.choice(len(rows), size=count, replace=False)
    out[rows[pick], cols[pick]] = 0
    return out


def assert_same_state(pe, oracle):
    """``pe`` and ``oracle`` hold the same matrix, encoding and counters."""
    assert pe.csc.shape == oracle.csc.shape
    assert pe.csc.pattern == oracle.csc.pattern
    for name in ("values", "row_indices", "col_ptr"):
        got, want = getattr(pe.csc, name), getattr(oracle.csc, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert pe._plan.shape == oracle._plan.shape
    wanted = plan_arrays(oracle._plan)
    for name, got in plan_arrays(pe._plan).items():
        want = wanted[name]
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert pe._plan.panel.peak == oracle._plan.panel.peak
    assert pe._plan.panel.col_l1 == oracle._plan.panel.col_l1
    np.testing.assert_array_equal(pe._plan.panel.ints,
                                  column_scatter(pe._plan))
    np.testing.assert_array_equal(pe._plan.panel.ints, pe._plan.decode())
    assert pe.dense_weight().dtype == oracle.dense_weight().dtype
    np.testing.assert_array_equal(pe.dense_weight(), oracle.dense_weight())
    assert pe.lanes_used == oracle.lanes_used
    assert pe.spill_columns == oracle.spill_columns
    assert pe.stats.as_dict() == oracle.stats.as_dict()


def pe_pair(config, w0, pattern=PATTERN, strict=True):
    """Two PEs with the same resident ``w0``: one to update, one oracle."""
    pes = SRAMSparsePE(config), SRAMSparsePE(config)
    for pe in pes:
        pe.load(w0, pattern, strict=strict)
    return pes


def _raised(fn):
    with pytest.raises(Exception) as excinfo:
        fn()
    return type(excinfo.value), str(excinfo.value)


# ------------------------------------------------------------ per-PE rewrites
@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
class TestUpdateMatchesLoad:
    """``update_weights`` leaves the PE exactly as a fresh ``load`` does."""

    def _check(self, rng, config, w0, w1, pattern=PATTERN, strict=True,
               resident_strict=True, rewrites=None):
        pe, oracle = pe_pair(config, w0, strict=resident_strict)
        before = pe.csc
        pe.update_weights(w1, pattern, strict=strict)
        oracle.load(w1, pattern, strict=strict)
        assert_same_state(pe, oracle)
        if rewrites is not None:
            # A values-only rewrite shares the resident support arrays; a
            # full load builds new ones.
            assert (pe.csc.row_indices is before.row_indices) == rewrites
            assert (pe.csc.col_ptr is before.col_ptr) == rewrites
        x = _nonzero(rng, (5, w1.shape[0]), 63)
        y = pe.matmul(x)
        np.testing.assert_array_equal(y, oracle.matmul(x))
        np.testing.assert_array_equal(y, x @ w1)
        assert pe.stats.as_dict() == oracle.stats.as_dict()
        return pe

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    def test_same_support(self, rng, config, dtype):
        w0 = nm_matrix(rng, SHAPE)
        w1 = on_support(rng, w0).astype(dtype)
        pe = self._check(rng, config, w0, w1, rewrites=True)
        assert pe.spill_columns == (2 if config.rows == 16 else 0)

    def test_same_support_loose_update_over_strict_resident(self, rng,
                                                            config):
        w0 = nm_matrix(rng, SHAPE)
        self._check(rng, config, w0, on_support(rng, w0), strict=False,
                    rewrites=True)

    def test_moved_support_same_count(self, rng, config):
        """Exactly one non-zero per group in both: equal counts, moved
        positions, so only the resident-position check catches it."""
        w0 = nm_matrix(rng, SHAPE)
        w1 = nm_matrix(rng, SHAPE)
        assert np.count_nonzero(w1) == np.count_nonzero(w0)
        assert ((w1 != 0) != (w0 != 0)).any()
        self._check(rng, config, w0, w1, rewrites=False)

    def test_zero_reaching_values(self, rng, config):
        w0 = nm_matrix(rng, SHAPE)
        self._check(rng, config, w0, zero_some(rng, on_support(rng, w0)),
                    rewrites=False)

    def test_grown_support(self, rng, config):
        """Every resident position kept, one more non-zero added."""
        w0 = nm_matrix(rng, SHAPE)
        w1 = on_support(rng, w0)
        rows, cols = np.nonzero(w1 == 0)
        w1[rows[0], cols[0]] = 5
        self._check(rng, config, w0, w1, strict=False, resident_strict=False,
                    rewrites=False)

    def test_pattern_change(self, rng, config):
        """A 1:4 matrix is also 2:4; the new pattern forces a full load."""
        w0 = nm_matrix(rng, SHAPE)
        self._check(rng, config, w0, on_support(rng, w0),
                    pattern=NMPattern(2, 4), rewrites=False)

    def test_shape_change(self, rng, config):
        w0 = nm_matrix(rng, SHAPE)
        self._check(rng, config, w0, nm_matrix(rng, (SHAPE[0], 4)),
                    rewrites=False)

    def test_strict_update_over_loose_resident_that_holds_nm(self, rng,
                                                             config):
        """Same support, but the resident never checked N:M: full load."""
        w0 = nm_matrix(rng, SHAPE)
        self._check(rng, config, w0, on_support(rng, w0),
                    resident_strict=False, rewrites=False)

    def test_repeated_rewrites(self, rng, config):
        w0 = nm_matrix(rng, SHAPE)
        pe, oracle = pe_pair(config, w0)
        for _ in range(4):
            w = on_support(rng, w0)
            pe.update_weights(w, PATTERN)
            oracle.load(w, PATTERN)
            assert_same_state(pe, oracle)

    def test_empty_matrix(self, rng, config):
        w0 = np.zeros((16, 4), dtype=np.int64)
        self._check(rng, config, w0, w0.copy(), rewrites=True)


def _loose_violator(rng):
    """Two non-zeros in one 1:4 group: loadable only with strict=False."""
    w = nm_matrix(rng, (32, 6))
    w[:4, 2] = [3, -4, 0, 0]
    return w


class TestRejectedUpdates:
    """A rejected update raises what a fresh ``load`` raises and leaves the
    PE untouched: same ``csc`` and plan objects, decode and counters."""

    def _check(self, resident, matrix, resident_strict=True, strict=True):
        pe = SRAMSparsePE()
        pe.load(resident, PATTERN, strict=resident_strict)
        csc, plan = pe.csc, pe._plan
        dense = pe.dense_weight().copy()
        stats = pe.stats.as_dict()
        error = _raised(lambda: pe.update_weights(matrix, PATTERN,
                                                  strict=strict))
        assert error == _raised(
            lambda: SRAMSparsePE().load(matrix, PATTERN, strict=strict))
        assert pe.csc is csc and pe._plan is plan
        np.testing.assert_array_equal(pe.dense_weight(), dense)
        assert pe.stats.as_dict() == stats
        return error

    def test_strict_update_over_loose_resident_violating_nm(self, rng):
        w0 = _loose_violator(rng)
        kind, message = self._check(w0, on_support(rng, w0),
                                    resident_strict=False)
        assert kind is ValueError and "violates the 1:4 pattern" in message

    def test_float_input_on_same_support(self, rng):
        w0 = nm_matrix(rng, (32, 6))
        kind, _ = self._check(w0, on_support(rng, w0).astype(np.float64))
        assert kind is TypeError

    @pytest.mark.parametrize("value", [-129, 128])
    def test_out_of_range_on_same_support(self, rng, value):
        w0 = nm_matrix(rng, (32, 6))
        w1 = on_support(rng, w0)
        rows, cols = np.nonzero(w1)
        w1[rows[0], cols[0]] = value
        assert self._check(w0, w1) == (
            ValueError, "weights outside signed 8-bit range")

    def test_out_of_range_with_moved_support(self, rng):
        w0 = nm_matrix(rng, (32, 6))
        w1 = nm_matrix(rng, (32, 6)) * 2
        assert self._check(w0, w1) == (
            ValueError, "weights outside signed 8-bit range")


class TestRewriteKeepsCapturedState:
    def test_captured_csc_and_plan_unchanged(self, rng):
        w0 = nm_matrix(rng, (64, 8))
        pe = SRAMSparsePE()
        pe.load(w0, PATTERN)
        csc, plan = pe.csc, pe._plan
        copies = {name: a.copy() for name, a in plan_arrays(plan).items()}
        w1 = on_support(rng, w0)
        pe.update_weights(w1, PATTERN)
        assert pe.csc is not csc and pe._plan is not plan
        assert pe.csc.row_indices is csc.row_indices
        for name in ("row_indices", "col_ptr", "entry_cols"):
            assert getattr(pe._plan, name) is getattr(plan, name), name
        assert pe._plan.panel.ints is not plan.panel.ints
        np.testing.assert_array_equal(csc.decode(), w0)
        for name, want in plan_arrays(plan).items():
            np.testing.assert_array_equal(want, copies[name], err_msg=name)
        np.testing.assert_array_equal(pe.csc.decode(), w1)

    def test_dense_weight_is_a_decode_of_the_resident_plan(self, rng):
        w0 = nm_matrix(rng, (64, 8))
        pe = SRAMSparsePE()
        pe.load(w0, PATTERN)
        assert pe._dense_cache is None  # nothing decoded until asked
        np.testing.assert_array_equal(pe.dense_weight(), w0)
        w1 = on_support(rng, w0)
        want = w1.copy()
        pe.update_weights(w1, PATTERN)
        w1[:] = 0  # the PE holds no reference to its input
        np.testing.assert_array_equal(pe.dense_weight(), want)
        assert pe.dense_weight() is pe.dense_weight()

    def test_dense_weight_before_load(self):
        with pytest.raises(RuntimeError, match="load"):
            SRAMSparsePE().dense_weight()


# ------------------------------------------------------------ error buffers
def fresh_buffer_stats(w, delta):
    """What one new buffer charges for ``delta @ w.T``."""
    buf = TransposedSRAMPE()
    buf.load_transposed(w, PATTERN)
    buf.matmul(delta)
    return buf.stats.as_dict()


class TestErrorBufferReuse:
    def test_reused_buffer_matches_fresh_buffers(self, rng):
        """One buffer rewritten across steps charges ``BackpropEngine``
        exactly what a fresh buffer per call charges, through same-support
        steps and support changes alike."""
        reused, fresh = BackpropEngine(), BackpropEngine()
        buffer = TransposedSRAMPE()
        w = nm_matrix(rng, (64, 12))
        for step in range(6):
            if step == 2:
                w = nm_matrix(rng, (64, 12))
            elif step == 4:
                w = zero_some(rng, w)
            else:
                w = on_support(rng, w)
            delta = _nonzero(rng, (4, 12), 15)
            got = reused.propagate_error(w, delta, PATTERN, buffer=buffer)
            want = fresh.propagate_error(w, delta, PATTERN)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got, delta @ w.T)
            assert reused.stats.as_dict() == fresh.stats.as_dict()
            assert buffer.stats.as_dict() == fresh_buffer_stats(w, delta)

    def test_load_transposed_rewrites_on_the_same_support(self, rng):
        w0 = nm_matrix(rng, (64, 12))
        buf = TransposedSRAMPE()
        buf.load_transposed(w0, PATTERN)
        resident = buf.pe.csc
        w1 = on_support(rng, w0)
        buf.load_transposed(w1, PATTERN)
        assert buf.pe.csc.row_indices is resident.row_indices
        np.testing.assert_array_equal(buf.dense_weight(), w1.T)


# ------------------------------------------------------------- accelerator
#: (name, in_dim, out_dim, learnable).  ``repnet.wide`` spans two SRAM row
#: tiles; ``backbone.conv`` spans several MRAM tiles.
GEMMS = [
    ("backbone.conv", 288, 32, False),
    ("repnet.stem", 3, 16, True),
    ("repnet.wide", 256, 16, True),
    ("repnet.conv", 144, 16, True),
    ("classifier", 80, 10, True),
]
POSITIONS = 6
DELTA_ROWS = 4


class ReloadAccelerator(HybridAccelerator):
    """The oracle: every update reloads its tiles and every error
    propagation writes a new transposed buffer.  It skips
    ``update_gemm``'s input checks; every update here is valid."""

    def update_gemm(self, name, weight_int):
        for r, c, pe in self._get(name).tiles:
            rows, cols = pe.csc.shape
            pe.load(weight_int[r:r + rows, c:c + cols], self.pattern)

    def propagate_error(self, name, delta_int):
        return self.backprop.propagate_error(self.dense_weight(name),
                                             delta_int, self.pattern)


def _step_update(rng, step, weight, grad):
    """One step's new weights: support kept on even steps, moved on step 1,
    values driven to zero on step 3."""
    stepped = np.clip(weight - (grad >> 8), -127, 127)
    updated = np.where(weight != 0, np.where(stepped == 0, weight, stepped), 0)
    if step == 1:
        return nm_matrix(rng, weight.shape)
    if step == 3:
        return zero_some(rng, updated)
    return updated


@pytest.mark.parametrize("seed", [0, 1])
def test_training_loop_matches_reload_oracle(seed):
    rng = np.random.default_rng(seed)
    acc, oracle = HybridAccelerator(PATTERN), ReloadAccelerator(PATTERN)
    weights, xs = {}, {}
    for name, in_dim, out_dim, learnable in GEMMS:
        weights[name] = nm_matrix(rng, (in_dim, out_dim))
        xs[name] = _nonzero(rng, (POSITIONS, in_dim), 63)
        for a in (acc, oracle):
            a.load_gemm(name, weights[name], learnable=learnable)
    assert acc.gemms["repnet.wide"].pe_count == 2
    buffers = {}
    for step in range(5):
        for name, _, out_dim, learnable in GEMMS:
            w, x = weights[name], xs[name]
            y = acc.gemm(name, x)
            np.testing.assert_array_equal(y, oracle.gemm(name, x))
            np.testing.assert_array_equal(y, x @ w)
            if not learnable:
                continue
            delta = _nonzero(rng, (DELTA_ROWS, out_dim), 15)
            dx = acc.propagate_error(name, delta)
            np.testing.assert_array_equal(dx,
                                          oracle.propagate_error(name, delta))
            np.testing.assert_array_equal(dx, delta @ w.T)
            grad = acc.weight_gradient(name, x[:DELTA_ROWS], delta)
            np.testing.assert_array_equal(
                grad, oracle.weight_gradient(name, x[:DELTA_ROWS], delta))
            updated = _step_update(rng, step, w, grad)
            acc.update_gemm(name, updated)
            oracle.update_gemm(name, updated)
            weights[name] = updated
            np.testing.assert_array_equal(acc.dense_weight(name), updated)
            [buffer] = acc.gemms[name].error_buffers
            assert buffers.setdefault(name, buffer) is buffer
        got = {kind: s.as_dict() for kind, s in acc.stats().items()}
        want = {kind: s.as_dict() for kind, s in oracle.stats().items()}
        assert got == want, f"step {step}"
    # One resident error buffer per learnable GEMM, none for frozen ones.
    assert {name: len(m.error_buffers) for name, m in acc.gemms.items()} == {
        name: int(learnable) for name, *_, learnable in GEMMS}
