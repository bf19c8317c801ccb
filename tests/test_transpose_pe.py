"""Unit tests for the transposed SRAM PE buffers and backprop engine."""

import numpy as np
import pytest

from repro.core.transpose_pe import BackpropEngine, TransposedSRAMPE
from repro.sparsity import NMPattern

from .test_csc import sparse_int_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(55)


class TestTransposedPE:
    def test_stores_transpose(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (32, 8), pattern)
        buf = TransposedSRAMPE()
        buf.load_transposed(w, pattern)
        np.testing.assert_array_equal(buf.dense_weight(), w.T)

    def test_error_propagation_matmul(self, rng):
        pattern = NMPattern(2, 8)
        w = sparse_int_matrix(rng, (64, 8), pattern)
        delta = rng.integers(-100, 100, size=(4, 8))
        buf = TransposedSRAMPE()
        buf.load_transposed(w, pattern)
        np.testing.assert_array_equal(buf.matmul(delta), delta @ w.T)

    def test_write_traffic_charged(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (32, 8), pattern)
        buf = TransposedSRAMPE()
        buf.load_transposed(w, pattern)
        nnz = int((w != 0).sum())
        assert buf.stats.weight_bits_written == nnz * 8

    def test_transpose_preserves_nnz(self, rng):
        """Transposition never changes storage volume (same non-zeros)."""
        pattern = NMPattern(1, 8)
        w = sparse_int_matrix(rng, (64, 8), pattern)
        buf = TransposedSRAMPE()
        buf.load_transposed(w, pattern)
        assert buf.pe.csc.nnz == int((w != 0).sum())


class TestBackpropEngine:
    def test_error_propagation(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (48, 12), pattern)
        delta = rng.integers(-64, 64, size=(6, 12))
        eng = BackpropEngine()
        np.testing.assert_array_equal(
            eng.propagate_error(w, delta, pattern), delta @ w.T)

    def test_weight_gradient(self, rng):
        pattern = NMPattern(1, 4)
        acts = rng.integers(-32, 32, size=(6, 48))
        delta = rng.integers(-32, 32, size=(6, 12))
        eng = BackpropEngine()
        np.testing.assert_array_equal(
            eng.weight_gradient(acts, delta, pattern), acts.T @ delta)

    def test_batch_mismatch(self, rng):
        eng = BackpropEngine()
        with pytest.raises(ValueError):
            eng.weight_gradient(rng.integers(0, 2, size=(4, 8)),
                                rng.integers(0, 2, size=(5, 3)),
                                NMPattern(1, 4))

    def test_weight_update_shift_lr(self):
        eng = BackpropEngine()
        w = np.array([[256, -256]], dtype=np.int64)
        g = np.array([[256, 512]], dtype=np.int64)
        new_w, bits = eng.weight_update(w, g, lr_shift=8)
        np.testing.assert_array_equal(new_w, [[255, -258]])
        assert bits == 2 * 8  # both weights changed

    def test_weight_update_counts_changed_only(self):
        eng = BackpropEngine()
        w = np.array([[100, 200]], dtype=np.int64)
        g = np.array([[0, 256]], dtype=np.int64)  # first weight unchanged
        _, bits = eng.weight_update(w, g, lr_shift=8)
        assert bits == 8

    def test_weight_update_shape_check(self):
        eng = BackpropEngine()
        with pytest.raises(ValueError):
            eng.weight_update(np.zeros((2, 2), dtype=np.int64),
                              np.zeros((2, 3), dtype=np.int64))

    def test_full_layer_backward_consistency(self, rng):
        """Integer backward pass: numbers match the numpy reference flow."""
        pattern = NMPattern(2, 8)
        w = sparse_int_matrix(rng, (64, 16), pattern, lo=-20, hi=21)
        x = rng.integers(-10, 10, size=(8, 64))
        delta_out = rng.integers(-10, 10, size=(8, 16))
        eng = BackpropEngine()

        delta_in = eng.propagate_error(w, delta_out, pattern)
        grad = eng.weight_gradient(x, delta_out, pattern)
        new_w, _ = eng.weight_update(w, grad, lr_shift=6)

        np.testing.assert_array_equal(delta_in, delta_out @ w.T)
        np.testing.assert_array_equal(grad, x.T @ delta_out)
        np.testing.assert_array_equal(new_w, w - (grad >> 6))

    def test_stats_accumulate_across_calls(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (32, 8), pattern)
        eng = BackpropEngine()
        eng.propagate_error(w, rng.integers(-8, 8, size=(2, 8)), pattern)
        first = eng.stats.cycles
        eng.propagate_error(w, rng.integers(-8, 8, size=(2, 8)), pattern)
        assert eng.stats.cycles > first
