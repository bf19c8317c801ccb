"""Unit tests for the MRAM sparse PE and dense MRAM baseline simulators."""

import re

import numpy as np
import pytest

from repro.core.mram_pe import (PIPELINE_DEPTH, MRAMDensePE, MRAMPEConfig,
                                MRAMSparsePE)
from repro.core.sram_pe import SRAMPEConfig, SRAMSparsePE
from repro.core.stats import PEStats
from repro.sparsity import NMPattern, compute_nm_mask

from .test_csc import sparse_int_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(44)


class TestConfig:
    def test_default_geometry_matches_paper(self):
        cfg = MRAMPEConfig()
        assert cfg.rows == 1024
        assert cfg.row_bits == 512
        assert cfg.array_bits == 1024 * 512
        # 512 bits / (8+4) bits per pair = 42 pairs per row
        assert cfg.pairs_per_row == 42

    def test_too_narrow_row(self):
        with pytest.raises(ValueError):
            MRAMPEConfig(row_bits=8)


class TestLoad:
    def test_write_traffic(self, rng):
        pattern = NMPattern(1, 8)
        w = sparse_int_matrix(rng, (128, 16), pattern)
        pe = MRAMSparsePE()
        pe.load(w, pattern)
        nnz = int((w != 0).sum())
        assert pe.stats.weight_bits_written == nnz * 8
        assert pe.stats.index_bits_written == nnz * 4

    def test_range_check(self):
        w = np.zeros((8, 2), dtype=np.int64)
        w[0, 0] = -200
        with pytest.raises(ValueError):
            MRAMSparsePE().load(w, NMPattern(1, 4))

    @pytest.mark.parametrize("pe_cls", [MRAMSparsePE, SRAMSparsePE])
    @pytest.mark.parametrize("bits", [4, 8])
    def test_weight_range_edges_shared_with_sram(self, pe_cls, bits):
        """Both sparse PEs run the one weight-range check: the same
        ``ValueError`` text one step beyond either edge, nothing charged,
        and the edges themselves accepted."""
        config = (MRAMPEConfig(weight_bits=bits) if pe_cls is MRAMSparsePE
                  else SRAMPEConfig(weight_bits=bits))
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        message = f"weights outside signed {bits}-bit range"
        pattern = NMPattern(1, 4)
        for value in (lo - 1, hi + 1):
            w = np.zeros((8, 2), dtype=np.int64)
            w[4, 1] = value
            pe = pe_cls(config)
            with pytest.raises(ValueError) as excinfo:
                pe.load(w, pattern)
            assert str(excinfo.value) == message
            assert pe.stats == PEStats()
            assert pe.csc is None
        for value in (lo, hi):
            w = np.zeros((8, 2), dtype=np.int64)
            w[4, 1] = value
            pe = pe_cls(config)
            pe.load(w, pattern)
            np.testing.assert_array_equal(pe.dense_weight(), w)
            assert pe.stats.weight_bits_written == bits

    def test_capacity_check(self, rng):
        cfg = MRAMPEConfig(rows=2, row_bits=24)  # 2 pairs/row -> 4 pairs
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (64, 4), pattern)
        with pytest.raises(ValueError):
            MRAMSparsePE(cfg).load(w, pattern)


class TestMatmul:
    @pytest.mark.parametrize("pattern", [NMPattern(1, 4), NMPattern(2, 8),
                                         NMPattern(1, 16), NMPattern(4, 16)])
    def test_exactness(self, rng, pattern):
        w = sparse_int_matrix(rng, (96, 20), pattern)
        x = rng.integers(-128, 128, size=(5, 96))
        pe = MRAMSparsePE()
        pe.load(w, pattern)
        np.testing.assert_array_equal(pe.matmul(x), x @ w)

    def test_pipeline_cycle_model(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (128, 16), pattern)
        pe = MRAMSparsePE()
        pe.load(w, pattern)
        pe.matmul(rng.integers(-8, 8, size=(3, 128)))
        rows = -(-int((w != 0).sum()) // 42)  # 42 (weight, index) pairs a row
        expected = 3 * (rows + PIPELINE_DEPTH - 1) * 8
        assert pe.stats.cycles == expected
        assert pe.stats.pipeline_stalls == 3 * (PIPELINE_DEPTH - 1)

    def test_mux_gathers_counted(self, rng):
        pattern = NMPattern(1, 8)
        w = sparse_int_matrix(rng, (64, 8), pattern)
        pe = MRAMSparsePE()
        pe.load(w, pattern)
        pe.matmul(rng.integers(-8, 8, size=(2, 64)))
        assert pe.stats.mux_ops == 2 * int((w != 0).sum())

    def test_requires_integer_activations(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (16, 2), pattern)
        pe = MRAMSparsePE()
        pe.load(w, pattern)
        with pytest.raises(TypeError):
            pe.matmul(rng.standard_normal((1, 16)))

    @pytest.mark.parametrize("value", [-128, 127])
    def test_accepts_input_range_edges(self, rng, value):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (32, 6), pattern)
        pe = MRAMSparsePE()
        pe.load(w, pattern)
        x = np.full((2, 32), value, dtype=np.int64)
        np.testing.assert_array_equal(pe.matmul(x), x @ w)

    @pytest.mark.parametrize("value", [-129, 128, 300])
    def test_rejects_activations_outside_input_bits(self, rng, value):
        """The activation buffer holds ``input_bits``-bit words: the same
        range the SRAM PE enforces, with the same message, and nothing
        charged for the refused matmul."""
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (32, 6), pattern)
        pe = MRAMSparsePE()
        pe.load(w, pattern)
        x = rng.integers(-128, 128, size=(2, 32))
        x[1, 5] = value
        with pytest.raises(ValueError, match=re.escape(
                "values outside signed 8-bit range [-128, 127]")):
            pe.matmul(x)
        assert pe.stats.cycles == 0
        assert pe.stats.macs == 0

    def test_requires_load(self, rng):
        with pytest.raises(RuntimeError):
            MRAMSparsePE().matmul(rng.integers(0, 2, size=(1, 8)))

    def test_empty_matrix(self):
        pe = MRAMSparsePE()
        pe.load(np.zeros((16, 4), dtype=np.int64), NMPattern(1, 4))
        out = pe.matmul(np.ones((2, 16), dtype=np.int64))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))
        assert pe.stats.cycles == 0  # no occupied rows -> no sweep


class TestDenseMRAM:
    def test_exactness(self, rng):
        w = rng.integers(-127, 128, size=(100, 30))
        x = rng.integers(-64, 64, size=(4, 100))
        pe = MRAMDensePE()
        pe.load(w)
        np.testing.assert_array_equal(pe.matmul(x), x @ w)

    def test_row_sequential_cycles(self, rng):
        pe = MRAMDensePE()
        w = rng.integers(-8, 8, size=(128, 10))   # 1280 weights / 64 = 20 rows
        pe.load(w)
        pe.matmul(rng.integers(-8, 8, size=(1, 128)))
        assert pe.stats.cycles == (20 + PIPELINE_DEPTH - 1) * 8

    def test_capacity(self, rng):
        pe = MRAMDensePE(MRAMPEConfig(rows=2, row_bits=64))
        with pytest.raises(ValueError):
            pe.load(rng.integers(0, 2, size=(100, 10)))

    def test_sparse_beats_dense_on_reads(self, rng):
        """Same sparse matrix: sparse PE reads only non-zeros, dense reads all."""
        pattern = NMPattern(1, 8)
        w = sparse_int_matrix(rng, (128, 16), pattern)
        x = rng.integers(-8, 8, size=(1, 128))

        sparse_pe = MRAMSparsePE()
        sparse_pe.load(w, pattern)
        sparse_pe.matmul(x)

        dense_pe = MRAMDensePE()
        dense_pe.load(w)
        dense_pe.matmul(x)

        assert sparse_pe.stats.weight_bits_read < dense_pe.stats.weight_bits_read
        assert sparse_pe.stats.macs < dense_pe.stats.macs
        assert sparse_pe.stats.cycles < dense_pe.stats.cycles

    def test_row_sweep_shrinks_with_sparsity(self, rng):
        """The same dense matrix pruned 1:8: the sparse PE sweeps about an
        eighth of the rows, so it takes far fewer cycles."""
        dense_w = rng.integers(-127, 128, size=(512, 64))
        mask = compute_nm_mask(np.abs(dense_w).astype(float),
                               NMPattern(1, 8), axis=0)
        sparse_w = (dense_w * mask).astype(np.int64)
        dense_pe = MRAMDensePE()
        dense_pe.load(dense_w)
        sparse_pe = MRAMSparsePE()
        sparse_pe.load(sparse_w, NMPattern(1, 8))
        x = rng.integers(-8, 8, size=(1, 512))
        dense_pe.matmul(x)
        sparse_pe.matmul(x)
        assert sparse_pe.stats.cycles < dense_pe.stats.cycles / 4
