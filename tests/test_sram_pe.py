"""Unit tests for the SRAM sparse PE and dense baseline PE simulators."""

import numpy as np
import pytest

from repro.core.sram_pe import DenseDigitalPE, SRAMPEConfig, SRAMSparsePE
from repro.sparsity import NMPattern

from .test_csc import sparse_int_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(33)


class TestConfig:
    def test_default_geometry_matches_paper(self):
        cfg = SRAMPEConfig()
        assert cfg.rows == 128
        assert cfg.lanes == 8
        # 128x96 bit-cells: 8 weight bits + 4 index bits per pair, 8 pairs/row
        assert cfg.array_bits == 128 * 96
        assert cfg.pair_capacity == 1024

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SRAMPEConfig(rows=0)


class TestLoad:
    def test_load_charges_write_traffic(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (64, 16), pattern)
        pe = SRAMSparsePE()
        pe.load(w, pattern)
        nnz = int((w != 0).sum())
        assert pe.stats.weight_bits_written == nnz * 8
        assert pe.stats.index_bits_written == nnz * 4
        assert pe.csc is not None

    def test_capacity_overflow(self, rng):
        pattern = NMPattern(2, 4)  # density 0.5
        w = sparse_int_matrix(rng, (128, 40), pattern)  # ~2560 pairs > 1024
        with pytest.raises(ValueError):
            SRAMSparsePE().load(w, pattern)

    def test_weight_range_check(self):
        pattern = NMPattern(1, 4)
        w = np.zeros((8, 2), dtype=np.int64)
        w[0, 0] = 300
        with pytest.raises(ValueError):
            SRAMSparsePE().load(w, pattern)

    def test_pattern_violation_rejected(self, rng):
        w = rng.integers(1, 5, size=(16, 4))
        with pytest.raises(ValueError):
            SRAMSparsePE().load(w, NMPattern(1, 8))

    def test_index_bits_check(self):
        cfg = SRAMPEConfig(index_bits=2)
        w = np.zeros((16, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            SRAMSparsePE(cfg).load(w, NMPattern(1, 16))


class TestMatmul:
    @pytest.mark.parametrize("pattern", [NMPattern(1, 4), NMPattern(2, 8),
                                         NMPattern(1, 8), NMPattern(1, 16),
                                         NMPattern(2, 4)])
    def test_exactness_across_patterns(self, rng, pattern):
        w = sparse_int_matrix(rng, (64, 12), pattern)
        x = rng.integers(-128, 128, size=(3, 64))
        pe = SRAMSparsePE()
        pe.load(w, pattern)
        np.testing.assert_array_equal(pe.matmul(x), x @ w)

    def test_extreme_values(self):
        pattern = NMPattern(1, 4)
        w = np.zeros((8, 2), dtype=np.int64)
        w[0, 0] = -128
        w[4, 1] = 127
        x = np.full((1, 8), -128, dtype=np.int64)
        pe = SRAMSparsePE()
        pe.load(w, pattern)
        np.testing.assert_array_equal(pe.matmul(x), x @ w)

    def test_single_vector(self, rng):
        pattern = NMPattern(1, 8)
        w = sparse_int_matrix(rng, (32, 4), pattern)
        x = rng.integers(-10, 10, size=(1, 32))
        pe = SRAMSparsePE()
        pe.load(w, pattern)
        np.testing.assert_array_equal(pe.matmul(x), x @ w)

    def test_requires_load(self, rng):
        with pytest.raises(RuntimeError):
            SRAMSparsePE().matmul(rng.integers(0, 2, size=(1, 8)))

    def test_dim_mismatch(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (16, 2), pattern)
        pe = SRAMSparsePE()
        pe.load(w, pattern)
        with pytest.raises(ValueError):
            pe.matmul(rng.integers(0, 2, size=(1, 8)))

    def test_cycle_model(self, rng):
        """Per input vector: m index phases x 8 bit planes."""
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (64, 8), pattern)
        pe = SRAMSparsePE()
        pe.load(w, pattern)
        pe.matmul(rng.integers(-8, 8, size=(5, 64)))
        assert pe.stats.cycles == 5 * pattern.m * 8

    def test_mac_efficiency_tracks_density(self, rng):
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (64, 8), pattern)
        pe = SRAMSparsePE()
        pe.load(w, pattern)
        pe.matmul(rng.integers(-8, 8, size=(2, 64)))
        assert pe.stats.mac_efficiency == pytest.approx(pattern.density,
                                                        abs=0.05)

    def test_update_weights_rewrites(self, rng):
        pattern = NMPattern(1, 4)
        w1 = sparse_int_matrix(rng, (32, 4), pattern)
        w2 = sparse_int_matrix(rng, (32, 4), pattern, lo=-50, hi=51)
        pe = SRAMSparsePE()
        pe.load(w1, pattern)
        first_writes = pe.stats.weight_bits_written
        pe.update_weights(w2, pattern)
        assert pe.stats.weight_bits_written > first_writes
        x = rng.integers(-4, 4, size=(1, 32))
        np.testing.assert_array_equal(pe.matmul(x), x @ w2)

    def test_uneven_columns_rowwise_accumulator(self, rng):
        """A very uneven (strict=False) matrix spills across lanes and the
        row-wise accumulator events are charged."""
        w = np.zeros((144, 3), dtype=np.int64)
        w[:, 0] = rng.integers(1, 5, 144)   # 144 pairs > 128 rows -> spills
        pe = SRAMSparsePE()
        pe.load(w, NMPattern(1, 4), strict=False)
        x = rng.integers(-4, 4, size=(2, 144))
        np.testing.assert_array_equal(pe.matmul(x), x @ w)
        assert pe.stats.rowwise_acc_ops > 0

    def test_spill_counts_exact(self):
        """Column nnz [10, 10, 12] on 16-row lanes: slots [0,10) [10,20)
        [20,32), so two lanes hold entries and only column 1 straddles."""
        w = np.zeros((48, 3), dtype=np.int64)
        for c, nnz in enumerate((10, 10, 12)):
            w[0:4 * nnz:4, c] = c + 1          # one entry per 1:4 group
        pe = SRAMSparsePE(SRAMPEConfig(rows=16))
        pe.load(w, NMPattern(1, 4))
        assert (pe.lanes_used, pe.spill_columns) == (2, 1)
        x = np.arange(-72, 72).reshape(3, 48) % 16 - 8
        np.testing.assert_array_equal(pe.matmul(x), x @ w)
        sweep = 4 * 8                          # index phases x bit planes
        assert pe.stats.adder_tree_ops == 2 * sweep * 3
        assert pe.stats.shift_acc_ops == 2 * sweep * 3
        assert pe.stats.rowwise_acc_ops == 1 * 8 * 3


class TestDensePE:
    def test_exactness(self, rng):
        w = rng.integers(-127, 128, size=(64, 8))
        x = rng.integers(-128, 128, size=(4, 64))
        pe = DenseDigitalPE(rows=64, cols=8)
        pe.load(w)
        np.testing.assert_array_equal(pe.matmul(x), x @ w)

    def test_cycles_bit_serial(self, rng):
        pe = DenseDigitalPE(rows=16, cols=4)
        pe.load(rng.integers(-8, 8, size=(16, 4)))
        pe.matmul(rng.integers(-8, 8, size=(3, 16)))
        assert pe.stats.cycles == 3 * 8

    def test_geometry_check(self, rng):
        pe = DenseDigitalPE(rows=8, cols=2)
        with pytest.raises(ValueError):
            pe.load(rng.integers(0, 2, size=(16, 2)))

    def test_dense_does_not_skip_zeros(self, rng):
        """The baseline executes every MAC, including zeros — that's the
        inefficiency the sparse PE removes."""
        w = np.zeros((16, 4), dtype=np.int64)
        pe = DenseDigitalPE(rows=16, cols=4)
        pe.load(w)
        pe.matmul(rng.integers(-4, 4, size=(1, 16)))
        assert pe.stats.macs == 16 * 4
        assert pe.stats.mac_efficiency == 1.0


@pytest.mark.parametrize("pattern", [NMPattern(1, 4), NMPattern(1, 8)],
                         ids=["1:4", "1:8"])
class TestSparseVsDense:
    """Matched workload: the sparse PE's first-order wins over dense."""

    def test_mac_reduction(self, rng, pattern):
        w = sparse_int_matrix(rng, (128, 8), pattern)
        x = rng.integers(-64, 64, size=(8, 128))
        sparse = SRAMSparsePE()
        sparse.load(w, pattern)
        sparse.matmul(x)
        dense = DenseDigitalPE()
        dense.load(w)
        dense.matmul(x)
        assert sparse.stats.macs / dense.stats.macs == \
            pytest.approx(pattern.density, abs=0.05)

    def test_storage_reduction(self, rng, pattern):
        w = sparse_int_matrix(rng, (128, 8), pattern)
        sparse = SRAMSparsePE()
        sparse.load(w, pattern)
        dense = DenseDigitalPE()
        dense.load(w)
        stored = sparse.stats.weight_bits_written + \
            sparse.stats.index_bits_written
        ratio = stored / dense.stats.weight_bits_written
        # 12-bit (weight, index) pairs against 8-bit dense weights
        assert ratio == pytest.approx(pattern.density * 1.5, abs=0.05)
