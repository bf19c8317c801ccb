"""Bit-cell-level array tests + cross-validation against the fast PE model."""

import numpy as np
import pytest

from repro.core.bitcell_array import BitCellArray, BitLevelSparsePE
from repro.core.sram_pe import SRAMPEConfig, SRAMSparsePE
from repro.sparsity import NMPattern

from .test_csc import sparse_int_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(111)


class TestBitCellStorage:
    def test_roundtrip_all_values(self):
        array = BitCellArray(SRAMPEConfig(rows=4, lanes=1))
        for w in (-128, -1, 0, 1, 127, -77, 42):
            array.store_pair(0, 0, w, 5)
            assert array.stored_weight(0, 0) == w

    def test_range_checks(self):
        array = BitCellArray()
        with pytest.raises(ValueError):
            array.store_pair(0, 0, 200, 0)
        with pytest.raises(ValueError):
            array.store_pair(0, 0, 1, 16)


class TestCrossValidation:
    """The bit-level model and the fast dataflow model must agree exactly."""

    @pytest.mark.parametrize("pattern", [NMPattern(1, 4), NMPattern(2, 8)],
                             ids=["1:4", "2:8"])
    def test_bit_level_equals_fast_model(self, rng, pattern):
        w = sparse_int_matrix(rng, (32, 6), pattern)
        x = rng.integers(-128, 128, size=(3, 32))

        fast = SRAMSparsePE()
        fast.load(w, pattern)
        slow = BitLevelSparsePE()
        slow.load(w, pattern)

        np.testing.assert_array_equal(slow.matmul(x), fast.matmul(x))
        np.testing.assert_array_equal(slow.matmul(x), x @ w)

    def test_bit_level_extreme_operands(self):
        pattern = NMPattern(1, 4)
        w = np.zeros((8, 2), dtype=np.int64)
        w[0, 0] = -128
        w[4, 1] = 127
        x = np.array([[-128, 0, 0, 0, 127, 0, 0, 0]])
        pe = BitLevelSparsePE()
        pe.load(w, pattern)
        np.testing.assert_array_equal(pe.matmul(x), x @ w)

    def test_requires_load(self, rng):
        with pytest.raises(RuntimeError):
            BitLevelSparsePE().matmul(rng.integers(0, 2, size=(1, 8)))

    def test_capacity_check(self, rng):
        pattern = NMPattern(2, 4)
        w = sparse_int_matrix(rng, (128, 40), pattern)
        with pytest.raises(ValueError):
            BitLevelSparsePE().load(w, pattern)
