"""Unit tests for CSC encoding and bit-serial helpers."""

import numpy as np
import pytest

from repro.core.bitserial import from_partials, plane_weight, to_bit_planes
from repro.core.csc import CSCColumn, CSCMatrix
from repro.sparsity import NMPattern, compute_nm_mask


def sparse_int_matrix(rng, shape, pattern, lo=-127, hi=128):
    dense = rng.integers(lo, hi, size=shape)
    mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
    return (dense * mask).astype(np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestBitSerial:
    def test_roundtrip_random(self, rng):
        x = rng.integers(-128, 128, size=(4, 7))
        planes = to_bit_planes(x, 8)
        assert planes.shape == (8, 4, 7)
        # Recombine planes directly (identity "matmul")
        recombined = sum(plane_weight(b, 8) * planes[b] for b in range(8))
        np.testing.assert_array_equal(recombined, x)

    def test_msb_negative_weight(self):
        assert plane_weight(7, 8) == -128
        assert plane_weight(0, 8) == 1
        assert plane_weight(6, 8) == 64

    def test_range_check(self):
        with pytest.raises(ValueError):
            to_bit_planes(np.array([200]), 8)

    def test_type_check(self):
        with pytest.raises(TypeError):
            to_bit_planes(np.array([1.5]), 8)

    def test_from_partials_matmul_equivalence(self, rng):
        """Bit-plane matmul + recombination == integer matmul."""
        x = rng.integers(-128, 128, size=(3, 16))
        w = rng.integers(-128, 128, size=(16, 5))
        planes = to_bit_planes(x, 8)
        partials = np.stack([planes[b] @ w for b in range(8)])
        np.testing.assert_array_equal(from_partials(partials, 8), x @ w)

    def test_from_partials_shape_check(self):
        with pytest.raises(ValueError):
            from_partials(np.zeros((4, 2)), 8)


class TestCSC:
    def test_roundtrip(self, rng):
        pattern = NMPattern(2, 8)
        dense = sparse_int_matrix(rng, (64, 10), pattern)
        csc = CSCMatrix.from_dense(dense, pattern)
        np.testing.assert_array_equal(csc.decode(), dense)

    def test_rejects_violating_matrix(self, rng):
        pattern = NMPattern(1, 8)
        dense = rng.integers(1, 5, size=(16, 2))  # fully dense
        with pytest.raises(ValueError):
            CSCMatrix.from_dense(dense, pattern)

    def test_strict_false_accepts_anything(self, rng):
        pattern = NMPattern(1, 8)
        dense = rng.integers(-5, 5, size=(16, 3))
        csc = CSCMatrix.from_dense(dense, pattern, strict=False)
        np.testing.assert_array_equal(csc.decode(), dense)

    def test_rejects_float(self, rng):
        with pytest.raises(TypeError):
            CSCMatrix.from_dense(rng.standard_normal((8, 2)), NMPattern(1, 4))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            CSCMatrix.from_dense(np.zeros(8, dtype=int), NMPattern(1, 4))

    def test_row_indices(self):
        col = CSCColumn(values=np.array([5, -3]),
                        group_ids=np.array([0, 2]),
                        intra_indices=np.array([1, 3]))
        np.testing.assert_array_equal(col.row_indices(4), [1, 11])

    def test_column_parallel_arrays_check(self):
        with pytest.raises(ValueError):
            CSCColumn(values=np.array([1]), group_ids=np.array([0, 1]),
                      intra_indices=np.array([0]))

    def test_column_nnz_stats(self, rng):
        pattern = NMPattern(1, 4)
        dense = sparse_int_matrix(rng, (16, 5), pattern)
        csc = CSCMatrix.from_dense(dense, pattern)
        per_column = np.diff(csc.col_ptr)
        np.testing.assert_array_equal(per_column, (dense != 0).sum(axis=0))
        assert [col.nnz for col in csc.columns] == per_column.tolist()
        assert per_column.sum() == csc.nnz

    def test_all_zero_matrix(self):
        csc = CSCMatrix.from_dense(np.zeros((16, 4), dtype=int), NMPattern(1, 4))
        assert csc.nnz == 0
        np.testing.assert_array_equal(csc.decode(), np.zeros((16, 4)))
