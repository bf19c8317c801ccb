"""Property-based tests (hypothesis) for the core invariants.

These pin the invariants listed in DESIGN.md: N:M mask validity, CSC
round-tripping, bit-exact PE matmuls, quantization error bounds, and
bit-serial decomposition — over randomly generated shapes, patterns and
values rather than hand-picked cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitserial import from_partials, to_bit_planes
from repro.core.csc import CSCMatrix
from repro.core.mram_pe import MRAMSparsePE
from repro.core.sram_pe import SRAMSparsePE
from repro.quant import QuantParams
from repro.sparsity import NMPattern, compute_nm_mask, verify_nm


# ------------------------------------------------------------------ strategies
patterns = st.sampled_from([NMPattern(1, 4), NMPattern(2, 4), NMPattern(1, 8),
                            NMPattern(2, 8), NMPattern(4, 8), NMPattern(1, 16),
                            NMPattern(4, 16)])


@st.composite
def saliency_matrices(draw):
    rows = draw(st.integers(4, 64))
    cols = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    return rng.random((rows, cols))


@st.composite
def sparse_int_cases(draw):
    """(sparse integer matrix, pattern) with N:M along axis 0."""
    pattern = draw(patterns)
    groups = draw(st.integers(1, 8))
    rows = groups * pattern.m
    cols = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    dense = rng.integers(-127, 128, size=(rows, cols))
    mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
    return (dense * mask).astype(np.int64), pattern, rng


class TestNMMaskProperties:
    @given(saliency_matrices(), patterns)
    @settings(max_examples=60, deadline=None)
    def test_mask_always_satisfies_pattern(self, sal, pattern):
        mask = compute_nm_mask(sal, pattern, axis=0)
        assert verify_nm(mask, pattern, axis=0)

    @given(saliency_matrices(), patterns)
    @settings(max_examples=60, deadline=None)
    def test_mask_keeps_exactly_n_per_full_group(self, sal, pattern):
        mask = compute_nm_mask(sal, pattern, axis=0)
        full_groups = sal.shape[0] // pattern.m
        for g in range(full_groups):
            block = mask[g * pattern.m:(g + 1) * pattern.m]
            assert (block.sum(axis=0) == pattern.n).all()

    @given(saliency_matrices(), patterns)
    @settings(max_examples=40, deadline=None)
    def test_mask_keeps_largest(self, sal, pattern):
        """Every kept entry's saliency >= every dropped entry's, per group."""
        mask = compute_nm_mask(sal, pattern, axis=0)
        full_groups = sal.shape[0] // pattern.m
        for g in range(full_groups):
            s = sal[g * pattern.m:(g + 1) * pattern.m]
            m = mask[g * pattern.m:(g + 1) * pattern.m]
            for c in range(sal.shape[1]):
                kept = s[m[:, c] == 1, c]
                dropped = s[m[:, c] == 0, c]
                if len(kept) and len(dropped):
                    assert kept.min() >= dropped.max() - 1e-12


class TestCSCProperties:
    @given(sparse_int_cases())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, case):
        matrix, pattern, _ = case
        csc = CSCMatrix.from_dense(matrix, pattern)
        np.testing.assert_array_equal(csc.decode(), matrix)

    @given(sparse_int_cases())
    @settings(max_examples=60, deadline=None)
    def test_storage_never_exceeds_budget(self, case):
        """Loading writes at most the N:M budget of (weight, index) pairs."""
        matrix, pattern, _ = case
        pe = SRAMSparsePE()
        pe.load(matrix, pattern)
        written = pe.stats.weight_bits_written + pe.stats.index_bits_written
        assert written <= pattern.density * matrix.size * (8 + 4) + 1e-9

    @given(sparse_int_cases())
    @settings(max_examples=60, deadline=None)
    def test_index_range(self, case):
        matrix, pattern, _ = case
        csc = CSCMatrix.from_dense(matrix, pattern)
        for col in csc.columns:
            if col.nnz:
                assert col.intra_indices.max() < pattern.m
                assert col.intra_indices.min() >= 0


class TestPEExactness:
    @given(sparse_int_cases(), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_sram_pe_equals_integer_matmul(self, case, batch):
        matrix, pattern, rng = case
        if (matrix != 0).sum() > 1024:
            matrix = matrix[:, :2]
        if (matrix != 0).sum() > 1024:
            return
        pe = SRAMSparsePE()
        pe.load(matrix, pattern)
        x = rng.integers(-128, 128, size=(batch, matrix.shape[0]))
        np.testing.assert_array_equal(pe.matmul(x), x @ matrix)

    @given(sparse_int_cases(), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_mram_pe_equals_integer_matmul(self, case, batch):
        matrix, pattern, rng = case
        pe = MRAMSparsePE()
        pe.load(matrix, pattern)
        x = rng.integers(-128, 128, size=(batch, matrix.shape[0]))
        np.testing.assert_array_equal(pe.matmul(x), x @ matrix)

    @given(sparse_int_cases())
    @settings(max_examples=30, deadline=None)
    def test_both_pes_agree(self, case):
        """The two PE designs are different circuits for the same function."""
        matrix, pattern, rng = case
        if (matrix != 0).sum() > 1024:
            return
        x = rng.integers(-64, 64, size=(2, matrix.shape[0]))
        sram, mram = SRAMSparsePE(), MRAMSparsePE()
        sram.load(matrix, pattern)
        mram.load(matrix, pattern)
        np.testing.assert_array_equal(sram.matmul(x), mram.matmul(x))


class TestBitSerialProperties:
    @given(st.integers(0, 2**31), st.integers(1, 5), st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_plane_decomposition_roundtrip(self, seed, batch, dim):
        rng = np.random.default_rng(seed)
        x = rng.integers(-128, 128, size=(batch, dim))
        planes = to_bit_planes(x, 8)
        partials = np.stack([planes[b] for b in range(8)])
        np.testing.assert_array_equal(from_partials(partials, 8), x)

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_bit_matmul_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-128, 128, size=(3, 10))
        w = rng.integers(-128, 128, size=(10, 4))
        planes = to_bit_planes(x, 8)
        partials = np.stack([planes[b] @ w for b in range(8)])
        np.testing.assert_array_equal(from_partials(partials, 8), x @ w)


class TestQuantProperties:
    @given(st.integers(0, 2**31), st.floats(0.01, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_error_bounded_by_half_scale(self, seed, spread):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64) * spread
        params = QuantParams.from_tensor(x)
        err = np.abs(params.fake_quantize(x) - x)
        assert err.max() <= params.scale / 2 + 1e-9

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_quantize_idempotent(self, seed):
        """Fake-quantizing twice equals once (grid projection)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32)
        params = QuantParams.from_tensor(x)
        once = params.fake_quantize(x)
        twice = params.fake_quantize(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    @given(st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_zeros_preserved(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32)
        x[::3] = 0.0
        params = QuantParams.from_tensor(x)
        assert (params.fake_quantize(x)[::3] == 0).all()
