"""Property-based tests at the accelerator level (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import HybridAccelerator
from repro.core.transpose_pe import BackpropEngine
from repro.sparsity import NMPattern, compute_nm_mask
from repro.sparsity.permutation import (find_channel_permutation,
                                        retained_saliency)

patterns = st.sampled_from([NMPattern(1, 4), NMPattern(2, 8),
                            NMPattern(1, 8), NMPattern(2, 4)])


@st.composite
def gemm_cases(draw):
    pattern = draw(patterns)
    groups = draw(st.integers(2, 16))
    in_dim = groups * pattern.m
    out_dim = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    dense = rng.integers(-127, 128, size=(in_dim, out_dim))
    mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
    return (dense * mask).astype(np.int64), pattern, rng


class TestAcceleratorProperties:
    @given(gemm_cases(), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_tiled_gemm_always_exact(self, case, batch):
        """Arbitrary shapes/tilings: the accelerator equals integer matmul."""
        w, pattern, rng = case
        acc = HybridAccelerator(pattern)
        acc.load_gemm("g", w, learnable=bool(rng.integers(0, 2)))
        x = rng.integers(-128, 128, size=(batch, w.shape[0]))
        np.testing.assert_array_equal(acc.gemm("g", x), x @ w)

    @given(gemm_cases())
    @settings(max_examples=25, deadline=None)
    def test_dense_weight_roundtrip(self, case):
        """Tiling + CSC + reassembly is the identity."""
        w, pattern, _ = case
        acc = HybridAccelerator(pattern)
        acc.load_gemm("g", w, learnable=True)
        np.testing.assert_array_equal(acc.dense_weight("g"), w)

    @given(gemm_cases())
    @settings(max_examples=20, deadline=None)
    def test_backward_identities(self, case):
        """Error-prop and gradient through the transposed buffers satisfy
        the chain-rule identities exactly, for any shapes."""
        w, pattern, rng = case
        engine = BackpropEngine()
        batch = 3
        delta = rng.integers(-32, 32, size=(batch, w.shape[1]))
        acts = rng.integers(-32, 32, size=(batch, w.shape[0]))
        np.testing.assert_array_equal(
            engine.propagate_error(w, delta, pattern), delta @ w.T)
        np.testing.assert_array_equal(
            engine.weight_gradient(acts, delta, pattern), acts.T @ delta)


class TestPermutationProperties:
    @given(st.integers(0, 2**31), patterns)
    @settings(max_examples=25, deadline=None)
    def test_search_never_below_identity(self, seed, pattern):
        rng = np.random.default_rng(seed)
        sal = np.abs(rng.standard_normal((pattern.m * 4, 3)))
        base = retained_saliency(sal, pattern)
        _, best = find_channel_permutation(sal, pattern, iterations=100,
                                           rng=rng)
        assert best >= base - 1e-9

    @given(st.integers(0, 2**31), patterns)
    @settings(max_examples=25, deadline=None)
    def test_permutation_preserves_matmul(self, seed, pattern):
        """Pruning in the searched channel order and gathering activations
        in that order computes the same product as the inverse-permuted
        weights on the original activations."""
        rng = np.random.default_rng(seed)
        dense = rng.integers(-50, 50, size=(pattern.m * 4, 5))
        perm, _ = find_channel_permutation(np.abs(dense).astype(float),
                                           pattern, iterations=50, rng=rng)
        wp = dense[perm]
        wp = wp * compute_nm_mask(np.abs(wp).astype(float), pattern, axis=0)
        acc = HybridAccelerator(pattern)
        acc.load_gemm("g", wp.astype(np.int64), learnable=True)
        x = rng.integers(-50, 50, size=(2, dense.shape[0]))
        w = np.empty_like(wp)
        w[perm] = wp
        np.testing.assert_array_equal(acc.gemm("g", x[:, perm]), x @ w)
