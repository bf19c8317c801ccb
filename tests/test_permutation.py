"""Tests for channel permutations for N:M sparsity (extension, ref [19])."""

import numpy as np
import pytest

from repro.sparsity import NMPattern, compute_nm_mask
from repro.sparsity.permutation import (find_channel_permutation,
                                        permutation_gain, retained_saliency)


@pytest.fixture
def rng():
    return np.random.default_rng(88)


class TestRetainedSaliency:
    def test_matches_mask_computation(self, rng):
        """retained_saliency == sum(saliency * mask)."""
        pattern = NMPattern(2, 8)
        sal = rng.random((64, 6))
        mask = compute_nm_mask(sal, pattern, axis=0)
        assert retained_saliency(sal, pattern) == \
            pytest.approx(float((sal * mask).sum()), rel=1e-10)

    def test_dense_pattern_keeps_everything(self, rng):
        sal = rng.random((16, 3))
        assert retained_saliency(sal, NMPattern(4, 4)) == \
            pytest.approx(float(sal.sum()))

    def test_ragged_rows(self, rng):
        sal = rng.random((10, 2))  # not a multiple of 4
        pattern = NMPattern(1, 4)
        mask = compute_nm_mask(sal, pattern, axis=0)
        assert retained_saliency(sal, pattern) == \
            pytest.approx(float((sal * mask).sum()), rel=1e-10)


class TestPermutationHelpers:
    def test_gather_consistency(self, rng):
        """Permuted-weight matmul with permuted activations is invariant —
        the hardware's correctness condition."""
        w = rng.random((16, 4))
        x = rng.random((3, 16))
        perm = rng.permutation(16)
        y_ref = x @ w
        y_perm = x[:, perm] @ w[perm]
        np.testing.assert_allclose(y_perm, y_ref, rtol=1e-12)


class TestSearch:
    def test_never_worse_than_identity(self, rng):
        pattern = NMPattern(1, 4)
        sal = rng.random((32, 4))
        base = retained_saliency(sal, pattern)
        _, best = find_channel_permutation(sal, pattern, iterations=300,
                                           rng=rng)
        assert best >= base - 1e-12

    def test_returns_valid_permutation(self, rng):
        sal = rng.random((24, 2))
        perm, _ = find_channel_permutation(sal, NMPattern(1, 8),
                                           iterations=200, rng=rng)
        assert sorted(perm.tolist()) == list(range(24))

    def test_recovers_clustered_saliency(self, rng):
        """Adversarial case: all salient channels packed into one group.

        Identity grouping keeps only n of them; a good permutation spreads
        them across groups and keeps (almost) all.
        """
        pattern = NMPattern(1, 4)
        sal = np.full((16, 1), 0.01)
        sal[:4, 0] = 10.0  # four big channels inside the first group of 4
        base = retained_saliency(sal, pattern)       # keeps 1 big one
        _, best = find_channel_permutation(sal, pattern, iterations=1500,
                                           restarts=3, rng=rng)
        assert best > 3 * base  # spreads the big channels out

    def test_recovers_group_aligned_saliency(self):
        """Correlated channels: the four salient ones of every group of
        eight sit side by side, so aligned 1:4 grouping keeps one of them
        per group of four and a permutation keeps at least 1.5x more."""
        pattern = NMPattern(1, 4)
        sal = np.full((32, 8), 0.01)
        for offset in range(4):
            sal[offset::8] = 5.0
        base = retained_saliency(sal, pattern)
        _, best = find_channel_permutation(sal, pattern, iterations=3000,
                                           restarts=3,
                                           rng=np.random.default_rng(3))
        assert best > base * 1.5

    def test_gain_nonnegative(self, rng):
        sal = rng.random((40, 3))
        assert permutation_gain(sal, NMPattern(2, 8), iterations=300,
                                rng=rng) >= 0.0

    def test_gain_zero_for_uniform(self):
        sal = np.ones((16, 2))
        assert permutation_gain(sal, NMPattern(1, 4), iterations=100) == \
            pytest.approx(0.0, abs=1e-9)

    def test_permuted_mask_still_satisfies_pattern(self, rng):
        """End-to-end: permute -> prune -> verify pattern holds."""
        from repro.sparsity import verify_nm
        pattern = NMPattern(2, 8)
        w = rng.standard_normal((64, 8))
        perm, _ = find_channel_permutation(np.abs(w), pattern,
                                           iterations=200, rng=rng)
        wp = w[perm]
        mask = compute_nm_mask(np.abs(wp), pattern, axis=0)
        assert verify_nm(wp * mask, pattern, axis=0)
