"""Unit tests for N:M sparsity: patterns, masks, saliency, pruner."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.data import DataLoader, TensorDataset
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.sparsity import (GradientSaliency, NMPattern, NMPruner,
                            apply_nm_mask, compute_nm_mask,
                            prunable_parameters, prune_model, verify_nm)

from .nn_helpers import ReLU, Sequential, set_seed


class TestNMPattern:
    def test_parse(self):
        p = NMPattern.parse("2:4")
        assert p.n == 2 and p.m == 4

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            NMPattern.parse("banana")

    def test_sparsity_levels(self):
        assert NMPattern(1, 4).sparsity == 0.75
        assert NMPattern(1, 8).sparsity == 0.875
        assert NMPattern(2, 4).density == 0.5

    def test_index_bits(self):
        assert NMPattern(1, 16).index_bits == 4
        assert NMPattern(1, 4).index_bits == 2
        assert NMPattern(1, 2).index_bits == 1

    def test_group_size_limit(self):
        with pytest.raises(ValueError):
            NMPattern(1, 32)  # exceeds 4-bit index range

    def test_n_exceeds_m(self):
        with pytest.raises(ValueError):
            NMPattern(5, 4)

    def test_str(self):
        assert str(NMPattern(2, 4)) == "2:4"


class TestMask:
    def test_keeps_top_n(self):
        sal = np.array([[1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0]])
        mask = compute_nm_mask(sal, NMPattern(2, 4))
        np.testing.assert_array_equal(mask, [[0, 1, 0, 1, 0, 1, 0, 1]])

    def test_group_alignment(self):
        """Groups are aligned blocks, not sliding windows."""
        sal = np.array([[10.0, 9.0, 1.0, 2.0, 1.0, 2.0, 10.0, 9.0]])
        mask = compute_nm_mask(sal, NMPattern(2, 4))
        np.testing.assert_array_equal(mask, [[1, 1, 0, 0, 0, 0, 1, 1]])

    def test_tie_break_deterministic(self):
        sal = np.ones((1, 8))
        mask = compute_nm_mask(sal, NMPattern(1, 4))
        np.testing.assert_array_equal(mask, [[1, 0, 0, 0, 1, 0, 0, 0]])

    def test_axis0_grouping(self):
        sal = np.arange(8.0).reshape(8, 1)
        mask = compute_nm_mask(sal, NMPattern(1, 4), axis=0)
        np.testing.assert_array_equal(mask[:, 0], [0, 0, 0, 1, 0, 0, 0, 1])

    def test_conv_kernel_grouping(self):
        """4-D kernels group along the flattened C*KH*KW dimension."""
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 2, 3, 3))
        mask = compute_nm_mask(np.abs(w), NMPattern(1, 4))
        assert mask.shape == w.shape
        flat = mask.reshape(4, -1)
        assert verify_nm(flat, NMPattern(1, 4))

    def test_ragged_tail_group(self):
        """Columns not divisible by m: tail group still ≤ n non-zeros."""
        sal = np.abs(np.random.default_rng(1).standard_normal((3, 10)))
        mask = compute_nm_mask(sal, NMPattern(1, 4))
        # tail group of 2 elements keeps at most 1
        assert (mask[:, 8:].sum(axis=1) <= 1).all()

    def test_verify_rejects_violation(self):
        bad = np.ones((1, 8))
        assert not verify_nm(bad, NMPattern(1, 4))

    def test_apply_mask_shape_check(self):
        with pytest.raises(ValueError):
            apply_nm_mask(np.ones((2, 4)), np.ones((2, 5)))



class TestSaliency:
    def test_gradient_saliency_accumulates(self):
        p = nn.Parameter(np.array([1.0, -2.0]))
        sal = GradientSaliency([p])
        p.grad = np.array([3.0, 1.0])
        sal.accumulate()
        p.grad = np.array([1.0, 1.0])
        sal.accumulate()
        scores = sal.scores()
        # |w| * mean|g| = [1*2, 2*1]
        np.testing.assert_allclose(scores[id(p)], [2.0, 2.0], rtol=1e-6)

    def test_scores_before_accumulate_raises(self):
        sal = GradientSaliency([nn.Parameter(np.ones(2))])
        with pytest.raises(RuntimeError):
            sal.scores()

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            GradientSaliency([])


def small_model():
    set_seed(0)
    return Sequential(nn.Linear(16, 24), ReLU(), nn.Linear(24, 3))


def small_loader(n=40):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, 16)).astype(np.float32)
    y = rng.integers(0, 3, n)
    return DataLoader(TensorDataset(X, y), batch_size=10)


class TestPruner:
    def test_prunable_parameters_excludes_bias(self):
        model = small_model()
        names = [n for n, _ in prunable_parameters(model)]
        assert all(n.endswith("weight") for n in names)
        assert len(names) == 2

    def test_prune_model_enforces_pattern(self):
        model = small_model()
        pattern = NMPattern(1, 4)
        masks = prune_model(model, pattern)
        for name, p in prunable_parameters(model):
            assert verify_nm(p.data, pattern), name
            assert name in masks

    def test_prune_trainable_only(self):
        model = small_model()
        model.layers[0].weight.freeze()
        masks = prune_model(model, NMPattern(1, 4), trainable_only=True)
        assert "layer0.weight" not in masks
        assert "layer2.weight" in masks

    def test_calibrated_pruner_workflow(self):
        model = small_model()
        pattern = NMPattern(2, 8)
        pruner = NMPruner(model, pattern)
        pruner.calibrate(small_loader())
        opt = Adam(model.trainable_parameters(), lr=1e-3)
        pruner.apply(opt)
        assert pruner.verify()
        report = pruner.sparsity_report()
        for name, ratio in report.items():
            assert ratio == pytest.approx(pattern.sparsity, abs=0.05), name

    def test_mask_survives_finetuning(self):
        """After masked training steps the N:M constraint still holds."""
        model = small_model()
        pattern = NMPattern(1, 4)
        pruner = NMPruner(model, pattern)
        pruner.calibrate(small_loader())
        opt = Adam(model.trainable_parameters(), lr=0.01)
        pruner.apply(opt)

        rng = np.random.default_rng(0)
        for _ in range(5):
            X = rng.standard_normal((8, 16))
            y = rng.integers(0, 3, 8)
            loss = F.cross_entropy(model(Tensor(X)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert pruner.verify()

    def test_apply_before_calibrate_raises(self):
        pruner = NMPruner(small_model(), NMPattern(1, 4))
        with pytest.raises(RuntimeError):
            pruner.apply()

    def test_gradient_calibration_prefers_useful_weights(self):
        """Weights with systematically larger gradients should be kept."""
        set_seed(1)
        model = Sequential(nn.Linear(8, 4))
        lin = model.layers[0]
        # Make data where only the first two input dims matter.
        rng = np.random.default_rng(5)
        X = np.zeros((64, 8), dtype=np.float32)
        X[:, :2] = rng.standard_normal((64, 2))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        loader = DataLoader(TensorDataset(X, y), batch_size=16)

        pruner = NMPruner(model, NMPattern(2, 8))
        masks = pruner.calibrate(loader)
        mask = masks["layer0.weight"]
        # Columns 0..1 (informative inputs) should be kept far more often
        # than the dead inputs.
        kept_live = mask[:, :2].mean()
        kept_dead = mask[:, 2:].mean()
        assert kept_live > kept_dead
