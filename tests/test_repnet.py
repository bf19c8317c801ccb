"""Unit + integration tests for the Rep-Net continual-learning stack."""

import numpy as np
import pytest

from repro.datasets import TaskSpec, generate_task
from repro.nn.tensor import Tensor
from repro.repnet import (Backbone, BasicBlock, ContinualLearner,
                          TrainConfig, build_repnet_model, evaluate,
                          pretrain_backbone, sparsify_backbone)
from repro.sparsity import NMPattern, verify_nm


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tiny_model(seed=0):
    return build_repnet_model(widths=(8, 8, 16), strides=(1, 2, 1),
                              repnet_width=4, seed=seed)


def tiny_task(num_classes=3, per_class=6, seed=0):
    spec = TaskSpec("tiny", num_classes=num_classes, train_per_class=per_class,
                    test_per_class=4, image_size=8, class_seed=seed)
    return generate_task(spec, seed=seed)


class TestBackbone:
    def test_block_shapes(self, rng):
        block = BasicBlock(8, 16, stride=2, rng=rng)
        out = block(Tensor(rng.standard_normal((2, 8, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 16, 4, 4)

    def test_identity_skip_when_same_dims(self, rng):
        block = BasicBlock(8, 8, stride=1, rng=rng)
        assert block.shortcut is None

    def test_taps_count_and_shapes(self, rng):
        bb = Backbone(widths=(8, 16), strides=(1, 2), rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        feats, taps = bb.forward_with_taps(x)
        assert len(taps) == 2
        assert taps[0].shape == (2, 8, 8, 8)
        assert taps[1].shape == (2, 16, 4, 4)
        assert feats.shape == (2, 16)

    def test_width_stride_mismatch(self):
        with pytest.raises(ValueError):
            Backbone(widths=(8, 16), strides=(1,))


class TestRepNetModel:
    def test_forward_shape(self, rng):
        model = tiny_model()
        model.add_task("t", 5)
        model.set_active_task("t")
        out = model(Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 5)

    def test_multiple_task_heads(self, rng):
        model = tiny_model()
        model.add_task("a", 3)
        model.add_task("b", 7)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        assert model(x, "a").shape == (1, 3)
        assert model(x, "b").shape == (1, 7)

    def test_unknown_task(self):
        model = tiny_model()
        with pytest.raises(KeyError):
            model.set_active_task("nope")

    def test_no_active_task(self, rng):
        model = tiny_model()
        with pytest.raises(RuntimeError):
            model(Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32)))

    def test_freeze_backbone(self):
        model = tiny_model()
        model.freeze_backbone()
        assert all(not p.trainable for p in model.backbone.parameters())
        assert not model.backbone.training  # BN pinned to eval

    def test_learnable_fraction_small(self):
        model = build_repnet_model(seed=0)
        frac = model.learnable_fraction()
        assert 0.0 < frac < 0.15  # paper: ~5% of total weights

    def test_learnable_params_exclude_backbone(self):
        model = tiny_model()
        model.add_task("t", 3)
        model.set_active_task("t")
        model.freeze_backbone()
        backbone_ids = {id(p) for p in model.backbone.parameters()}
        for p in model.learnable_parameters():
            assert id(p) not in backbone_ids

    def test_train_keeps_frozen_backbone_in_eval(self):
        model = tiny_model()
        model.freeze_backbone()
        model.train()
        assert not model.backbone.training


class TestTrainingFlows:
    def test_pretrain_improves_over_chance(self):
        train, test = tiny_task(num_classes=3, per_class=20)
        model = tiny_model()
        cfg = TrainConfig(epochs=6, batch_size=16, lr=3e-3, seed=0)
        _, acc = pretrain_backbone(model.backbone, train, test, 3, cfg)
        assert acc > 1.0 / 3 + 0.1

    def test_sparsify_backbone_enforces_pattern(self):
        model = tiny_model()
        pattern = NMPattern(1, 4)
        sparsify_backbone(model.backbone, pattern)
        for name, mod in model.backbone.named_modules():
            if hasattr(mod, "weight") and mod.weight is not None \
                    and mod.weight.ndim >= 2:
                assert verify_nm(mod.weight.data, pattern), name

    def test_continual_dense_task(self):
        train, test = tiny_task(num_classes=3, per_class=12, seed=9)
        model = tiny_model()
        learner = ContinualLearner(model)
        cfg = TrainConfig(epochs=3, batch_size=12, lr=3e-3)
        result = learner.learn_task("t", train, test, cfg)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.sparsity == {}
        assert len(result.losses) == 3
        # training reduced the loss
        assert result.losses[-1] < result.losses[0]

    def test_continual_sparse_task_keeps_pattern(self):
        train, test = tiny_task(num_classes=3, per_class=10, seed=4)
        model = tiny_model()
        pattern = NMPattern(1, 4)
        learner = ContinualLearner(model, pattern=pattern)
        cfg = TrainConfig(epochs=2, batch_size=10, lr=3e-3)
        result = learner.learn_task("t", train, test, cfg)
        for name, ratio in result.sparsity.items():
            assert ratio == pytest.approx(pattern.sparsity, abs=0.1), name
        # backbone untouched (dense, frozen)
        assert all(not p.trainable for p in model.backbone.parameters())

    def test_continual_int8(self):
        train, test = tiny_task(num_classes=3, per_class=8, seed=2)
        model = tiny_model()
        learner = ContinualLearner(model, pattern=NMPattern(2, 8), int8=True)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=3e-3)
        result = learner.learn_task("t", train, test, cfg)
        assert 0.0 <= result.accuracy <= 1.0
        # INT8 PTQ must preserve the N:M support (zeros stay zero); layers
        # with reduction dim < m are exempt from pruning by design.
        from repro.sparsity import prunable_parameters
        for name, p in prunable_parameters(model, min_reduction_dim=8):
            if p.trainable:
                assert verify_nm(p.data, NMPattern(2, 8)), name

    def test_backbone_frozen_through_task_learning(self):
        train, test = tiny_task(num_classes=3, per_class=8)
        model = tiny_model()
        before = {n: p.data.copy()
                  for n, p in model.backbone.named_parameters()}
        learner = ContinualLearner(model)
        learner.learn_task("t", train, test,
                           TrainConfig(epochs=1, batch_size=8))
        for n, p in model.backbone.named_parameters():
            np.testing.assert_array_equal(p.data, before[n]), n

    def test_evaluate_range(self):
        _, test = tiny_task()
        model = tiny_model()
        model.add_task("t", 3)
        model.set_active_task("t")
        acc = evaluate(model, test, task="t")
        assert 0.0 <= acc <= 1.0
