"""Unit tests for the module/layer system."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.modules import Parameter
from repro.nn.tensor import Tensor

from .nn_helpers import ReLU, Sequential, set_seed


@pytest.fixture(autouse=True)
def seed():
    set_seed(0)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestParameter:

    def test_freeze_clears_grad(self):
        p = Parameter(np.ones(3))
        assert p.trainable and p.requires_grad
        p.grad = np.ones(3)
        p.freeze()
        assert not p.trainable and not p.requires_grad
        assert p.grad is None


class TestModuleTraversal:
    def test_named_parameters_nested(self):
        model = Sequential(nn.Linear(4, 8), ReLU(), nn.Linear(8, 2))
        names = [n for n, _ in model.named_parameters()]
        assert "layer0.weight" in names
        assert "layer2.bias" in names
        assert len(model.parameters()) == 4

    def test_num_parameters(self):
        lin = nn.Linear(4, 8)
        assert lin.num_parameters() == 4 * 8 + 8
        lin.weight.freeze()
        assert lin.num_parameters(trainable_only=True) == 8

    def test_train_eval_propagates(self):
        model = Sequential(nn.Linear(2, 2), nn.BatchNorm2d(2))
        model.eval()
        assert not model.layers[1].training
        model.train()
        assert model.layers[1].training

    def test_module_freeze_freezes_every_parameter(self):
        model = Sequential(nn.Linear(3, 4), ReLU(), nn.Linear(4, 2))
        assert model.freeze() is model
        assert all(not p.trainable and not p.requires_grad
                   for p in model.parameters())
        assert model.num_parameters(trainable_only=True) == 0

    def test_zero_grad(self):
        lin = nn.Linear(3, 3)
        lin.weight.grad = np.ones((3, 3))
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_state_dict_roundtrip(self):
        a = Sequential(nn.Linear(3, 4), ReLU(), nn.Linear(4, 2))
        b = Sequential(nn.Linear(3, 4), ReLU(), nn.Linear(4, 2))
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_shape_check(self):
        a = nn.Linear(3, 4)
        with pytest.raises(ValueError):
            a.load_state_dict({"weight": np.zeros((2, 2))})


class TestLayers:
    def test_linear_forward(self, rng):
        lin = nn.Linear(5, 3)
        x = rng.standard_normal((2, 5))
        out = lin(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ lin.weight.data.T + lin.bias.data, rtol=1e-6)

    def test_linear_no_bias(self):
        lin = nn.Linear(5, 3, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_conv_forward_shape(self, rng):
        conv = nn.Conv2d(3, 6, 3, stride=2, padding=1)
        out = conv(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 6, 4, 4)

    def test_batchnorm_normalizes(self, rng):
        bn = nn.BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 5, 5)) * 3 + 2)
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)),
                                   np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)),
                                   np.ones(4), atol=1e-2)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        bn = nn.BatchNorm2d(2)
        x = rng.standard_normal((16, 2, 4, 4)) + 5.0
        for _ in range(50):
            bn(Tensor(x))
        bn.eval()
        out = bn(Tensor(x))
        # running stats converged to batch stats -> output ~normalized
        assert abs(out.data.mean()) < 0.3

    def test_batchnorm_rejects_2d(self):
        bn = nn.BatchNorm2d(2)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((3, 2))))

    def test_pool_modules(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 8, 8)))
        assert nn.AvgPool2d(2)(x).shape == (1, 2, 4, 4)


class TestTrainingIntegration:
    def test_small_classifier_converges(self, rng):
        """End-to-end: a small MLP reaches high accuracy on separable data."""
        X = rng.standard_normal((150, 8))
        W = rng.standard_normal((8, 3))
        y = (X @ W).argmax(axis=1)
        model = Sequential(nn.Linear(8, 16), ReLU(), nn.Linear(16, 3))
        opt = nn.Adam(model.parameters(), lr=0.02)
        for _ in range(80):
            loss = F.cross_entropy(model(Tensor(X)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert F.accuracy(model(Tensor(X)), y) > 0.95

    def test_frozen_params_do_not_move(self, rng):
        model = Sequential(nn.Linear(4, 8), ReLU(), nn.Linear(8, 2))
        model.layers[0].weight.freeze()
        frozen_before = model.layers[0].weight.data.copy()
        opt = nn.Adam(model.parameters(), lr=0.5)
        X = rng.standard_normal((10, 4))
        y = rng.integers(0, 2, 10)
        loss = F.cross_entropy(model(Tensor(X)), y)
        opt.zero_grad()
        loss.backward()
        opt.step()
        np.testing.assert_array_equal(model.layers[0].weight.data, frozen_before)
