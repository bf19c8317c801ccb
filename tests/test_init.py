"""Tests for the weight-initialization module."""

import numpy as np
import pytest

from repro import nn
from repro.nn import init


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestFanComputation:
    def test_linear_fans(self):
        lin = nn.Linear(12, 7)
        fan_in, fan_out = init._fan_in_out(lin.weight)
        assert (fan_in, fan_out) == (12, 7)

    def test_conv_fans(self):
        conv = nn.Conv2d(3, 8, 5)
        fan_in, fan_out = init._fan_in_out(conv.weight)
        assert (fan_in, fan_out) == (3 * 25, 8 * 25)

    def test_unsupported_shape(self):
        p = nn.Parameter(np.zeros(5))
        with pytest.raises(ValueError):
            init._fan_in_out(p)


class TestStrategies:
    def test_kaiming_uniform_bound(self, rng):
        lin = nn.Linear(100, 50)
        init.kaiming_uniform_(lin.weight, rng)
        bound = np.sqrt(6.0 / 100)
        assert np.abs(lin.weight.data).max() <= bound + 1e-6

    def test_kaiming_normal_variance(self, rng):
        lin = nn.Linear(256, 256)
        init.kaiming_normal_(lin.weight, rng)
        expected_std = np.sqrt(2.0 / 256)
        assert lin.weight.data.std() == pytest.approx(expected_std, rel=0.1)

    def test_xavier_uniform_bound(self, rng):
        lin = nn.Linear(64, 32)
        init.xavier_uniform_(lin.weight, rng)
        bound = np.sqrt(6.0 / (64 + 32))
        assert np.abs(lin.weight.data).max() <= bound + 1e-6

    def test_xavier_normal_variance(self, rng):
        lin = nn.Linear(200, 200)
        init.xavier_normal_(lin.weight, rng)
        expected = np.sqrt(2.0 / 400)
        assert lin.weight.data.std() == pytest.approx(expected, rel=0.1)

    def test_orthogonal_rows(self, rng):
        lin = nn.Linear(32, 16)  # weight (16, 32): rows orthonormal
        init.orthogonal_(lin.weight, rng)
        w = lin.weight.data.astype(np.float64)
        gram = w @ w.T
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-5)

    def test_zeros_and_constant(self):
        lin = nn.Linear(4, 4)
        init.zeros_(lin.weight)
        assert (lin.weight.data == 0).all()
        init.constant_(lin.bias, 0.5)
        assert (lin.bias.data == 0.5).all()


UNIFORM_AND_NORMAL = {
    # strategy -> expected std from (fan_in, fan_out)
    "kaiming_uniform_": lambda fi, fo: np.sqrt(6.0 / fi) / np.sqrt(3.0),
    "kaiming_normal_": lambda fi, fo: np.sqrt(2.0 / fi),
    "xavier_uniform_": lambda fi, fo: np.sqrt(6.0 / (fi + fo)) / np.sqrt(3.0),
    "xavier_normal_": lambda fi, fo: np.sqrt(2.0 / (fi + fo)),
}


class TestConvWeights:
    @pytest.mark.parametrize("strategy", sorted(UNIFORM_AND_NORMAL))
    def test_conv_weight_std_uses_receptive_field(self, strategy, rng):
        conv = nn.Conv2d(32, 64, 3)
        getattr(init, strategy)(conv.weight, rng)
        fan_in, fan_out = 32 * 9, 64 * 9
        expected = UNIFORM_AND_NORMAL[strategy](fan_in, fan_out)
        assert conv.weight.data.std() == pytest.approx(expected, rel=0.05)
        assert conv.weight.data.dtype == conv.weight.dtype

    @pytest.mark.parametrize("strategy", sorted(UNIFORM_AND_NORMAL)
                             + ["orthogonal_"])
    def test_same_seed_same_weights(self, strategy):
        a, b = nn.Conv2d(4, 8, 3), nn.Conv2d(4, 8, 3)
        getattr(init, strategy)(a.weight, np.random.default_rng(3))
        getattr(init, strategy)(b.weight, np.random.default_rng(3))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)
        getattr(init, strategy)(b.weight, np.random.default_rng(4))
        assert not np.array_equal(a.weight.data, b.weight.data)

    def test_orthogonal_conv_filters(self, rng):
        conv = nn.Conv2d(8, 4, 3)  # 4 filters of 72 taps: rows orthonormal
        init.orthogonal_(conv.weight, rng)
        w = conv.weight.data.reshape(4, -1).astype(np.float64)
        np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-5)
