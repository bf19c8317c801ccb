"""Unit tests for NN functional ops (conv, pooling, losses)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .test_tensor import check_grad


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestIm2col:
    def test_roundtrip_shapes(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        cols = F.im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_output_size(self):
        assert F.conv_output_size(8, 3, 1, 1) == 8
        assert F.conv_output_size(8, 3, 2, 1) == 4
        assert F.conv_output_size(7, 3, 1, 0) == 5

    def test_output_size_invalid(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)

    @pytest.mark.parametrize("n,stride,padding", [(1, 1, 0), (3, 2, 1), (2, 1, 2)])
    def test_col2im_adjoint(self, rng, n, stride, padding):
        """<im2col(x), y> == <x, col2im(y)> — exact adjointness."""
        x = rng.standard_normal((n, 2, 6, 6))
        oh = F.conv_output_size(6, 3, stride, padding)
        y = rng.standard_normal((n * oh * oh, 2 * 9))
        lhs = (F.im2col(x, 3, 3, stride, padding) * y).sum()
        rhs = (x * F.col2im(y, x.shape, 3, 3, stride, padding)).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestConv2d:
    def test_matches_direct_convolution(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0)
        # direct loop reference
        ref = np.zeros((1, 3, 3, 3))
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    ref[0, f, i, j] = (x[0, :, i:i + 3, j:j + 3] * w[f]).sum()
        np.testing.assert_allclose(out.data, ref, rtol=1e-10)

    def test_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        check_grad(lambda: F.conv2d(x, w, b, stride=1, padding=1), [x, w, b])

    def test_strided_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        check_grad(lambda: F.conv2d(x, w, stride=2, padding=1), [x, w])

    @pytest.mark.parametrize("padding,stride", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_padding_equals_zero_padded_input(self, rng, padding, stride):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                            (padding, padding)))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding)
        ref = F.conv2d(Tensor(padded), Tensor(w), Tensor(b), stride=stride,
                       padding=0)
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-12, atol=1e-12)

    def test_wide_padding_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        check_grad(lambda: F.conv2d(x, w, stride=1, padding=2), [x, w])

    def test_channel_mismatch(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((3, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        check_grad(lambda: F.max_pool2d(x, 2), [x])

    def test_avg_pool_values(self):
        x = np.ones((1, 1, 4, 4))
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, np.ones((1, 1, 2, 2)))

    def test_avg_pool_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        check_grad(lambda: F.avg_pool2d(x, 2), [x])

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))


class TestLossesActivations:
    def test_log_softmax_consistency(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        e = np.exp(x.data)
        np.testing.assert_allclose(F.log_softmax(x).data,
                                   np.log(e / e.sum(axis=-1, keepdims=True)),
                                   rtol=1e-8)

    def test_cross_entropy_known_value(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradient(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        y = np.array([0, 1, 2, 1])
        loss = F.cross_entropy(logits, y)
        loss.backward()
        # analytic: softmax(p) - onehot, averaged
        e = np.exp(logits.data)
        p = e / e.sum(axis=-1, keepdims=True)
        onehot = np.eye(3)[y]
        np.testing.assert_allclose(logits.grad, (p - onehot) / 4, rtol=1e-8)

    def test_cross_entropy_rejects_2d_targets(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.zeros((4, 3)))

    def test_accuracy(self):
        logits = Tensor(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert F.accuracy(logits, np.array([1, 0])) == 1.0
        assert F.accuracy(logits, np.array([0, 0])) == 0.5
