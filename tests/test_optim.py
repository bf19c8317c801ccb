"""Unit tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.nn.modules import Parameter
from repro.nn.optim import Adam, clip_grad_norm


def quadratic_param(start=5.0):
    """A parameter whose 'loss' is x^2 (gradient = 2x)."""
    return Parameter(np.array([start]))


def grad_step(p):
    p.grad = 2 * p.data


class TestOptimizer:
    """The base class's checks, through its one subclass."""

    def test_skips_frozen(self):
        p = quadratic_param()
        p.freeze()
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])  # grad set manually despite freeze
        p.trainable = False
        opt.step()
        assert p.data[0] == 5.0

    def test_mask_shape_check(self):
        p = Parameter(np.ones(4))
        opt = Adam([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.set_mask(p, np.ones(3))

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)


class TestAdam:
    def test_converges(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            grad_step(p)
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_bias_correction_first_step(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # First Adam step moves by ~lr regardless of gradient scale.
        assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_mask_pins_zeros(self):
        p = Parameter(np.array([0.0, 2.0]))
        opt = Adam([p], lr=0.5)
        opt.set_mask(p, np.array([0.0, 1.0]))
        p.grad = np.ones(2)
        opt.step()
        assert p.data[0] == 0.0


class TestGradClip:
    def test_clips_large(self):
        p = Parameter(np.zeros(4))
        p.grad = np.ones(4) * 10  # norm 20
        total = clip_grad_norm([p], 1.0)
        assert total == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small(self):
        p = Parameter(np.zeros(4))
        p.grad = np.ones(4) * 0.1
        clip_grad_norm([p], 10.0)
        np.testing.assert_allclose(p.grad, 0.1 * np.ones(4))


class TestReferenceUpdates:
    """Several steps of each optimizer against its update rule in numpy."""

    GRADS = [np.array([0.5, -1.0, 2.0]), np.array([-0.25, 0.75, 1.5]),
             np.array([1.0, 0.0, -2.0]), np.array([0.1, -0.3, 0.2])]

    @pytest.mark.parametrize("betas,weight_decay", [
        ((0.9, 0.999), 0.0), ((0.9, 0.999), 0.01), ((0.5, 0.9), 0.0)])
    def test_adam_matches_closed_form(self, betas, weight_decay):
        lr, eps = 0.05, 1e-8
        b1, b2 = betas
        p = Parameter(np.array([1.0, -2.0, 0.5]))
        opt = Adam([p], lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        x = p.data.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t, grad in enumerate(self.GRADS, start=1):
            p.grad = grad.copy()
            opt.step()
            g = grad + weight_decay * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(p.data, x, rtol=1e-12, atol=1e-12)
