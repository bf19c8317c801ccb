"""Unit tests for the autograd engine (repro.nn.tensor)."""

import gc
import threading

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.modules import BatchNorm2d
from repro.nn.tensor import (Tensor, concatenate, no_grad, ones, stack,
                             unbroadcast, zeros)


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of an ndarray."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = fn()
        x[idx] = orig - eps
        fm = fn()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_grad(make_output, tensors, tol=1e-4):
    """Compare autograd gradients with numeric differentiation."""
    out = make_output()
    out.sum().backward()
    for t in tensors:
        analytic = t.grad
        numeric = numeric_grad(lambda: make_output().sum().item(), t.data)
        np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestBasicOps:
    def test_add_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: a + b, [a, b])

    def test_add_broadcast(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4,)), requires_grad=True)
        check_grad(lambda: a + b, [a, b])

    def test_mul_backward(self, rng):
        a = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        check_grad(lambda: a * b, [a, b])

    def test_div_backward(self, rng):
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)) + 3.0, requires_grad=True)
        check_grad(lambda: a / b, [a, b])

    def test_pow_backward(self, rng):
        a = Tensor(np.abs(rng.standard_normal((4,))) + 0.5, requires_grad=True)
        check_grad(lambda: a ** 3, [a])

    def test_neg_and_sub(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        check_grad(lambda: a - b, [a, b])

    def test_rsub_scalar(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        out = 1.0 - a
        np.testing.assert_allclose(out.data, 1.0 - a.data)

    def test_matmul_backward(self, rng):
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        check_grad(lambda: a @ b, [a, b])

    def test_matmul_vector(self, rng):
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal(3), requires_grad=True)
        check_grad(lambda: a @ v, [a, v])



#: Binary operators with the Tensor argument first; each applies to plain
#: ndarrays too, which gives the expected forward value.
MIXED_OPS = {
    "add": lambda t, o: t + o,
    "radd": lambda t, o: o + t,
    "sub": lambda t, o: t - o,
    "rsub": lambda t, o: o - t,
    "mul": lambda t, o: t * o,
    "rmul": lambda t, o: o * t,
    "truediv": lambda t, o: t / o,
    "rtruediv": lambda t, o: o / t,
    "matmul": lambda t, o: t @ o,
}


def _other_operand(kind, value):
    return Tensor(value) if kind == "constant-tensor" else value


class TestMixedOperands:
    """A Tensor combined with an ndarray, a scalar or a constant Tensor."""

    @pytest.mark.parametrize("kind", ["ndarray", "scalar", "constant-tensor"])
    @pytest.mark.parametrize("op", sorted(set(MIXED_OPS) - {"matmul"}))
    def test_elementwise(self, rng, op, kind):
        fn = MIXED_OPS[op]
        a = Tensor(rng.standard_normal((3, 4)) + 3.0, requires_grad=True)
        value = 2.5 if kind == "scalar" else rng.standard_normal((3, 4)) + 3.0
        other = _other_operand(kind, value)
        out = fn(a, other)
        assert isinstance(out, Tensor)
        np.testing.assert_allclose(out.data, fn(a.data, value))
        check_grad(lambda: fn(a, other), [a])
        if kind == "constant-tensor":
            assert other.grad is None

    @pytest.mark.parametrize("kind", ["ndarray", "constant-tensor"])
    def test_matmul(self, rng, kind):
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        value = rng.standard_normal((3, 5))
        other = _other_operand(kind, value)
        out = a @ other
        np.testing.assert_allclose(out.data, a.data @ value)
        check_grad(lambda: a @ other, [a])
        if kind == "constant-tensor":
            assert other.grad is None

    @pytest.mark.parametrize("op", ["add", "mul", "truediv", "matmul"])
    def test_gradient_reaches_right_operand_alone(self, rng, op):
        """With a constant left operand, only the right one accumulates."""
        fn = MIXED_OPS[op]
        a = Tensor(rng.standard_normal((3, 3)))
        b = Tensor(rng.standard_normal((3, 3)) + 3.0, requires_grad=True)
        check_grad(lambda: fn(a, b), [b])
        assert a.grad is None


class TestElementwise:
    def test_exp(self, rng):
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        check_grad(lambda: a.exp(), [a])

    def test_log(self, rng):
        a = Tensor(np.abs(rng.standard_normal((3, 3))) + 0.5, requires_grad=True)
        check_grad(lambda: a.log(), [a])

    def test_tanh(self, rng):
        a = Tensor(rng.standard_normal((5,)), requires_grad=True)
        check_grad(lambda: a.tanh(), [a])

    def test_relu_gradient_mask(self, rng):
        a = Tensor(np.array([-1.0, 2.0, -3.0, 4.0]), requires_grad=True)
        a.relu().backward(np.ones(4))
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0, 1.0])

    def test_abs(self, rng):
        a = Tensor(np.array([-2.0, 3.0, -0.5]), requires_grad=True)
        a.abs().sum().backward()
        np.testing.assert_array_equal(a.grad, [-1.0, 1.0, -1.0])

    def test_clip(self):
        a = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])


class TestReductionsShaping:
    def test_sum_axis(self, rng):
        a = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        check_grad(lambda: a.sum(axis=1), [a])

    def test_sum_keepdims(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: a.sum(axis=0, keepdims=True), [a])

    def test_mean(self, rng):
        a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        check_grad(lambda: a.mean(axis=1), [a])

    def test_max_backward_unique(self):
        a = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0, 1], [1, 0]])

    def test_reshape(self, rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        check_grad(lambda: a.reshape(3, 4), [a])

    def test_transpose(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_grad(lambda: a.transpose(2, 0, 1), [a])

    def test_getitem(self, rng):
        a = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        check_grad(lambda: a[1:3], [a])

    def test_getitem_fancy_accumulates(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        idx = np.array([0, 0, 2])
        a[idx].sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 0.0, 1.0])

    def test_concatenate(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        check_grad(lambda: concatenate([a, b], axis=1), [a, b])

    def test_stack(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)


class TestEngine:
    def test_grad_accumulation_over_reuse(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        out = a * a + a  # uses `a` in two paths
        out.sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 1)

    def test_deep_chain(self):
        a = Tensor(np.array([0.5]), requires_grad=True)
        x = a
        for _ in range(50):
            x = x * 1.01
        x.backward()
        np.testing.assert_allclose(a.grad, [1.01 ** 50], rtol=1e-10)

    def test_graph_is_freed_without_cyclic_gc(self, rng):
        """No backward closure holds its own output, so a spent graph (and
        every buffer its closures hold) is freed by reference counting
        instead of waiting for a cyclic collection."""
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            h = F.conv2d(x, w, padding=1).reshape(2, -1)
            h = h.exp() * 1e-3 + h.tanh() + h.relu()
            logits = h[:, :5] + h.max(axis=1, keepdims=True)
            F.cross_entropy(logits, np.array([1, 3])).backward()
            del h, logits
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
        assert x.grad is not None and w.grad is not None

    def test_backward_requires_grad(self):
        a = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_backward_seed_shape_mismatch(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            a.backward(np.ones(4))

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_no_grad_skips_graph(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_nests(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (a * 2).requires_grad
        assert (a * 2).requires_grad

    def test_no_grad_holds_for_its_own_thread_only(self, rng):
        """A thread parked inside ``no_grad`` changes nothing for another
        thread: its graph and its train-mode BatchNorm running statistics
        come out as when it runs alone."""
        x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)

        def train_step():
            bn = BatchNorm2d(3)
            inp = Tensor(x, requires_grad=True)
            out = bn(inp)
            out.sum().backward()
            return (out.requires_grad, out.data, inp.grad,
                    bn.running_mean, bn.running_var)

        alone = train_step()
        entered, release = threading.Event(), threading.Event()

        def park():
            with no_grad():
                entered.set()
                release.wait(timeout=60)

        parked = threading.Thread(target=park)
        parked.start()
        beside = []
        try:
            assert entered.wait(timeout=60)
            worker = threading.Thread(
                target=lambda: beside.append(train_step()))
            worker.start()
            worker.join(timeout=60)
        finally:
            release.set()
            parked.join(timeout=60)
        assert alone[0] is True and len(beside) == 1
        assert beside[0][0] is True
        for expected, got in zip(alone[1:], beside[0][1:]):
            np.testing.assert_array_equal(got, expected)
        assert not no_grad.active()

    def test_unbroadcast_prepended_axes(self):
        g = np.ones((2, 3, 4))
        assert unbroadcast(g, (3, 4)).shape == (3, 4)
        np.testing.assert_array_equal(unbroadcast(g, (3, 4)), 2 * np.ones((3, 4)))

    def test_unbroadcast_stretched_axes(self):
        g = np.ones((3, 4))
        out = unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        np.testing.assert_array_equal(out, 4 * np.ones((3, 1)))

    def test_factories(self):
        assert zeros((2, 2)).data.sum() == 0
        assert ones((2, 2)).data.sum() == 4
