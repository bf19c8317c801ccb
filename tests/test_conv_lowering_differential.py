"""Differential suite: channels-last conv lowering against the NCHW original.

``im2col`` and ``col2im`` stage their data through an ``(N, H, W, C)`` buffer.
The oracle functions below are the NCHW bodies they replaced, copied verbatim,
together with the ``conv2d``/``max_pool2d``/``avg_pool2d`` bodies that call
them.  Every comparison is exact ``np.array_equal``: the staging buffer may
change how bytes move, never which floats come out, and the GEMMs ``conv2d``
hands to BLAS must see the same operands in the same memory layouts.
"""

import itertools
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.functional import conv_output_size
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, astensor
from repro.repnet.model import build_repnet_model


# ----------------------------------------------------------------- oracle
def oracle_im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]            # (n, c, oh, ow, kh, kw)
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)


def oracle_col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
                  kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def oracle_conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                  stride: int = 1, padding: int = 0) -> Tensor:
    x = astensor(x)
    weight = astensor(weight)
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {wc}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)

    cols = oracle_im2col(x.data, kh, kw, stride, padding)     # (N*OH*OW, C*KH*KW)
    wmat = weight.data.reshape(f, -1)                          # (F, C*KH*KW)
    out_data = cols @ wmat.T                                   # (N*OH*OW, F)
    if bias is not None:
        out_data = out_data + bias.data
    out_data = out_data.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = [x, weight] + ([bias] if bias is not None else [])
    out = x._make_child(out_data, parents)
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            g2 = g.transpose(0, 2, 3, 1).reshape(-1, f)        # (N*OH*OW, F)
            if weight.requires_grad:
                gw = (g2.T @ cols).reshape(weight.shape)
                weight._accumulate(gw)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g2.sum(axis=0))
            if x.requires_grad:
                gcols = g2 @ wmat                              # (N*OH*OW, C*KH*KW)
                x._accumulate(oracle_col2im(gcols, x.shape, kh, kw, stride, padding))
        out._backward = _backward
    return out


def oracle_max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    cols = oracle_im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    cols = cols.reshape(n * c * oh * ow, kernel * kernel)
    arg = cols.argmax(axis=1)
    out_data = cols[np.arange(cols.shape[0]), arg].reshape(n, c, oh, ow)

    out = x._make_child(out_data, (x,))
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gcols = np.zeros((cols.shape[0], kernel * kernel), dtype=g.dtype)
            gcols[np.arange(cols.shape[0]), arg] = g.reshape(-1)
            gx = oracle_col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
            x._accumulate(gx.reshape(x.shape))
        out._backward = _backward
    return out


def oracle_avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    cols = oracle_im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    out_data = cols.mean(axis=1).reshape(n, c, oh, ow)

    out = x._make_child(out_data, (x,))
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gcols = np.repeat(g.reshape(-1, 1), kernel * kernel, axis=1) / (kernel * kernel)
            gx = oracle_col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
            x._accumulate(gx.reshape(x.shape))
        out._backward = _backward
    return out


ORACLE = {"im2col": oracle_im2col, "col2im": oracle_col2im,
          "conv2d": oracle_conv2d, "max_pool2d": oracle_max_pool2d,
          "avg_pool2d": oracle_avg_pool2d}


# ------------------------------------------------------------------- grid
BATCHES = (1, 2, 3, 4, 6, 8, 12, 30, 32)
KERNELS = (1, 3, 5)
STRIDES = (1, 2)
PADDINGS = (0, 1, 2)
DTYPES = (np.float32, np.float64)
CHANNELS = (1, 3, 16, 64)
H, W = 7, 9          # unequal, odd sides: a swapped h/w or a bad crop shows
FILTERS = 16


def _same_layout(new: np.ndarray, old: np.ndarray) -> None:
    """The patch matrix BLAS sees: same values, shape, strides, contiguity."""
    assert new.dtype == old.dtype
    assert np.array_equal(new, old)
    assert new.strides == old.strides
    assert new.flags.c_contiguous == old.flags.c_contiguous
    assert new.flags.f_contiguous == old.flags.f_contiguous


def _conv_pair(conv, x, w, b, stride, padding):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = conv(xt, wt, bt, stride=stride, padding=padding)
    g = np.random.default_rng(1).standard_normal(out.shape).astype(x.dtype)
    out.backward(g)
    grads = [xt.grad, wt.grad] + ([] if bt is None else [bt.grad])
    return out.data, grads


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("padding", PADDINGS)
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("k", KERNELS)
class TestConvLowering:
    def test_im2col_and_col2im(self, k, stride, padding, dtype):
        rng = np.random.default_rng(k * 100 + stride * 10 + padding)
        for n, c in itertools.product(BATCHES, CHANNELS):
            x = rng.standard_normal((n, c, H, W)).astype(dtype)
            cols = F.im2col(x, k, k, stride, padding)
            _same_layout(cols, oracle_im2col(x, k, k, stride, padding))
            y = rng.standard_normal(cols.shape).astype(dtype)
            img = F.col2im(y, x.shape, k, k, stride, padding)
            ref = oracle_col2im(y, x.shape, k, k, stride, padding)
            assert img.shape == ref.shape and img.dtype == ref.dtype
            assert np.array_equal(img, ref), (n, c)

    @pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
    def test_conv2d_forward_and_grads(self, k, stride, padding, dtype, bias):
        rng = np.random.default_rng(k * 100 + stride * 10 + padding + bias)
        for n, c in itertools.product(BATCHES, CHANNELS):
            x = rng.standard_normal((n, c, H, W)).astype(dtype)
            w = rng.standard_normal((FILTERS, c, k, k)).astype(dtype)
            b = rng.standard_normal(FILTERS).astype(dtype) if bias else None
            out, grads = _conv_pair(F.conv2d, x, w, b, stride, padding)
            ref_out, ref_grads = _conv_pair(oracle_conv2d, x, w, b, stride, padding)
            assert out.dtype == ref_out.dtype
            assert np.array_equal(out, ref_out), (n, c)
            for got, want in zip(grads, ref_grads):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (n, c)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("kernel,stride", [(2, None), (3, None), (2, 1), (3, 2)])
@pytest.mark.parametrize("name", ["max_pool2d", "avg_pool2d"])
def test_pooling_forward_and_grads(name, kernel, stride, dtype):
    rng = np.random.default_rng(kernel * 10 + (stride or 0))
    for n, c in itertools.product(BATCHES, CHANNELS):
        x = rng.standard_normal((n, c, H, W)).astype(dtype)
        results = []
        for pool in (getattr(F, name), ORACLE[name]):
            xt = Tensor(x, requires_grad=True)
            out = pool(xt, kernel, stride)
            out.backward(np.random.default_rng(2).standard_normal(out.shape).astype(dtype))
            results.append((out.data, xt.grad))
        (out, gx), (ref_out, ref_gx) = results
        assert np.array_equal(out, ref_out), (n, c)
        assert gx.dtype == ref_gx.dtype
        assert np.array_equal(gx, ref_gx), (n, c)


# ------------------------------------------------------------ training step
def _two_adam_steps():
    model = build_repnet_model(widths=(8, 8, 16, 16, 16, 16), repnet_width=4, seed=3)
    model.add_task("t", 5)
    model.set_active_task("t")
    model.train()
    params = model.parameters()
    opt = Adam(params, lr=1e-2)
    rng = np.random.default_rng(11)
    for _ in range(2):
        x = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 5, size=4)
        loss = F.cross_entropy(model(Tensor(x)), y)
        opt.zero_grad()
        loss.backward()
        opt.step()
    return [p.data.copy() for p in params]


def test_two_adam_steps_bit_identical(monkeypatch):
    new = _two_adam_steps()
    with monkeypatch.context() as m:
        for name, fn in ORACLE.items():
            m.setattr(F, name, fn)
        old = _two_adam_steps()
    assert len(new) == len(old)
    for got, want in zip(new, old):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
