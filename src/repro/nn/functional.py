"""Neural-network functional primitives built on the autograd :class:`Tensor`.

Convolution lowers to a GEMM through an explicit im2col/col2im pair, exactly as
the accelerator maps it: the GEMM's weight matrix is what gets N:M-sparsified,
CSC-compressed and mapped onto the PIM PEs (see :mod:`repro.core.mapper`). Both
helpers stage data channels-last, ``(N, H, W, C)``, so C is innermost on both
sides of every copy. The GEMM operands and their memory layouts are frozen: BLAS
picks its kernel, and so its rounding, from them (docs/METHODOLOGY.md §15).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..obs import get_tracer
from .tensor import Tensor, astensor


# --------------------------------------------------------------------- im2col
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces empty output: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange the patches of an ``(N, C, H, W)`` batch into columns: the
    ``(N * OH * OW, C * KH * KW)`` patch matrix, columns in ``(C, KH, KW)`` order."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    xp = x.transpose(0, 2, 3, 1)                           # (n, h, w, c) view
    if padding > 0:
        # A one-column window's patch matrix can be a view of the padded image,
        # and the frozen GEMM layout for it is the NCHW view (METHODOLOGY §15).
        hp, wp = h + 2 * padding, w + 2 * padding
        buf = (np.zeros((n, hp, wp, c), dtype=x.dtype) if kw > 1 else
               np.zeros((n, c, hp, wp), dtype=x.dtype).transpose(0, 2, 3, 1))
        buf[:, padding:padding + h, padding:padding + w] = xp
        xp = buf
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]               # (n, oh, ow, c, kh, kw)
    return windows.reshape(n * oh * ow, c * kh * kw)


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
           kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    cols = cols.reshape(n, oh, ow, c, kh, kw)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    for i in range(kh):                                    # tap order fixes each sum
        for j in range(kw):
            padded[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[..., i, j]
    return padded[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)


# ---------------------------------------------------------------- convolution
def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution, ``x (N,C,H,W)`` * ``weight (F,C,KH,KW)`` -> ``(N,F,OH,OW)``.

    Traced as ``nn.conv2d`` (attrs: the GEMM's ``dtype``, the input
    ``shape``) and its backward as ``nn.conv2d.backward``.
    """
    x = astensor(x)
    weight = astensor(weight)
    tracer = get_tracer()
    if tracer.enabled:
        dtype = np.result_type(x.dtype, weight.dtype)
        with tracer.span("nn.conv2d", dtype=str(dtype), shape=x.shape):
            return _conv2d(x, weight, bias, stride, padding)
    return _conv2d(x, weight, bias, stride, padding)


def _conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor],
            stride: int, padding: int) -> Tensor:
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {wc}")
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)

    cols = im2col(x.data, kh, kw, stride, padding)            # (N*OH*OW, C*KH*KW)
    wmat = weight.data.reshape(f, -1)                          # (F, C*KH*KW)
    out_data = cols @ wmat.T                                   # (N*OH*OW, F)
    if bias is not None:
        out_data = out_data + bias.data
    out_data = out_data.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)

    parents = [x, weight] + ([bias] if bias is not None else [])
    out = x._make_child(out_data, parents)
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            tracer = get_tracer()
            if tracer.enabled:
                with tracer.span("nn.conv2d.backward", shape=x.shape):
                    _grads(g)
            else:
                _grads(g)

        def _grads(g: np.ndarray) -> None:
            g2 = g.transpose(0, 2, 3, 1).reshape(-1, f)        # (N*OH*OW, F)
            if weight.requires_grad:
                gw = (g2.T @ cols).reshape(weight.shape)
                weight._accumulate(gw)
            if bias is not None and bias.requires_grad:
                bias._accumulate(g2.sum(axis=0))
            if x.requires_grad:
                gcols = g2 @ wmat                              # (N*OH*OW, C*KH*KW)
                x._accumulate(col2im(gcols, x.shape, kh, kw, stride, padding))
        out._backward = _backward
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x (N, in)`` @ ``weight.T (in, out)`` + bias."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# -------------------------------------------------------------------- pooling
def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    cols = cols.reshape(n * c * oh * ow, kernel * kernel)
    arg = cols.argmax(axis=1)
    out_data = cols[np.arange(cols.shape[0]), arg].reshape(n, c, oh, ow)

    out = x._make_child(out_data, (x,))
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gcols = np.zeros((cols.shape[0], kernel * kernel), dtype=g.dtype)
            gcols[np.arange(cols.shape[0]), arg] = g.reshape(-1)
            gx = col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
            x._accumulate(gx.reshape(x.shape))
        out._backward = _backward
    return out


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling; used by the Rep-Net adaptor's downsampling stage."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    out_data = cols.mean(axis=1).reshape(n, c, oh, ow)

    out = x._make_child(out_data, (x,))
    if out.requires_grad:
        def _backward(g: np.ndarray) -> None:
            gcols = np.repeat(g.reshape(-1, 1), kernel * kernel, axis=1) / (kernel * kernel)
            gx = col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
            x._accumulate(gx.reshape(x.shape))
        out._backward = _backward
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Reduce each channel's spatial map to a single value: ``(N,C,H,W) -> (N,C)``."""
    return x.mean(axis=(2, 3))


# ------------------------------------------------------------- nonlinearities
def relu(x: Tensor) -> Tensor:
    return x.relu()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


# -------------------------------------------------------------------- losses
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits (N, K)`` and integer ``targets (N,)``."""
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError(f"targets must be a 1-D class-index array, got {targets.shape}")
    n = logits.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    return -picked.mean()


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Top-1 accuracy as a plain float (no graph)."""
    pred = logits.data.argmax(axis=-1)
    return float((pred == np.asarray(targets)).mean())
