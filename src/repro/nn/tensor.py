"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the training substrate used to reproduce the
algorithm side of the paper (N:M sparse Rep-Net continual learning).  It
implements a small but complete autograd engine: each :class:`Tensor` wraps a
``numpy.ndarray`` and records the operation that produced it, so that
``Tensor.backward`` can propagate gradients through arbitrary DAGs of the
supported operations.

Design notes
------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ndarray), mirroring
  the PyTorch convention used by the paper's training recipes.
* Broadcasting is fully supported; :func:`unbroadcast` folds gradients back to
  the shape of the broadcast operand.
* Only float64/float32 tensors participate in autograd.  Integer tensors are
  allowed as data carriers (e.g. labels, sparse indices) but never require
  gradients.
"""

from __future__ import annotations

import contextvars
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import get_tracer

Arrayish = Union["Tensor", np.ndarray, float, int, list, tuple]

#: Dtype of parameters and of the ``zeros``/``ones`` factories.  Training stays
#: in it: a Python scalar takes the dtype of the floating tensor it meets
#: (:meth:`Tensor._operand`), so ``Tensor.mean``, ``x + eps``, ``BatchNorm2d``
#: and an optimizer step keep float32 float32 (tests/test_dtype_flow.py).
DEFAULT_DTYPE = np.float32


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions.

    Numpy broadcasting either prepends new axes or stretches size-1 axes; the
    adjoint of both is a sum along the corresponding axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along stretched (size-1) axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: Arrayish, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype)
    if dtype is None and arr.dtype == np.float16:
        arr = arr.astype(np.float32)
    return arr


def astensor(value: Arrayish) -> "Tensor":
    """Coerce any array-like value to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts, kept in the dtype ``np.asarray``
        gives it (a list of Python floats is ``float64``; parameters and the
        factories use ``DEFAULT_DTYPE``).  A Python scalar operand of an
        arithmetic op takes this tensor's floating dtype instead.
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
    __array_priority__ = 100.0  # ensure ndarray.__mul__ defers to Tensor

    def __init__(self, data: Arrayish, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError(
                f"only floating point tensors can require gradients, got {self.data.dtype}"
            )
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward = None
        self._prev: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ meta
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return self.data.item()

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        out = Tensor(self.data.astype(dtype))
        return out

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------- graph ops
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        requires = any(p.requires_grad for p in parents) and not no_grad.active()
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(parents)
        return out

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (so ``loss.backward()`` works for scalars and
        acts as a sum-of-outputs seed otherwise).  Traced as ``nn.backward``,
        counting the graph ``nodes`` it walks.
        """
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("nn.backward") as span:
                span.count(nodes=self._backpropagate(grad))
        else:
            self._backpropagate(grad)

    def _backpropagate(self, grad: Optional[np.ndarray]) -> int:
        """:meth:`backward`'s pass; returns the number of graph nodes."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )

        # Topological order over the DAG reachable from self.
        topo: list[Tensor] = []
        visited = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        return len(topo)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------ arithmetic
    def _operand(self, other: Arrayish) -> "Tensor":
        """``other`` as a Tensor.  A Python scalar meeting a floating tensor
        takes its dtype, as under NumPy's weak-scalar rule; a bare
        ``np.asarray`` would make it a strong 0-d float64 that promotes
        float32 (a float64 tensor stays float64 either way)."""
        if (isinstance(other, (int, float)) and not isinstance(other, np.generic)
                and np.issubdtype(self.data.dtype, np.floating)):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return astensor(other)

    def __add__(self, other: Arrayish) -> "Tensor":
        rhs = self._operand(other)
        out = self._make_child(self.data + rhs.data, (self, rhs))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(unbroadcast(g, self.shape))
                if rhs.requires_grad:
                    rhs._accumulate(unbroadcast(g, rhs.shape))
            out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                self._accumulate(-g)
            out._backward = _backward
        return out

    def __sub__(self, other: Arrayish) -> "Tensor":
        return self + (-self._operand(other))

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return self._operand(other) + (-self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        rhs = self._operand(other)
        out = self._make_child(self.data * rhs.data, (self, rhs))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(unbroadcast(g * rhs.data, self.shape))
                if rhs.requires_grad:
                    rhs._accumulate(unbroadcast(g * self.data, rhs.shape))
            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        rhs = self._operand(other)
        out = self._make_child(self.data / rhs.data, (self, rhs))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(unbroadcast(g / rhs.data, self.shape))
                if rhs.requires_grad:
                    rhs._accumulate(
                        unbroadcast(-g * self.data / (rhs.data ** 2), rhs.shape)
                    )
            out._backward = _backward
        return out

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return self._operand(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data ** exponent, (self,))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g * exponent * self.data ** (exponent - 1))
            out._backward = _backward
        return out

    def __matmul__(self, other: Arrayish) -> "Tensor":
        rhs = astensor(other)
        out = self._make_child(self.data @ rhs.data, (self, rhs))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                a, b = self.data, rhs.data
                if self.requires_grad:
                    if b.ndim == 1:
                        ga = np.outer(g, b) if a.ndim == 2 else g[..., None] * b
                    elif a.ndim == 1:
                        ga = g @ b.swapaxes(-1, -2)
                    else:
                        ga = g @ b.swapaxes(-1, -2)
                    self._accumulate(unbroadcast(ga.reshape(a.shape) if ga.shape != a.shape and ga.size == a.size else ga, a.shape))
                if rhs.requires_grad:
                    if a.ndim == 1:
                        gb = np.outer(a, g) if b.ndim == 2 else a[..., None] * g
                    elif b.ndim == 1:
                        gb = (a.swapaxes(-1, -2) @ g[..., None])[..., 0] if a.ndim > 2 else a.swapaxes(-1, -2) @ g
                    else:
                        gb = a.swapaxes(-1, -2) @ g
                    rhs._accumulate(unbroadcast(gb.reshape(b.shape) if gb.shape != b.shape and gb.size == b.size else gb, b.shape))
            out._backward = _backward
        return out

    # ---------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        out = self._make_child(np.exp(self.data), (self,))
        if out.requires_grad:
            # Close over the array, not ``out``: a closure holding its own
            # output is a reference cycle, and it would keep the whole
            # graph (im2col buffers included) alive until a cyclic GC pass.
            result = out.data
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g * result)
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g / self.data)
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out = self._make_child(np.tanh(self.data), (self,))
        if out.requires_grad:
            result = out.data  # not ``out``: see exp
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g * (1.0 - result ** 2))
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        out = self._make_child(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            mask = self.data > 0
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g * mask)
            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make_child(np.abs(self.data), (self,))
        if out.requires_grad:
            sign = np.sign(self.data)
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g * sign)
            out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        out = self._make_child(np.clip(self.data, low, high), (self,))
        if out.requires_grad:
            mask = (self.data >= low) & (self.data <= high)
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g * mask)
            out._backward = _backward
        return out

    # ------------------------------------------------------------ reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                grad = g
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.ndim for a in axes)
                    grad = np.expand_dims(grad, axis=tuple(sorted(axes)))
                self._accumulate(np.broadcast_to(grad, self.shape).astype(self.dtype))
            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a % self.ndim] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(out_data, (self,))
        if out.requires_grad:
            result = out.data  # not ``out``: see exp
            def _backward(g: np.ndarray) -> None:
                grad = g
                ref = result
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(sorted(a % self.ndim for a in axes))
                    grad = np.expand_dims(grad, axis=axes)
                    ref = np.expand_dims(ref, axis=axes)
                mask = (self.data == ref)
                # Split gradient equally among ties, matching numerical tests.
                # The integer counts would promote float32 to float64.
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate((np.broadcast_to(grad, self.shape) * mask / counts)
                                 .astype(self.dtype, copy=False))
            out._backward = _backward
        return out

    # --------------------------------------------------------------- shaping
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g.reshape(self.shape))
            out._backward = _backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_child(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inverse = tuple(np.argsort(axes))
            def _backward(g: np.ndarray) -> None:
                self._accumulate(g.transpose(inverse))
            out._backward = _backward
        return out

    def __getitem__(self, idx) -> "Tensor":
        out = self._make_child(self.data[idx], (self,))
        if out.requires_grad:
            def _backward(g: np.ndarray) -> None:
                full = np.zeros_like(self.data)
                np.add.at(full, idx, g)
                self._accumulate(full)
            out._backward = _backward
        return out

    # ----------------------------------------------------------- comparisons
    def __gt__(self, other: Arrayish) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: Arrayish) -> np.ndarray:
        return self.data < _as_array(other)

    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    tensors = [astensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors) and not no_grad.active()
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._prev = tuple(tensors)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _backward(g: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(start, stop)
                    t._accumulate(g[tuple(sl)])
        out._backward = _backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    expanded = [t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concatenate(expanded, axis=axis)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


#: Nesting depth of :class:`no_grad` in the current context.  Context-local,
#: as :mod:`repro.obs` keeps its tracer: a thread starts at depth 0, so one
#: thread's ``no_grad`` block never turns off another thread's graph or
#: ``BatchNorm2d`` statistics.
_NO_GRAD_DEPTH: "contextvars.ContextVar[int]" = \
    contextvars.ContextVar("repro_nn_no_grad", default=0)


class no_grad:
    """Context manager that marks a region as gradient-free.

    The engine builds graphs only from ``requires_grad`` tensors, so this is a
    lightweight switch that detaches module parameters on entry.  It exists to
    mirror the familiar API; evaluation loops in this codebase use it to make
    intent explicit and to skip graph construction costs.  The switch holds
    for the current thread (context) only; blocks nest.
    """

    def __enter__(self):
        _NO_GRAD_DEPTH.set(_NO_GRAD_DEPTH.get() + 1)
        return self

    def __exit__(self, *exc):
        _NO_GRAD_DEPTH.set(_NO_GRAD_DEPTH.get() - 1)
        return False

    @staticmethod
    def active() -> bool:
        return _NO_GRAD_DEPTH.get() > 0
