"""Layer/module system: composable building blocks with named parameters.

Mirrors the familiar ``torch.nn`` layout closely enough that the paper's
Rep-Net recipe translates directly, while staying small and explicit.  Every
module tracks its :class:`Parameter` tensors so optimizers, the N:M pruner and
the INT8 quantizer can discover them by name.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from .tensor import DEFAULT_DTYPE, Tensor, no_grad


class Parameter(Tensor):
    """A trainable tensor.  ``trainable=False`` freezes it (backbone weights)."""

    __slots__ = ("trainable",)

    def __init__(self, data, trainable: bool = True):
        super().__init__(np.asarray(data, dtype=DEFAULT_DTYPE), requires_grad=trainable)
        self.trainable = trainable

    def freeze(self) -> None:
        self.trainable = False
        self.requires_grad = False
        self.grad = None


class Module:
    """Base class: tracks sub-modules and parameters by attribute name."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------- traversal
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (prefix + name, p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self) -> List[Parameter]:
        return [p for p in self.parameters() if p.trainable]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, mod in self._modules.items():
            yield from mod.named_modules(prefix + name + ".")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self, trainable_only: bool = False) -> int:
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.size for p in params))

    # ----------------------------------------------------------------- modes
    def train(self) -> "Module":
        object.__setattr__(self, "training", True)
        for m in self._modules.values():
            m.train()
        return self

    def eval(self) -> "Module":
        object.__setattr__(self, "training", False)
        for m in self._modules.values():
            m.eval()
        return self

    def freeze(self) -> "Module":
        """Freeze every parameter (used for the fixed backbone on MRAM PEs)."""
        for p in self.parameters():
            p.freeze()
        return self

    # ------------------------------------------------------------------ call
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------ state dict
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, mod in self.named_modules():
            if isinstance(mod, BatchNorm2d):
                key = (name + ".") if name else ""
                state[key + "running_mean"] = mod.running_mean.copy()
                state[key + "running_var"] = mod.running_var.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        for name, value in state.items():
            if name in params:
                if params[name].shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {params[name].shape} vs {value.shape}"
                    )
                params[name].data = value.copy()
        for name, mod in self.named_modules():
            if isinstance(mod, BatchNorm2d):
                key = (name + ".") if name else ""
                if key + "running_mean" in state:
                    mod.running_mean = state[key + "running_mean"].copy()
                    mod.running_var = state[key + "running_var"].copy()


# ------------------------------------------------------------------- layers
def _kaiming_uniform(shape: Tuple[int, ...], fan_in: int,
                     rng: np.random.Generator) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


_default_rng = np.random.default_rng(0)


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b`` with Kaiming-uniform init."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or _default_rng
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform((out_features, in_features), in_features, rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self):
        return f"Linear({self.in_features}, {self.out_features})"


class Conv2d(Module):
    """2D convolution layer; its flattened weight matrix is the PIM mapping unit."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or _default_rng
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size),
                             fan_in, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)

    def __repr__(self):
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class BatchNorm2d(Module):
    """Batch normalisation over ``(N, C, H, W)`` with running statistics."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features, dtype=DEFAULT_DTYPE)
        self.running_var = np.ones(num_features, dtype=DEFAULT_DTYPE)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N,C,H,W), got {x.shape}")
        if self.training and not no_grad.active():
            mean = x.data.mean(axis=(0, 2, 3), dtype=np.float64).astype(self.running_mean.dtype)
            var = x.data.var(axis=(0, 2, 3), dtype=np.float64).astype(self.running_var.dtype)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            centered = x - mu
            v = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
            xhat = centered / (v + self.eps) ** 0.5
        else:
            mu = self.running_mean.reshape(1, -1, 1, 1)
            v = self.running_var.reshape(1, -1, 1, 1)
            xhat = (x - Tensor(mu)) / Tensor(np.sqrt(v + self.eps).astype(mu.dtype))
        w = self.weight.reshape(1, -1, 1, 1)
        b = self.bias.reshape(1, -1, 1, 1)
        return xhat * w + b

    def __repr__(self):
        return f"BatchNorm2d({self.num_features})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self):
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"
