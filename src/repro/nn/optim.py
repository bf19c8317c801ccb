"""Optimizers for the training substrate.

Only parameters with ``trainable=True`` are updated, which is how the
continual-learning setup keeps the MRAM-resident backbone frozen while the
SRAM-resident Rep-Net path learns.  Each optimizer also supports an optional
per-parameter binary ``mask`` so that N:M-pruned weights stay exactly zero
during sparse fine-tuning (the pruner installs these masks).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np

from ..obs import get_tracer
from .modules import Parameter


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params: List[Parameter] = [p for p in params]
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._masks: Dict[int, np.ndarray] = {}

    def set_mask(self, param: Parameter, mask: np.ndarray) -> None:
        """Constrain ``param`` to the support of ``mask`` (1 = keep)."""
        if mask.shape != param.shape:
            raise ValueError(f"mask shape {mask.shape} != param shape {param.shape}")
        self._masks[id(param)] = mask.astype(param.dtype)

    def _masked(self, param: Parameter, update: np.ndarray) -> np.ndarray:
        mask = self._masks.get(id(param))
        return update if mask is None else update * mask

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        """One update, traced as ``nn.optimizer.step`` counting the
        ``params`` it updates."""
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("nn.optimizer.step", optimizer="Adam") as span:
                span.count(params=self._update())
        else:
            self._update()

    def _update(self) -> int:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        updated = 0
        for p in self.params:
            if not p.trainable or p.grad is None:
                continue
            updated += 1
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self._m.get(id(p), np.zeros_like(p.data))
            v = self._v.get(id(p), np.zeros_like(p.data))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self._m[id(p)], self._v[id(p)] = m, v
            m_hat = m / (1 - b1 ** self._t)
            v_hat = v / (1 - b2 ** self._t)
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            p.data = p.data - self.lr * self._masked(p, update)
            mask = self._masks.get(id(p))
            if mask is not None:
                p.data = p.data * mask
        return updated


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``."""
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total
