"""Weight-importance estimation for N:M mask selection.

The paper (Sec. 5.1): "we initially conducted a one-epoch gradient calculation
across all weights on the RepNet path to identify the most crucial N weights
among every consecutive M weights, based on magnitude."  We implement both
criteria:

* magnitude, |w|, which ``prune_model`` uses for the PTQ backbone.
* :class:`GradientSaliency` — accumulates |g| over one calibration epoch and
  scores each weight by |w| * |g_accumulated| (first-order Taylor importance),
  the gradient-informed variant used before fine-tuning the Rep-Net path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from ..nn import functional as F
from ..nn.data import DataLoader
from ..nn.modules import Module, Parameter
from ..nn.tensor import Tensor


class GradientSaliency:
    """Accumulate gradient magnitudes over a calibration pass.

    Usage::

        sal = GradientSaliency(params)
        for x, y in loader:
            loss = F.cross_entropy(model(Tensor(x)), y)
            model.zero_grad()
            loss.backward()
            sal.accumulate()
        scores = sal.scores()
    """

    def __init__(self, params: Iterable[Parameter]):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("GradientSaliency needs at least one parameter")
        self._accum: Dict[int, np.ndarray] = {
            id(p): np.zeros_like(p.data) for p in self.params}
        self.steps = 0

    def accumulate(self) -> None:
        """Fold the current ``.grad`` of every tracked parameter into the score."""
        for p in self.params:
            if p.grad is not None:
                self._accum[id(p)] += np.abs(p.grad)
        self.steps += 1

    def scores(self) -> Dict[int, np.ndarray]:
        """Per-parameter saliency: |w| * mean|g|.

        Keys are ``id(param)`` so callers can look scores up without relying
        on names.
        """
        if self.steps == 0:
            raise RuntimeError("no gradients accumulated; run a calibration pass first")
        out = {}
        for p in self.params:
            mean_grad = self._accum[id(p)] / self.steps
            out[id(p)] = np.abs(p.data) * (mean_grad + 1e-12)
        return out


def one_epoch_gradient_saliency(model: Module, params: Iterable[Parameter],
                                loader: DataLoader,
                                max_batches: int = 0) -> Dict[int, np.ndarray]:
    """Run the paper's one-epoch calibration and return saliency scores.

    ``max_batches`` (0 = whole epoch) caps the pass for the fast test paths.
    """
    sal = GradientSaliency(params)
    was_training = model.training
    model.train()
    for batch_idx, (x, y) in enumerate(loader):
        if max_batches and batch_idx >= max_batches:
            break
        logits = model(Tensor(x))
        loss = F.cross_entropy(logits, y)
        model.zero_grad()
        loss.backward()
        sal.accumulate()
    if not was_training:
        model.eval()
    return sal.scores()
