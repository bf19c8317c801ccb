"""The N:M pruning workflow: select masks, pin them through fine-tuning.

Combines the pieces of :mod:`repro.sparsity.nm` and
:mod:`repro.sparsity.saliency` into the two flows the paper runs:

* ``prune_model`` — one-shot magnitude N:M pruning (applied to the PTQ'd
  backbone before mapping it to MRAM PEs).
* :class:`NMPruner` — gradient-calibrated mask selection followed by masked
  fine-tuning of the learnable (Rep-Net) parameters; the mask is installed
  into the optimizer so pruned weights stay exactly zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.data import DataLoader
from ..nn.modules import Conv2d, Linear, Module, Parameter
from ..nn.optim import Optimizer
from .nm import NMPattern, apply_nm_mask, compute_nm_mask, verify_nm
from .saliency import one_epoch_gradient_saliency


def prunable_parameters(model: Module,
                        min_reduction_dim: int = 0
                        ) -> List[Tuple[str, Parameter]]:
    """Weight matrices/kernels of Linear and Conv2d layers (never biases/BN).

    ``min_reduction_dim`` skips layers whose GEMM reduction dimension is
    smaller than the N:M group size: pruning a 3-wide group to 1:8 is
    degenerate (it deletes most of the layer's inputs outright), and such
    tiny layers are mapped to plain digital logic rather than the sparse PE
    arrays anyway.
    """
    out = []
    for name, mod in model.named_modules():
        if isinstance(mod, Linear):
            reduction = mod.in_features
        elif isinstance(mod, Conv2d):
            reduction = mod.in_channels * mod.kernel_size ** 2
        else:
            continue
        if reduction < min_reduction_dim:
            continue
        prefix = (name + ".") if name else ""
        out.append((prefix + "weight", mod.weight))
    return out


def prune_model(model: Module, pattern: NMPattern,
                trainable_only: bool = False) -> Dict[str, np.ndarray]:
    """One-shot magnitude N:M pruning of every prunable layer.

    Returns the masks by parameter name so callers can install them into an
    optimizer or verify them later.
    """
    masks: Dict[str, np.ndarray] = {}
    for name, param in prunable_parameters(model,
                                           min_reduction_dim=pattern.m):
        if trainable_only and not param.trainable:
            continue
        mask = compute_nm_mask(np.abs(param.data), pattern)
        param.data = apply_nm_mask(param.data, mask)
        masks[name] = mask
    return masks


class NMPruner:
    """Gradient-calibrated N:M mask selection for the learnable path.

    Implements the paper's Sec. 5.1 recipe: a one-epoch gradient pass ranks
    weights, the top-N per group survive, and the surviving support is frozen
    while fine-tuning proceeds.
    """

    def __init__(self, model: Module, pattern: NMPattern,
                 trainable_only: bool = True):
        self.model = model
        self.pattern = pattern
        self.trainable_only = trainable_only
        self.masks: Dict[str, np.ndarray] = {}

    def _targets(self) -> List[Tuple[str, Parameter]]:
        candidates = prunable_parameters(self.model,
                                         min_reduction_dim=self.pattern.m)
        return [(n, p) for n, p in candidates
                if p.trainable or not self.trainable_only]

    def calibrate(self, loader: DataLoader, max_batches: int = 0
                  ) -> Dict[str, np.ndarray]:
        """Run the one-epoch gradient pass and compute masks."""
        targets = self._targets()
        if not targets:
            raise RuntimeError("model has no prunable trainable parameters")
        scores = one_epoch_gradient_saliency(
            self.model, [p for _, p in targets], loader, max_batches=max_batches)
        self.masks = {}
        for name, param in targets:
            mask = compute_nm_mask(scores[id(param)], self.pattern)
            self.masks[name] = mask
        return self.masks

    def apply(self, optimizer: Optional[Optimizer] = None) -> None:
        """Zero pruned weights and (optionally) pin the mask in the optimizer."""
        if not self.masks:
            raise RuntimeError("call calibrate() first")
        by_name = dict(self._targets())
        for name, mask in self.masks.items():
            param = by_name[name]
            param.data = apply_nm_mask(param.data, mask)
            if optimizer is not None:
                optimizer.set_mask(param, mask)

    def verify(self) -> bool:
        """Check every masked parameter still satisfies the N:M constraint."""
        by_name = dict(self._targets())
        return all(verify_nm(by_name[name].data, self.pattern)
                   for name in self.masks)

    def sparsity_report(self) -> Dict[str, float]:
        """Per-layer achieved sparsity (fraction of zeros)."""
        by_name = dict(self._targets())
        return {name: float((by_name[name].data == 0).mean())
                for name in self.masks}
