"""Continual-learning driver: pre-train, adapt per task, sparsify, quantize.

This module is the algorithmic engine behind Table 1.  The flow per
configuration is the paper's (Sec. 5.1):

1. pre-train a backbone on the base distribution (ImageNet-analogue),
2. optionally N:M-sparsify + INT8-PTQ the backbone (frozen thereafter),
3. per downstream task: attach a fresh classifier head, run the one-epoch
   gradient saliency pass, fix the N:M mask on the Rep-Net path, fine-tune
   the masked weights, then (for INT8 rows) PTQ the learned weights,
4. report new-task accuracy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.data import DataLoader, TensorDataset
from ..nn.modules import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor, no_grad
from ..obs import get_tracer
from ..quant import quantize_model_ptq
from ..sparsity import NMPattern, NMPruner, prune_model
from .backbone import Backbone, BackboneClassifier
from .model import RepNetModel


@dataclasses.dataclass
class TrainConfig:
    """Hyper-parameters for one training run."""

    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    seed: int = 0
    verbose: bool = False


def evaluate(model: Module, dataset: TensorDataset, batch_size: int = 64,
             task: Optional[str] = None) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (graph-free)."""
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    correct = 0
    with no_grad():
        for x, y in loader:
            logits = (model(Tensor(x), task) if isinstance(model, RepNetModel)
                      else model(Tensor(x)))
            correct += int((logits.data.argmax(axis=-1) == y).sum())
    return correct / len(dataset)


def _run_epochs(model: Module, params, train_set: TensorDataset,
                config: TrainConfig, forward) -> List[float]:
    """Shared epoch loop; ``forward(x)`` must return logits."""
    opt = Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    loader = DataLoader(train_set, batch_size=config.batch_size, shuffle=True,
                        rng=np.random.default_rng(config.seed))
    losses: List[float] = []
    for epoch in range(config.epochs):
        model.train()
        epoch_loss = 0.0
        for x, y in loader:
            logits = forward(Tensor(x))
            loss = F.cross_entropy(logits, y)
            opt.zero_grad()
            loss.backward()
            if config.grad_clip:
                clip_grad_norm(params, config.grad_clip)
            opt.step()
            epoch_loss += loss.item() * len(y)
        losses.append(epoch_loss / len(train_set))
        if config.verbose:
            print(f"  epoch {epoch + 1}/{config.epochs}: loss={losses[-1]:.4f}")
    return losses


def pretrain_backbone(backbone: Backbone, train_set: TensorDataset,
                      test_set: TensorDataset, num_classes: int,
                      config: TrainConfig) -> Tuple[BackboneClassifier, float]:
    """Train the backbone on the base distribution; returns (model, accuracy)."""
    clf = BackboneClassifier(backbone, num_classes,
                             rng=np.random.default_rng(config.seed))
    _run_epochs(clf, clf.parameters(), train_set, config, lambda x: clf(x))
    return clf, evaluate(clf, test_set, batch_size=config.batch_size)


def sparsify_backbone(backbone: Backbone, pattern: NMPattern) -> Dict[str, np.ndarray]:
    """One-shot magnitude N:M pruning of the frozen backbone (paper: PTQ'd
    backbone with the N:M pattern applied, no re-training)."""
    return prune_model(backbone, pattern)


@dataclasses.dataclass
class TaskResult:
    """Outcome of adapting to one downstream task."""

    task: str
    accuracy: float
    losses: List[float]
    sparsity: Dict[str, float]
    learnable_fraction: float


class ContinualLearner:
    """Orchestrates per-task adaptation of a :class:`RepNetModel`.

    Parameters
    ----------
    model:
        The RepNet model (backbone should already be pre-trained).
    pattern:
        ``None`` trains the dense Rep-Net baseline; otherwise the N:M pattern
        applied to the learnable path via the gradient-calibrated pruner.
    int8:
        If True, PTQ the learned (Rep-Net + head) weights after fine-tuning
        and report INT8 accuracy, matching Table 1's INT8 rows.
    """

    def __init__(self, model: RepNetModel, pattern: Optional[NMPattern] = None,
                 int8: bool = False):
        self.model = model
        self.pattern = pattern
        self.int8 = int8
        self.results: Dict[str, TaskResult] = {}
        model.freeze_backbone()

    def learn_task(self, task: str, train_set: TensorDataset,
                   test_set: TensorDataset, config: TrainConfig) -> TaskResult:
        """Adapt to ``task``; the frozen backbone runs once per example.

        The backbone memo lives for this call only, so one task's taps are
        live at a time; the ``repnet.learn_task`` span counts its hits and
        misses (backbone rows computed).
        """
        with get_tracer().span("repnet.learn_task", task=task) as span, \
                self.model.backbone_memo() as memo:
            result = self._learn_task(task, train_set, test_set, config)
            span.count(memo_misses=memo.misses, memo_hits=memo.hits)
        return result

    def _learn_task(self, task: str, train_set: TensorDataset,
                    test_set: TensorDataset, config: TrainConfig) -> TaskResult:
        model = self.model
        model.add_task(task, train_set.num_classes)
        model.set_active_task(task)
        params = model.learnable_parameters()

        forward = lambda x: model(x, task)
        sparsity_report: Dict[str, float] = {}

        if self.pattern is not None:
            # One-epoch gradient saliency on a throwaway warm-up, then mask.
            warm_loader = DataLoader(train_set, batch_size=config.batch_size,
                                     shuffle=True,
                                     rng=np.random.default_rng(config.seed + 1))
            # Brief dense warm-up so gradients reflect useful directions.
            warm_cfg = dataclasses.replace(config, epochs=1)
            _run_epochs(model, params, train_set, warm_cfg, forward)

            pruner = NMPruner(model, self.pattern, trainable_only=True)
            pruner.calibrate(warm_loader)
            opt_for_mask = Adam(params, lr=config.lr)
            pruner.apply(opt_for_mask)
            sparsity_report = pruner.sparsity_report()

            # Masked fine-tuning: reuse the optimizer holding the masks.
            losses = self._finetune_masked(opt_for_mask, train_set, config, forward)
            assert pruner.verify(), "N:M constraint violated after fine-tuning"
        else:
            losses = _run_epochs(model, params, train_set, config, forward)

        if self.int8:
            quantize_model_ptq(model, per_channel=True, trainable_only=True)

        acc = evaluate(model, test_set, batch_size=config.batch_size, task=task)
        result = TaskResult(task=task, accuracy=acc, losses=losses,
                            sparsity=sparsity_report,
                            learnable_fraction=model.learnable_fraction())
        self.results[task] = result
        return result

    def _finetune_masked(self, opt, train_set: TensorDataset,
                         config: TrainConfig, forward) -> List[float]:
        loader = DataLoader(train_set, batch_size=config.batch_size,
                            shuffle=True, rng=np.random.default_rng(config.seed))
        losses: List[float] = []
        for epoch in range(config.epochs):
            self.model.train()
            epoch_loss = 0.0
            for x, y in loader:
                logits = forward(Tensor(x))
                loss = F.cross_entropy(logits, y)
                opt.zero_grad()
                loss.backward()
                if config.grad_clip:
                    clip_grad_norm(opt.params, config.grad_clip)
                opt.step()
                epoch_loss += loss.item() * len(y)
            losses.append(epoch_loss / len(train_set))
            if config.verbose:
                print(f"  [masked] epoch {epoch + 1}/{config.epochs}: "
                      f"loss={losses[-1]:.4f}")
        return losses
