"""Table 1 — accuracy of sparse/quantized Rep-Net continual learning.

Reproduces the paper's accuracy study on the synthetic analogues of its five
downstream tasks (see :mod:`repro.datasets.tasks`):

* ``Dense RepNet / FP32`` — the baseline row,
* ``Sparse RepNet (1:8) / FP32 and INT8``,
* ``Sparse RepNet (1:4) / FP32 and INT8``.

Per row the backbone is the same pre-trained network, optionally magnitude-
N:M-pruned and INT8-PTQ'd (the ``backbone@base`` column reports its
accuracy on the pre-training distribution, the analogue of
``backbone@imagenet``); per task a fresh Rep-Net path is attached and
trained with the paper's recipe — a one-epoch gradient-saliency pass fixes
the N:M mask, masked fine-tuning learns the sparse weights, and INT8 rows
apply PTQ to the learned weights before evaluation.

Expected shape (the paper's, not its absolute numbers): dense >= 1:4 >= 1:8
per task; INT8 within a couple points of FP32; the small/noisy food101
analogue can favour the sparse model (overfitting of the dense one).

Run: ``python -m repro table1`` (add ``--fast`` for the quick
configuration used by tests).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..datasets.synthetic import base_pretraining_spec, generate_task
from ..datasets.tasks import TABLE1_TASKS, load_downstream_task
from ..nn.tensor import Tensor
from ..quant import quantize_model_ptq
from ..repnet.backbone import BackboneClassifier
from ..repnet.continual import (ContinualLearner, TrainConfig, evaluate,
                                pretrain_backbone)
from ..obs import get_tracer
from ..repnet.model import RepNetModel, build_repnet_model
from ..sparsity import NMPattern, prune_model
from .reporting import format_table


@dataclasses.dataclass
class Table1Config:
    """Budgets for the Table 1 run.

    ``recovery_epochs``: the paper applies one-shot magnitude N:M pruning to
    its ImageNet ResNet-50 backbone and loses only 1.5-5% — that robustness
    comes from ResNet-50's massive redundancy.  Our laptop-scale backbone
    has none, so one-shot pruning collapses it; a short *masked* fine-tune
    on the base distribution (N:M support fixed, exactly the sparse
    fine-tuning the paper's own Rep-Net recipe uses) restores the operating
    point the paper starts from.  Documented in DESIGN.md/EXPERIMENTS.md.
    """

    image_size: int = 16
    base_classes: int = 12
    base_train_per_class: int = 50
    base_test_per_class: int = 16
    pretrain_epochs: int = 12
    recovery_epochs: int = 3
    repnet_width: int = 16
    task_scale: float = 1.0
    task_epochs: int = 30          # the paper's fine-tuning budget
    batch_size: int = 32
    lr: float = 2e-3               # backbone pre-training / recovery
    task_lr: float = 6e-3          # Rep-Net adaptation
    seed: int = 0
    tasks: Tuple[str, ...] = tuple(TABLE1_TASKS)
    verbose: bool = False

    @classmethod
    def fast(cls) -> "Table1Config":
        """Small-budget configuration for tests/benchmarks (~1 minute)."""
        return cls(base_classes=5, base_train_per_class=14,
                   base_test_per_class=8, pretrain_epochs=3,
                   recovery_epochs=2, task_scale=0.35, task_epochs=3,
                   tasks=("pets", "cifar10"))


#: (row label, pattern, int8) in the paper's row order.
TABLE1_ROWS: List[Tuple[str, Optional[NMPattern], bool]] = [
    ("Dense RepNet / FP32", None, False),
    ("Sparse RepNet (1:8) / FP32", NMPattern(1, 8), False),
    ("Sparse RepNet (1:8) / INT8", NMPattern(1, 8), True),
    ("Sparse RepNet (1:4) / FP32", NMPattern(1, 4), False),
    ("Sparse RepNet (1:4) / INT8", NMPattern(1, 4), True),
]


def _pretrain(config: Table1Config):
    """Pre-train one backbone on the base distribution; return states + data."""
    spec = base_pretraining_spec(
        num_classes=config.base_classes,
        train_per_class=config.base_train_per_class,
        test_per_class=config.base_test_per_class,
        image_size=config.image_size)
    base_train, base_test = generate_task(spec, seed=config.seed)

    model = build_repnet_model(seed=config.seed,
                               repnet_width=config.repnet_width)
    train_cfg = TrainConfig(epochs=config.pretrain_epochs,
                            batch_size=config.batch_size, lr=config.lr,
                            seed=config.seed, verbose=config.verbose)
    clf, base_acc = pretrain_backbone(model.backbone, base_train, base_test,
                                      spec.num_classes, train_cfg)
    return (model.backbone.state_dict(), clf.head.weight.data.copy(),
            clf.head.bias.data.copy(), base_acc, base_test, spec)


def _recovered_sparse_state(config: Table1Config, backbone_state,
                            head_w, head_b, base_train,
                            pattern: NMPattern) -> Dict:
    """Magnitude-prune the backbone, then masked fine-tune on the base data.

    Returns the recovered backbone state dict (computed once per pattern and
    cached by the caller).  The N:M support chosen by magnitude pruning is
    pinned through recovery, so the result still satisfies the pattern.
    """
    from ..nn.data import DataLoader
    from ..nn.optim import Adam, clip_grad_norm
    from ..nn import functional as F

    model = build_repnet_model(seed=config.seed,
                               repnet_width=config.repnet_width)
    model.backbone.load_state_dict(backbone_state)
    masks = prune_model(model.backbone, pattern)

    clf = BackboneClassifier(model.backbone, len(head_w))
    clf.head.weight.data = head_w.copy()
    clf.head.bias.data = head_b.copy()

    params = clf.parameters()
    opt = Adam(params, lr=config.lr * 0.5)
    by_name = dict(model.backbone.named_parameters())
    for name, mask in masks.items():
        opt.set_mask(by_name[name], mask)

    loader = DataLoader(base_train, batch_size=config.batch_size,
                        shuffle=True, rng=np.random.default_rng(config.seed))
    for _ in range(config.recovery_epochs):
        clf.train()
        for x, y in loader:
            loss = F.cross_entropy(clf(Tensor(x)), y)
            opt.zero_grad()
            loss.backward()
            clip_grad_norm(params, 5.0)
            opt.step()
    return model.backbone.state_dict()


def _variant_model(config: Table1Config, backbone_state,
                   pattern: Optional[NMPattern], int8: bool,
                   sparse_states: Optional[Dict] = None) -> RepNetModel:
    """Fresh model with the pre-trained (optionally pruned/PTQ'd) backbone.

    For sparse variants ``sparse_states[str(pattern)]`` holds the recovered
    (pruned + masked-fine-tuned) backbone state.
    """
    model = build_repnet_model(seed=config.seed,
                               repnet_width=config.repnet_width)
    if pattern is not None and sparse_states is not None:
        model.backbone.load_state_dict(sparse_states[str(pattern)])
    else:
        model.backbone.load_state_dict(backbone_state)
        if pattern is not None:
            prune_model(model.backbone, pattern)
    if int8:
        quantize_model_ptq(model.backbone, per_channel=True)
    return model


def _backbone_accuracy(model: RepNetModel, head_w, head_b,
                       base_test, num_classes: int,
                       batch_size: int) -> float:
    """Accuracy of the (possibly degraded) backbone on the base test set."""
    clf = BackboneClassifier(model.backbone, num_classes)
    clf.head.weight.data = head_w.copy()
    clf.head.bias.data = head_b.copy()
    return evaluate(clf, base_test, batch_size=batch_size)


def run_table1(config: Optional[Table1Config] = None) -> Dict:
    """Execute the full Table 1 study; returns a structured result dict."""
    config = config or Table1Config()
    tracer = get_tracer()
    # Monotonic clock for every elapsed-time report: wall-clock time.time()
    # jumps under NTP steps, which lint rule R4 rejects for durations.
    t0 = time.perf_counter()

    with tracer.span("table1.pretrain"):
        (backbone_state, head_w, head_b, base_acc, base_test,
         base_spec) = _pretrain(config)
    if config.verbose:
        print(f"[table1] backbone pre-trained: acc={base_acc:.3f} "
              f"({time.perf_counter() - t0:.0f}s)")

    task_data = {name: load_downstream_task(name, seed=config.seed + 1,
                                            image_size=config.image_size,
                                            scale=config.task_scale)
                 for name in config.tasks}

    # Recover each sparse backbone once (pruned support + masked fine-tune
    # on the base distribution), shared by the FP32 and INT8 rows.
    base_train, _ = generate_task(base_spec, seed=config.seed)
    sparse_states: Dict[str, Dict] = {}
    for _, pattern, _ in TABLE1_ROWS:
        if pattern is not None and str(pattern) not in sparse_states:
            with tracer.span("table1.recover_sparse", pattern=str(pattern)):
                sparse_states[str(pattern)] = _recovered_sparse_state(
                    config, backbone_state, head_w, head_b, base_train,
                    pattern)
            if config.verbose:
                print(f"[table1] recovered sparse backbone {pattern} "
                      f"({time.perf_counter() - t0:.0f}s)")

    rows: List[Dict] = []
    for label, pattern, int8 in TABLE1_ROWS:
        row: Dict = {"config": label,
                     "pattern": str(pattern) if pattern else "dense",
                     "precision": "INT8" if int8 else "FP32"}

        with tracer.span("table1.row", config=label) as row_span:
            probe = _variant_model(config, backbone_state, pattern, int8,
                                   sparse_states)
            row["backbone@base"] = _backbone_accuracy(
                probe, head_w, head_b, base_test, base_spec.num_classes,
                config.batch_size)

            for task in config.tasks:
                # Fresh Rep-Net path per task, as in the paper (each
                # downstream task is learned independently from the
                # deployed backbone).
                with tracer.span("table1.task", config=label, task=task):
                    model = _variant_model(config, backbone_state, pattern,
                                           int8, sparse_states)
                    learner = ContinualLearner(model, pattern=pattern,
                                               int8=int8)
                    train_set, test_set = task_data[task]
                    task_cfg = TrainConfig(epochs=config.task_epochs,
                                           batch_size=config.batch_size,
                                           lr=config.task_lr,
                                           seed=config.seed, verbose=False)
                    result = learner.learn_task(task, train_set, test_set,
                                                task_cfg)
                row[task] = result.accuracy
                row_span.count(tasks=1)
                if config.verbose:
                    print(f"[table1] {label:28s} {task:10s} "
                          f"acc={result.accuracy:.3f} "
                          f"({time.perf_counter() - t0:.0f}s)")
        rows.append(row)

    return {
        "base_accuracy_dense": base_acc,
        "tasks": list(config.tasks),
        "rows": rows,
        "elapsed_s": time.perf_counter() - t0,
        "config": dataclasses.asdict(config),
    }


def build_table1(fast: bool = False) -> Dict:
    """:func:`run_table1` as ``python -m repro table1`` runs it: the full
    (or, with ``fast``, the quick) budget, with progress lines on stdout."""
    config = Table1Config.fast() if fast else Table1Config()
    return run_table1(dataclasses.replace(config, verbose=True))


def render_table1(result: Dict) -> str:
    tasks = result["tasks"]
    headers = ["Configuration", "Precision", "backbone@base"] + tasks
    table_rows = []
    for row in result["rows"]:
        table_rows.append([row["config"], row["precision"],
                           f"{row['backbone@base'] * 100:.2f}%"]
                          + [f"{row[t] * 100:.2f}%" for t in tasks])
    return format_table(
        headers, table_rows,
        title="Table 1 — Accuracy Evaluation (synthetic analogues)"
    ) + f"\n\nelapsed: {result['elapsed_s']:.0f}s"
