"""Multi-task adaptor management: task switching as SRAM reprogramming.

The hybrid architecture's continual-learning story (paper Sec. 4) is that
each downstream task owns a tiny sparse adaptor (Rep-Net path + classifier)
living in SRAM, while the MRAM backbone is shared and immutable.  Switching
the device between tasks is therefore *just an SRAM rewrite* of a few
hundred kilobytes — fast, cheap, and with **zero catastrophic forgetting by
construction**: task A's adaptor is bit-identical when reloaded, and the
backbone it modulates never changed.

:class:`TaskLibrary` implements that mechanism over a
:class:`~repro.repnet.model.RepNetModel`: snapshot the learnable state per
task, re-activate any task later, and account the SRAM write traffic a
switch costs.  :class:`SequentialLearner` drives a sequence of tasks and
produces the accuracy matrix used in forgetting analyses.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..nn.data import TensorDataset
from ..sparsity.nm import NMPattern
from .continual import ContinualLearner, TrainConfig, evaluate
from .model import RepNetModel


class TaskLibrary:
    """Per-task snapshots of the learnable (SRAM-resident) state."""

    def __init__(self, model: RepNetModel):
        self.model = model
        self._snapshots: Dict[str, Dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------- snapshots
    def _learnable_state(self, task: str) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        mods = ([("rep_stem", self.model.rep_stem)]
                + [(f"rep_module{i}", m)
                   for i, m in enumerate(self.model.rep_modules)]
                + [(f"connector{i}", c)
                   for i, c in enumerate(self.model.connectors)]
                + [(f"head_{task}", self.model.head(task))])
        for prefix, mod in mods:
            for name, p in mod.named_parameters():
                state[f"{prefix}.{name}"] = p.data.copy()
        return state

    def snapshot(self, task: str) -> None:
        """Save the current learnable state as ``task``'s adaptor."""
        if task not in self.model.tasks:
            raise KeyError(f"model has no head for task {task!r}")
        self._snapshots[task] = self._learnable_state(task)

    def activate(self, task: str) -> None:
        """Reprogram the SRAM-resident state with ``task``'s adaptor."""
        if task not in self._snapshots:
            raise KeyError(f"no snapshot for task {task!r}; "
                           f"have {sorted(self._snapshots)}")
        state = self._snapshots[task]
        mods = ([("rep_stem", self.model.rep_stem)]
                + [(f"rep_module{i}", m)
                   for i, m in enumerate(self.model.rep_modules)]
                + [(f"connector{i}", c)
                   for i, c in enumerate(self.model.connectors)]
                + [(f"head_{task}", self.model.head(task))])
        for prefix, mod in mods:
            for name, p in mod.named_parameters():
                p.data = state[f"{prefix}.{name}"].copy()
        self.model.set_active_task(task)

    @property
    def tasks(self) -> List[str]:
        return sorted(self._snapshots)

    # ------------------------------------------------------------- switching
    def adaptor_weights(self, task: str) -> int:
        """Number of weights in one task's adaptor."""
        if task not in self._snapshots:
            raise KeyError(f"no snapshot for task {task!r}")
        return int(sum(v.size for v in self._snapshots[task].values()))

    def switch_cost_bits(self, task: str,
                         pattern: Optional[NMPattern] = None,
                         weight_bits: int = 8, index_bits: int = 4) -> int:
        """SRAM bits rewritten when activating ``task``.

        With an N:M pattern, only the compressed (weight, index) pairs move;
        dense adaptors rewrite every weight.
        """
        weights = self.adaptor_weights(task)
        if pattern is None:
            return weights * weight_bits
        kept = int(weights * pattern.density)
        return kept * (weight_bits + index_bits)


class SequentialLearner:
    """Learn a sequence of tasks, snapshotting each adaptor.

    After the sequence, :meth:`accuracy_matrix` evaluates every task with
    every stage's adaptors — the standard forgetting analysis.  Because the
    backbone is frozen and adaptors are per-task, the diagonal equals the
    final row: zero forgetting, which is the architecture's claim.
    """

    def __init__(self, model: RepNetModel, pattern: Optional[NMPattern] = None,
                 int8: bool = False):
        self.model = model
        self.pattern = pattern
        self.int8 = int8
        self.library = TaskLibrary(model)
        self.learner = ContinualLearner(model, pattern=pattern, int8=int8)
        self._test_sets: Dict[str, TensorDataset] = {}
        self._initial_state: Optional[Dict[str, np.ndarray]] = None

    def learn_sequence(self, tasks: Dict[str, tuple],
                       config: TrainConfig) -> Dict[str, float]:
        """Learn ``{task: (train_set, test_set)}`` in order; returns the
        accuracy measured right after each task was learned."""
        accs: Dict[str, float] = {}
        for task, (train_set, test_set) in tasks.items():
            self._reset_learnable_path(config.seed)
            result = self.learner.learn_task(task, train_set, test_set, config)
            self.library.snapshot(task)
            self._test_sets[task] = test_set
            accs[task] = result.accuracy
        return accs

    def _reset_learnable_path(self, seed: int) -> None:
        """Fresh adaptor initialization before each new task (the previous
        task's adaptor is already safe in the library)."""
        if self._initial_state is None:
            # capture the pristine init once, before any task
            self._initial_state = {
                name: p.data.copy()
                for name, p in self.model.named_parameters()
                if p.trainable or not name.startswith("backbone")}
        for name, p in self.model.named_parameters():
            if name in self._initial_state and not name.startswith("head_"):
                p.data = self._initial_state[name].copy()

    def evaluate_task(self, task: str, batch_size: int = 64) -> float:
        """Activate ``task``'s adaptor and evaluate it."""
        self.library.activate(task)
        return evaluate(self.model, self._test_sets[task],
                        batch_size=batch_size, task=task)

    def accuracy_matrix(self, batch_size: int = 64) -> Dict[str, float]:
        """Final accuracy of every learned task (adaptor re-activated)."""
        return {task: self.evaluate_task(task, batch_size)
                for task in self.library.tasks}
