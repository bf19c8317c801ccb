"""The full Rep-Net continual-learning model: fixed backbone + learnable path.

Structure (paper Fig. 6):

* the frozen :class:`~repro.repnet.backbone.Backbone` produces per-block
  activations (taps),
* a chain of :class:`~repro.repnet.modules.RepNetModule` carries a parallel
  low-width state, each stage absorbing one tap through its
  :class:`~repro.repnet.modules.ActivationConnector`,
* a per-task linear classifier consumes the concatenated global-pooled
  backbone features and Rep-Net state.

Only the Rep-Net path + active classifier are trainable; the backbone is
frozen (``freeze_backbone``), exactly matching the hardware mapping where
backbone weights live in write-expensive MRAM and the Rep-Net path lives in
SRAM.  A frozen backbone's outputs are therefore a fixed function of the
example: inside :meth:`RepNetModel.backbone_memo` they are computed once
per example and gathered per batch (:class:`BackboneMemo`).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.modules import Conv2d, Linear, Module, Parameter
from ..nn.tensor import Tensor, concatenate
from .backbone import Backbone
from .modules import ActivationConnector, RepNetModule


class BackboneMemo:
    """A frozen backbone's pooled features and taps, one entry per example.

    Keyed by the example's bytes, so equal keys mean equal inputs.  A batch
    whose every example has an entry is gathered from the memo; any other
    batch runs through the backbone whole, exactly as without the memo, and
    leaves an entry for each new example.  Gathering is exact because a
    GEMM row's bits do not depend on the other rows of the batch, and
    because a gathered tap keeps the backbone's NHWC memory layout, so the
    connectors' ``im2col`` builds its patch matrix with the same strides
    (METHODOLOGY §15).  The first holds only from two examples up: a lone
    example's GEMMs are small enough for BLAS to pick another kernel and
    round differently, so a batch of one always runs the backbone and is
    never stored.
    """

    def __init__(self) -> None:
        self._rows: Dict[bytes, Tuple[np.ndarray, List[np.ndarray]]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        """Drop every entry (the hit and miss counts stay)."""
        self._rows.clear()

    def forward_with_taps(self, backbone: Backbone,
                          x: Tensor) -> Tuple[Tensor, List[Tensor]]:
        """:meth:`Backbone.forward_with_taps`, gathered when every example
        of a batch of two or more has an entry."""
        keys = [row.tobytes() for row in x.data]
        rows = [self._rows.get(key) for key in keys]
        if len(rows) > 1 and None not in rows:
            self.hits += len(rows)
            pooled = Tensor(np.stack([p for p, _ in rows]))
            taps = [Tensor(np.stack([t[i] for _, t in rows])
                           .transpose(0, 3, 1, 2))
                    for i in range(len(rows[0][1]))]
            return pooled, taps
        pooled, taps = backbone.forward_with_taps(x)
        self.misses += len(rows)
        if len(rows) > 1:
            nhwc = [tap.data.transpose(0, 2, 3, 1) for tap in taps]
            for j, key in enumerate(keys):
                self._rows.setdefault(key, (pooled.data[j],
                                            [t[j] for t in nhwc]))
        return pooled, taps


class RepNetModel(Module):
    """Backbone + Rep-Net path + swappable per-task classifier heads."""

    def __init__(self, backbone: Backbone, repnet_width: int = 8,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.backbone = backbone
        self.repnet_width = repnet_width

        # Rep-Net stem: project the raw input into the narrow channel space.
        in_ch = backbone.stem.in_channels
        self.rep_stem = Conv2d(in_ch, repnet_width, 1, bias=False, rng=rng)

        # One module + connector per backbone block.
        self.num_modules = backbone.num_blocks
        modules: List[RepNetModule] = []
        connectors: List[ActivationConnector] = []
        for i in range(self.num_modules):
            mod = RepNetModule(repnet_width, pool_stride=backbone.strides[i],
                               rng=rng)
            conn = ActivationConnector(backbone.widths[i], repnet_width, rng=rng)
            setattr(self, f"rep_module{i}", mod)
            setattr(self, f"connector{i}", conn)
            modules.append(mod)
            connectors.append(conn)
        self.rep_modules = modules
        self.connectors = connectors

        self.feature_dim = backbone.feature_dim + repnet_width
        self._heads: Dict[str, Linear] = {}
        self.active_task: Optional[str] = None
        self._rng = rng or np.random.default_rng(0)
        self._backbone_memo: Optional[BackboneMemo] = None

    # ------------------------------------------------------------------ heads
    def add_task(self, task: str, num_classes: int) -> Linear:
        """Create (or replace) the classifier head for ``task``."""
        head = Linear(self.feature_dim, num_classes, rng=self._rng)
        self._heads[task] = head
        setattr(self, f"head_{task}", head)
        return head

    def set_active_task(self, task: str) -> None:
        if task not in self._heads:
            raise KeyError(f"unknown task {task!r}; call add_task first")
        self.active_task = task

    def head(self, task: Optional[str] = None) -> Linear:
        task = task or self.active_task
        if task is None:
            raise RuntimeError("no active task set")
        return self._heads[task]

    @property
    def tasks(self) -> List[str]:
        return list(self._heads)

    # ---------------------------------------------------------------- freezing
    def freeze_backbone(self) -> None:
        """Freeze backbone weights and pin its BN statistics (eval mode)."""
        self.backbone.freeze()
        self.backbone.eval()

    def _backbone_frozen(self) -> bool:
        """True while no backbone parameter trains and every backbone
        module is in eval mode: its outputs are then fixed per example."""
        return (not any(p.trainable for p in self.backbone.parameters())
                and not any(m.training for m in self.backbone.modules()))

    @contextlib.contextmanager
    def backbone_memo(self) -> Iterator[BackboneMemo]:
        """Memoize the frozen backbone's outputs per example until exit.

        :meth:`features` reads the memo only while :meth:`_backbone_frozen`
        holds; otherwise it runs the backbone as usual.
        """
        memo = BackboneMemo()
        self._backbone_memo = memo
        try:
            yield memo
        finally:
            self._backbone_memo = None
            memo.clear()

    def learnable_modules(self) -> List[Module]:
        """Modules holding the trainable (SRAM-mapped) parameters."""
        mods: List[Module] = [self.rep_stem] + list(self.rep_modules) \
            + list(self.connectors)
        if self.active_task is not None:
            mods.append(self.head())
        return mods

    def learnable_parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for mod in self.learnable_modules():
            params.extend(mod.parameters())
        return params

    def learnable_fraction(self) -> float:
        """Trainable / total parameter count — the paper reports ~5%."""
        learnable = sum(p.size for p in self.learnable_parameters())
        total = self.num_parameters()
        return learnable / total if total else 0.0

    # ----------------------------------------------------------------- forward
    def features(self, x: Tensor) -> Tensor:
        """Concatenated (backbone || Rep-Net) global feature vector."""
        memo = self._backbone_memo
        if memo is not None and self._backbone_frozen():
            pooled, taps = memo.forward_with_taps(self.backbone, x)
        else:
            pooled, taps = self.backbone.forward_with_taps(x)
        state = self.rep_stem(x)
        for mod, conn, tap in zip(self.rep_modules, self.connectors, taps):
            state = mod(state, conn(tap))
        rep_pooled = F.global_avg_pool2d(state)
        return concatenate([pooled, rep_pooled], axis=1)

    def forward(self, x: Tensor, task: Optional[str] = None) -> Tensor:
        return self.head(task)(self.features(x))

    # ---------------------------------------------------------------- training
    def train(self) -> "RepNetModel":
        super().train()
        # The frozen backbone must keep using running statistics.
        if not any(p.trainable for p in self.backbone.parameters()):
            self.backbone.eval()
        return self


def build_repnet_model(in_channels: int = 3,
                       widths: Tuple[int, ...] = (16, 16, 32, 32, 64, 64),
                       strides: Tuple[int, ...] = (1, 1, 2, 1, 2, 1),
                       repnet_width: int = 8,
                       seed: int = 0) -> RepNetModel:
    """Convenience constructor with the default six-module configuration."""
    rng = np.random.default_rng(seed)
    backbone = Backbone(in_channels=in_channels, widths=widths,
                        strides=strides, rng=rng)
    return RepNetModel(backbone, repnet_width=repnet_width, rng=rng)
