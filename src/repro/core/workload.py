"""Workload descriptors: a network as a sequence of GEMM layer shapes.

The accelerator studies need each layer's GEMM geometry (reduction dim,
output dim, number of activation vectors per inference) plus whether the
layer belongs to the frozen backbone (MRAM-resident) or the learnable
Rep-Net path (SRAM-resident).  Two constructors are provided:

* :func:`extract_repnet_workload` walks an actual :class:`RepNetModel`
  (the trainable numpy one), so the small models used in tests/examples are
  evaluated mechanically, and
* :func:`paper_workload` reproduces the paper's evaluation target —
  ImageNet ResNet-50 (~25.5 M parameters, "around 26 MB" INT8) plus six
  Rep-Net modules at ~5% of the backbone size — for the Fig. 7/8 studies.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn.functional import conv_output_size
from ..repnet.model import RepNetModel
from ..sparsity.nm import NMPattern


@dataclasses.dataclass(frozen=True)
class LayerWorkload:
    """One GEMM-shaped layer.

    ``positions`` is the number of input vectors streamed per inference
    (``OH*OW`` for a convolution lowered by im2col, 1 for a linear layer).
    """

    name: str
    in_dim: int
    out_dim: int
    positions: int = 1
    learnable: bool = False

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0 or self.positions <= 0:
            raise ValueError(f"invalid layer geometry: {self}")

    @property
    def weights(self) -> int:
        return self.in_dim * self.out_dim

    @property
    def macs(self) -> int:
        """Dense MACs per inference."""
        return self.weights * self.positions


@dataclasses.dataclass(frozen=True)
class LayerTable:
    """A workload's layers as columns, for the analytical design models.

    Built once per :class:`Workload`.  Integer columns are int64 (every
    paper-scale product fits well inside 2**53, so converting one to
    float64 is exact), ``learnable`` is the Rep-Net mask, and
    ``learnable_idx``/``frozen_idx`` select its two halves in layer order.
    The aggregates are design-independent Python ints.  Every array is
    read-only: the table is shared by all designs evaluated on the
    workload.
    """

    in_dim: np.ndarray
    out_dim: np.ndarray
    positions: np.ndarray
    weights: np.ndarray
    learnable: np.ndarray
    learnable_idx: np.ndarray
    frozen_idx: np.ndarray
    total_weights: int
    learnable_weights: int
    frozen_weights: int
    #: Largest learnable layer (0 when there is none); a design's SRAM
    #: compute-PE pool is sized for it.
    max_learnable_weights: int

    @classmethod
    def build(cls, layers: Sequence[LayerWorkload]) -> "LayerTable":
        def column(values, dtype=np.int64) -> np.ndarray:
            arr = np.array(values, dtype=dtype)
            arr.setflags(write=False)
            return arr

        weights = column([l.weights for l in layers])
        learnable = column([l.learnable for l in layers], dtype=bool)
        learnable_idx = column(np.flatnonzero(learnable), dtype=np.intp)
        frozen_idx = column(np.flatnonzero(~learnable), dtype=np.intp)
        total = int(weights.sum())
        learnable_weights = int(weights[learnable_idx].sum())
        return cls(
            in_dim=column([l.in_dim for l in layers]),
            out_dim=column([l.out_dim for l in layers]),
            positions=column([l.positions for l in layers]),
            weights=weights,
            learnable=learnable,
            learnable_idx=learnable_idx,
            frozen_idx=frozen_idx,
            total_weights=total,
            learnable_weights=learnable_weights,
            frozen_weights=total - learnable_weights,
            max_learnable_weights=int(weights[learnable_idx].max(initial=0)))


def nm_compressed_bits(weights, density, weight_bits, index_bits):
    """Bits to store ``weights`` N:M-compressed at ``density``: the kept
    count (truncated) times the (weight, index) pair width.  Elementwise
    over int64 arrays, so a batch of designs shares the formula."""
    kept = weights * density
    kept = kept.astype(np.int64) if isinstance(kept, np.ndarray) else int(kept)
    return kept * (weight_bits + index_bits)


@dataclasses.dataclass(frozen=True)
class Workload:
    """A full network inference/training workload.

    Immutable: ``layers`` is stored as a tuple and :attr:`table` is built
    from it once, at construction.
    """

    name: str
    layers: Tuple[LayerWorkload, ...]
    table: LayerTable = dataclasses.field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "table", LayerTable.build(layers))

    # ------------------------------------------------------------- totals
    @property
    def total_weights(self) -> int:
        return self.table.total_weights

    @property
    def learnable_weights(self) -> int:
        return self.table.learnable_weights

    @property
    def frozen_weights(self) -> int:
        return self.table.frozen_weights

    @property
    def learnable_fraction(self) -> float:
        return self.learnable_weights / self.total_weights if self.layers else 0.0

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    def dense_bytes(self, weight_bits: int = 8) -> int:
        return self.total_weights * weight_bits // 8

    def compressed_bits(self, pattern: Optional[NMPattern],
                        weight_bits: int = 8, index_bits: int = 4,
                        scope: str = "all") -> int:
        """Storage bits under N:M compression.

        ``scope``: 'all', 'frozen' (backbone only) or 'learnable'.
        ``pattern=None`` returns the dense storage (no index overhead).
        """
        if scope == "all":
            weights = self.total_weights
        elif scope == "frozen":
            weights = self.frozen_weights
        elif scope == "learnable":
            weights = self.learnable_weights
        else:
            raise ValueError(f"unknown scope {scope!r}")
        if pattern is None:
            return weights * weight_bits
        return nm_compressed_bits(weights, pattern.density, weight_bits,
                                  index_bits)


# ------------------------------------------------------- model extraction
def extract_repnet_workload(model: RepNetModel, image_size: int,
                            name: str = "repnet") -> Workload:
    """Derive the layer workloads of a trainable :class:`RepNetModel`.

    Walks the backbone stem/blocks and the Rep-Net stem/modules/connectors,
    tracking spatial resolution through strides exactly as the forward pass
    does.
    """
    layers: List[LayerWorkload] = []
    bb = model.backbone
    size = image_size

    stem = bb.stem
    size = conv_output_size(size, stem.kernel_size, stem.stride, stem.padding)
    layers.append(LayerWorkload("backbone.stem", stem.in_channels * 9,
                                stem.out_channels, size * size, False))

    for i, block in enumerate(bb.blocks):
        c1, c2 = block.conv1, block.conv2
        size1 = conv_output_size(size, c1.kernel_size, c1.stride, c1.padding)
        layers.append(LayerWorkload(
            f"backbone.block{i}.conv1", c1.in_channels * 9, c1.out_channels,
            size1 * size1, False))
        layers.append(LayerWorkload(
            f"backbone.block{i}.conv2", c2.in_channels * 9, c2.out_channels,
            size1 * size1, False))
        if block.shortcut is not None:
            layers.append(LayerWorkload(
                f"backbone.block{i}.shortcut", block.shortcut.in_channels,
                block.shortcut.out_channels, size1 * size1, False))
        size = size1

    # Rep-Net path (learnable): stem at full resolution, then modules that
    # track the backbone's resolution schedule.
    rep_w = model.repnet_width
    layers.append(LayerWorkload("repnet.stem", model.rep_stem.in_channels,
                                rep_w, image_size * image_size, True))
    rsize = image_size
    for i, (mod, conn) in enumerate(zip(model.rep_modules, model.connectors)):
        rsize = rsize // mod.pool_stride if mod.pool_stride > 1 else rsize
        layers.append(LayerWorkload(
            f"repnet.connector{i}", conn.proj.in_channels, rep_w,
            rsize * rsize, True))
        layers.append(LayerWorkload(
            f"repnet.module{i}.conv3", rep_w * 9, rep_w, rsize * rsize, True))
        layers.append(LayerWorkload(
            f"repnet.module{i}.conv1", rep_w, rep_w, rsize * rsize, True))

    # Shared classifier (learnable, trained per task).
    for task in model.tasks or []:
        head = model.head(task)
        layers.append(LayerWorkload(
            f"classifier.{task}", head.in_features, head.out_features, 1, True))
    if not model.tasks:
        layers.append(LayerWorkload(
            "classifier", model.feature_dim, 10, 1, True))

    return Workload(name=name, layers=layers)


# ---------------------------------------------------- paper-scale workload
def _bottleneck(layers: List[LayerWorkload], stage: str, idx: int,
                in_ch: int, mid_ch: int, out_ch: int, size: int,
                stride: int, project: bool) -> int:
    """Append one ResNet-50 bottleneck block; returns the output size."""
    out_size = size // stride
    layers.append(LayerWorkload(f"{stage}.{idx}.conv1x1a", in_ch, mid_ch,
                                out_size * out_size, False))
    layers.append(LayerWorkload(f"{stage}.{idx}.conv3x3", mid_ch * 9, mid_ch,
                                out_size * out_size, False))
    layers.append(LayerWorkload(f"{stage}.{idx}.conv1x1b", mid_ch, out_ch,
                                out_size * out_size, False))
    if project:
        layers.append(LayerWorkload(f"{stage}.{idx}.proj", in_ch, out_ch,
                                    out_size * out_size, False))
    return out_size


def paper_workload(repnet_width: int = 128, num_classes: int = 100) -> Workload:
    """ImageNet ResNet-50 backbone + six Rep-Net modules (the paper's target).

    Matches the paper's storage claim: the dense INT8 RepNet model needs
    "around 26MB", exceeding one 16 MB core — so the dense baselines use a
    dual-core configuration.
    """
    layers: List[LayerWorkload] = []
    # Stem: 7x7/2 conv, 224 -> 112, then 3x3/2 maxpool -> 56.
    layers.append(LayerWorkload("stem.conv7", 3 * 49, 64, 112 * 112, False))
    size = 56

    stage_cfg = [  # (blocks, mid, out, stride of first block)
        ("stage1", 3, 64, 256, 1),
        ("stage2", 4, 128, 512, 2),
        ("stage3", 6, 256, 1024, 2),
        ("stage4", 3, 512, 2048, 2),
    ]
    in_ch = 64
    for stage, blocks, mid, out, stride in stage_cfg:
        for b in range(blocks):
            s = stride if b == 0 else 1
            size = _bottleneck(layers, stage, b, in_ch, mid, out, size, s,
                               project=(b == 0))
            in_ch = out

    layers.append(LayerWorkload("fc", 2048, 1000, 1, False))

    # Six Rep-Net modules: pool + 3x3 conv + 1x1 conv at the resolutions of
    # the backbone tap points, plus 1x1 connectors; ~5% of backbone weights.
    tap_sizes = [56, 56, 28, 28, 14, 7]
    tap_channels = [256, 256, 512, 512, 1024, 2048]
    w = repnet_width
    layers.append(LayerWorkload("repnet.stem", 3, w, 112 * 112, True))
    for i, (ts, tc) in enumerate(zip(tap_sizes, tap_channels)):
        layers.append(LayerWorkload(f"repnet.connector{i}", tc, w,
                                    ts * ts, True))
        layers.append(LayerWorkload(f"repnet.module{i}.conv3", w * 9, w,
                                    ts * ts, True))
        layers.append(LayerWorkload(f"repnet.module{i}.conv1", w, w,
                                    ts * ts, True))
    layers.append(LayerWorkload("classifier", 2048 + w, num_classes, 1, True))

    return Workload(name="resnet50-repnet@imagenet", layers=layers)
