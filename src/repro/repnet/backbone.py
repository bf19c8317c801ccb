"""Compact residual backbone (the "fixed main branch" mapped to MRAM PEs).

Stands in for the paper's ImageNet-pretrained ResNet-50 (see DESIGN.md,
"Substitutions").  The structure mirrors a ResNet: a stem convolution followed
by residual basic blocks in three width stages.  Every block output is a *tap
point* that a Rep-Net activation connector can read, matching the paper's
Fig. 6 where each learnable module taps one fixed block.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.modules import BatchNorm2d, Conv2d, Linear, Module
from ..nn.tensor import Tensor


class BasicBlock(Module):
    """Two 3x3 conv-BN pairs with an identity/projection skip."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride,
                            padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1,
                            padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Conv2d(in_channels, out_channels, 1, stride=stride,
                                   bias=False, rng=rng)
        else:
            self.shortcut = None
        self.out_channels = out_channels
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        h = self.bn1(self.conv1(x)).relu()
        h = self.bn2(self.conv2(h))
        skip = self.shortcut(x) if self.shortcut is not None else x
        return (h + skip).relu()


class Backbone(Module):
    """Stem + a chain of :class:`BasicBlock`; exposes per-block activations.

    Parameters
    ----------
    widths:
        Channel width of each block, e.g. ``(16, 16, 32, 32, 64, 64)`` — six
        blocks so that the paper's six Rep-Net modules each get a tap point.
    strides:
        Stride of each block (2 = spatial downsample).
    """

    def __init__(self, in_channels: int = 3,
                 widths: Sequence[int] = (16, 16, 32, 32, 64, 64),
                 strides: Sequence[int] = (1, 1, 2, 1, 2, 1),
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if len(widths) != len(strides):
            raise ValueError("widths and strides must have equal length")
        self.widths = tuple(widths)
        self.strides = tuple(strides)
        self.stem = Conv2d(in_channels, widths[0], 3, stride=1, padding=1,
                           bias=False, rng=rng)
        self.stem_bn = BatchNorm2d(widths[0])
        blocks = []
        prev = widths[0]
        for i, (w, s) in enumerate(zip(widths, strides)):
            block = BasicBlock(prev, w, stride=s, rng=rng)
            setattr(self, f"block{i}", block)
            blocks.append(block)
            prev = w
        self.blocks = blocks
        self.feature_dim = widths[-1]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def forward(self, x: Tensor) -> Tensor:
        feats, _ = self.forward_with_taps(x)
        return feats

    def forward_with_taps(self, x: Tensor) -> Tuple[Tensor, List[Tensor]]:
        """Return ``(pooled_features, [block activations])``."""
        h = self.stem_bn(self.stem(x)).relu()
        taps: List[Tensor] = []
        for block in self.blocks:
            h = block(h)
            taps.append(h)
        pooled = F.global_avg_pool2d(h)
        return pooled, taps


class BackboneClassifier(Module):
    """Backbone + linear head, used only for base-distribution pre-training."""

    def __init__(self, backbone: Backbone, num_classes: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.backbone = backbone
        self.head = Linear(backbone.feature_dim, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.backbone(x))
