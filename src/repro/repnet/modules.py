"""Rep-Net learnable modules and activation connectors (mapped to SRAM PEs).

Per the paper (Sec. 5.1): each Rep-Net module consists of "1 pooling layer and
2 convolution layers where one of the convolution kernel is 1x1".  An
*activation connector* (a learnable 1x1 projection) injects the corresponding
fixed-backbone activation into the running Rep-Net state, so the tiny parallel
path can reprogram the frozen features for the new task.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.modules import AvgPool2d, Conv2d, Module
from ..nn.tensor import Tensor


class ActivationConnector(Module):
    """1x1 projection from a backbone tap into the Rep-Net channel space."""

    def __init__(self, backbone_channels: int, repnet_channels: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.proj = Conv2d(backbone_channels, repnet_channels, 1, bias=False,
                           rng=rng)

    def forward(self, tap: Tensor) -> Tensor:
        return self.proj(tap)


class RepNetModule(Module):
    """One Rep-Net stage: (optional) pool, 3x3 conv, ReLU, 1x1 conv.

    ``pool_stride`` > 1 shrinks the running state to track the backbone's
    spatial downsampling at this tap point.
    """

    def __init__(self, channels: int, pool_stride: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.channels = channels
        self.pool_stride = pool_stride
        if pool_stride > 1:
            self.pool = AvgPool2d(pool_stride, pool_stride)
        else:
            self.pool = None
        self.conv3 = Conv2d(channels, channels, 3, padding=1, bias=True, rng=rng)
        self.conv1 = Conv2d(channels, channels, 1, bias=True, rng=rng)

    def forward(self, state: Tensor, injected: Tensor) -> Tensor:
        """Advance the Rep-Net state given the connector-projected tap.

        The injected activation is already at this stage's output resolution,
        so pooling applies to the carried state only.
        """
        if self.pool is not None:
            state = self.pool(state)
        h = state + injected
        h = self.conv3(h).relu()
        return self.conv1(h)
