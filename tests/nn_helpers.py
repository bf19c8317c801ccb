"""Model-building helpers the tests share: a layer chain, a ReLU layer and
a seed reset for ``repro.nn``'s default initialisation RNG."""

import numpy as np

from repro.nn import modules
from repro.nn.modules import Module
from repro.nn.tensor import Tensor


def set_seed(seed: int) -> None:
    """Reset the RNG that layers built without ``rng=`` draw their init from."""
    modules._default_rng = np.random.default_rng(seed)


class Sequential(Module):
    """Chain of modules applied in order; ``layer{i}`` names the i-th one."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()
