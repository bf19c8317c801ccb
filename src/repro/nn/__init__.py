"""Numpy training substrate: tensors, autograd, layers, optimizers, data.

This package replaces the PyTorch/GPU stack the paper used (see DESIGN.md,
"Substitutions"): it provides exactly the operations the Rep-Net continual
learning recipe needs, with reverse-mode autograd verified against numerical
differentiation in the test suite.
"""

from . import functional
from .data import DataLoader, Dataset, Subset, TensorDataset
from .functional import (accuracy, avg_pool2d, conv2d, cross_entropy,
                         global_avg_pool2d, linear, log_softmax, max_pool2d,
                         relu)
from .modules import (AvgPool2d, BatchNorm2d, Conv2d, Linear, Module,
                      Parameter)
from .optim import Adam, Optimizer, clip_grad_norm
from .tensor import Tensor, astensor, concatenate, no_grad, ones, stack, zeros

__all__ = [
    "Tensor", "astensor", "concatenate", "stack", "zeros", "ones",
    "no_grad", "functional",
    "Module", "Parameter", "Linear", "Conv2d", "BatchNorm2d", "AvgPool2d",
    "Optimizer", "Adam", "clip_grad_norm",
    "Dataset", "TensorDataset", "Subset", "DataLoader",
    "cross_entropy", "accuracy", "log_softmax",
    "conv2d", "linear", "relu", "max_pool2d", "avg_pool2d", "global_avg_pool2d",
]
