"""INT8 quantization primitives and post-training quantization (PTQ).

The hardware stores INT8 weights (8-bit weight columns in both PE designs,
Sec. 3.1) and streams activations bit-serially.  This module provides:

* :class:`QuantParams` — scale/zero-point pairs with quantize/dequantize.
* per-tensor and per-channel weight quantization,
* :func:`quantize_model_ptq` — fake-quantize a model's weights in place
  (simulating INT8 deployment for the Table 1 accuracy study),
* exact integer weight extraction for the PE functional simulators
  (:func:`quantize_weight_int`), which is what actually gets CSC-encoded and
  mapped to the arrays.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

import numpy as np

from ..nn.modules import Conv2d, Linear, Module

INT8_QMIN = -127  # symmetric, reserve -128 to keep |q| <= 127
INT8_QMAX = 127


@dataclasses.dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters ``q = round(x / scale) + zero_point``."""

    scale: float
    zero_point: int = 0
    qmin: int = INT8_QMIN
    qmax: int = INT8_QMAX

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.qmin >= self.qmax:
            raise ValueError("qmin must be < qmax")

    def quantize(self, x: np.ndarray) -> np.ndarray:
        q = np.round(np.asarray(x) / self.scale) + self.zero_point
        return np.clip(q, self.qmin, self.qmax).astype(np.int32)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        return (np.asarray(q, dtype=np.float64) - self.zero_point) * self.scale

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-trip through the integer grid (simulated quantization)."""
        return self.dequantize(self.quantize(x))

    @classmethod
    def from_range(cls, lo: float, hi: float, symmetric: bool = True,
                   qmin: int = INT8_QMIN, qmax: int = INT8_QMAX) -> "QuantParams":
        if hi < lo:
            raise ValueError(f"invalid range [{lo}, {hi}]")
        if symmetric:
            bound = max(abs(lo), abs(hi), 1e-12)
            return cls(scale=bound / qmax, zero_point=0, qmin=qmin, qmax=qmax)
        span = max(hi - lo, 1e-12)
        scale = span / (qmax - qmin)
        zp = int(round(qmin - lo / scale))
        return cls(scale=scale, zero_point=zp, qmin=qmin, qmax=qmax)

    @classmethod
    def from_tensor(cls, x: np.ndarray, symmetric: bool = True) -> "QuantParams":
        x = np.asarray(x)
        if x.size == 0:
            raise ValueError("cannot calibrate on an empty tensor")
        return cls.from_range(float(x.min()), float(x.max()), symmetric=symmetric)


def quantize_weight_int(weight: np.ndarray, symmetric: bool = True
                        ) -> Tuple[np.ndarray, QuantParams]:
    """Quantize a weight tensor to true INT8 integers (for the PE simulators).

    Zero weights stay exactly zero (zero_point = 0 in symmetric mode), which
    is required for the CSC encoding to preserve the N:M support.
    """
    params = QuantParams.from_tensor(weight, symmetric=symmetric)
    return params.quantize(weight), params


def fake_quantize_per_channel(weight: np.ndarray, axis: int = 0) -> np.ndarray:
    """Round-trip each output channel through its own INT8 grid."""
    weight = np.asarray(weight)
    moved = np.moveaxis(weight, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = np.empty_like(flat)
    for i, row in enumerate(flat):
        out[i] = QuantParams.from_tensor(row).fake_quantize(row)
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def quantize_model_ptq(model: Module, per_channel: bool = True,
                       trainable_only: bool = False) -> Dict[str, QuantParams]:
    """INT8 PTQ: replace every Linear/Conv2d weight by its fake-quantized value.

    This mirrors the paper's flow ("We only performed INT8 Post-Training
    Quantization"): weights move onto the INT8 grid; activations are handled
    by the bit-serial hardware at full observed range, so accuracy impact is
    dominated by the weight grid, which is what we simulate.

    Returns per-tensor :class:`QuantParams` (the per-channel variant returns
    the params of the flattened tensor for reporting, while quantizing each
    channel with its own scale).
    """
    report: Dict[str, QuantParams] = {}
    for name, mod in model.named_modules():
        if not isinstance(mod, (Linear, Conv2d)):
            continue
        w = mod.weight
        if trainable_only and not w.trainable:
            continue
        key = (name + "." if name else "") + "weight"
        report[key] = QuantParams.from_tensor(w.data)
        if per_channel:
            w.data = fake_quantize_per_channel(w.data, axis=0)
        else:
            w.data = report[key].fake_quantize(w.data).astype(w.dtype)
    return report
