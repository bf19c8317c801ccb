"""Transposed SRAM PE buffers for on-device backpropagation (paper Fig. 6-2).

Training the Rep-Net path needs (Sec. 4, Eqs. 1-3):

* error propagation      ``delta^{l-1} = (W^l)^T  delta^l``
* gradient computation   ``G^l = a^l (delta^l)^T``
* weight update          ``W^l <- W^l - eta * G^l``

Matrix multiplication hardware only streams along one orientation, so the
transposed operands are *written* into dedicated transposed SRAM PE buffers
each step — cheap precisely because SRAM writes are fast, which is the
hybrid design's point.  The number of such buffers is bounded by the largest
learnable layer (the error/weight transposes are consumed layer-by-layer),
and shrinks with the model's N:M sparsity.

:class:`TransposedSRAMPE` wraps the sparse PE with a transpose-on-write
path.  :class:`BackpropEngine` strings the three steps together for one
layer and exposes the aggregate write/read/cycle traffic that the Fig. 8 EDP
study charges to training.  A caller may keep one error buffer per layer
and hand it back each step: ``W^T`` keeps its support whenever ``W`` does,
so the rewrite touches only the values (:meth:`SRAMSparsePE.update_weights`)
and charges exactly what a fresh buffer would.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..sparsity.nm import NMPattern
from .sram_pe import SRAMPEConfig, SRAMSparsePE
from .stats import PEStats


class TransposedSRAMPE:
    """An SRAM sparse PE that stores the transpose of a weight/error matrix.

    After :meth:`load_transposed`, ``matmul(delta)`` computes
    ``delta @ W^T`` — i.e. error propagation through layer ``W`` (stored
    here as ``(out_dim, in_dim)``).

    The transpose of an N:M matrix is *not* N:M along its own columns, so
    the transposed buffer stores with ``strict=False``; the hardware
    tolerates this because the PE's row-wise accumulator absorbs uneven
    columns (at the cycle cost the simulator charges).  Total non-zeros (and
    hence storage) are unchanged by transposition.

    The buffer can be kept across training steps: each
    :meth:`load_transposed` rewrites it, replacing only the values while the
    support holds.
    """

    def __init__(self, config: Optional[SRAMPEConfig] = None):
        self.pe = SRAMSparsePE(config)

    @property
    def stats(self) -> PEStats:
        return self.pe.stats

    def load_transposed(self, matrix: np.ndarray, pattern: NMPattern) -> None:
        """Write ``matrix.T`` into the buffer (charged as SRAM writes).

        Goes through :meth:`SRAMSparsePE.update_weights`: a first write
        loads, and a rewrite on the resident support replaces only the
        values, at the same write charge.
        """
        self.pe.update_weights(np.asarray(matrix).T, pattern, strict=False)

    def matmul(self, activations: np.ndarray) -> np.ndarray:
        return self.pe.matmul(activations)

    def dense_weight(self) -> np.ndarray:
        return self.pe.dense_weight()


class BackpropEngine:
    """One layer's backward pass on transposed SRAM PE buffers.

    Works on integer (quantized) operands, mirroring the INT8 training-step
    dataflow; the learning-rate application and re-quantization live in the
    algorithm layer, so :meth:`weight_update` returns the raw integer
    gradient alongside the updated weights.

    :meth:`propagate_error` can rewrite a caller's resident error buffer
    instead of writing a new one, with identical counters.  The gradient
    buffer of :meth:`weight_gradient` is new on every call: activation
    support changes from step to step.
    """

    def __init__(self, config: Optional[SRAMPEConfig] = None):
        self.config = config or SRAMPEConfig()
        self.stats = PEStats()

    def propagate_error(self, weight: np.ndarray, delta: np.ndarray,
                        pattern: NMPattern,
                        buffer: Optional[TransposedSRAMPE] = None
                        ) -> np.ndarray:
        """``delta^{l-1} = delta^l @ W^T`` via a transposed buffer.

        ``weight``: integer ``(in_dim, out_dim)`` (PIM orientation).
        ``delta``: integer ``(batch, out_dim)``.  ``buffer``: the layer's
        resident error buffer, rewritten in place (a fresh one if omitted).
        Its stats are reset first, so :attr:`stats` receives exactly what a
        fresh buffer would charge.
        """
        buf = TransposedSRAMPE(self.config) if buffer is None else buffer
        buf.pe.stats = PEStats()
        buf.load_transposed(weight, pattern)
        out = buf.matmul(delta)
        self.stats.merge(buf.stats)
        return out

    def weight_gradient(self, activations: np.ndarray, delta: np.ndarray,
                        pattern: NMPattern) -> np.ndarray:
        """``G = a^T @ delta`` — outer-product gradient via a transposed buffer.

        The *activation* matrix is transposed and written; each batch row of
        ``delta`` then streams through the array.  Returns the integer
        gradient ``(in_dim, out_dim)``.
        """
        activations = np.atleast_2d(np.asarray(activations))
        delta = np.atleast_2d(np.asarray(delta))
        if activations.shape[0] != delta.shape[0]:
            raise ValueError(
                f"batch mismatch: activations {activations.shape[0]} vs "
                f"delta {delta.shape[0]}")
        buf = TransposedSRAMPE(self.config)
        # a^T is (in_dim, batch); streaming delta^T columns yields a^T @ delta.
        buf.pe.load(activations.astype(np.int64), pattern, strict=False)
        grad = buf.matmul(delta.T.astype(np.int64)).T
        self.stats.merge(buf.stats)
        return grad

    def weight_update(self, weight: np.ndarray, grad: np.ndarray,
                      lr_shift: int = 8) -> Tuple[np.ndarray, int]:
        """Integer SGD step ``W <- W - (G >> lr_shift)``.

        A power-of-two learning rate (arithmetic shift) is the standard
        integer-training trick; returns ``(new_weight, bits_written)`` so the
        caller can charge the SRAM write traffic.
        """
        weight = np.asarray(weight, dtype=np.int64)
        grad = np.asarray(grad, dtype=np.int64)
        if weight.shape != grad.shape:
            raise ValueError(
                f"weight {weight.shape} and grad {grad.shape} differ")
        step = grad >> lr_shift if lr_shift >= 0 else grad << (-lr_shift)
        new_weight = weight - step
        changed = int((new_weight != weight).sum())
        bits_written = changed * self.config.weight_bits
        self.stats.weight_bits_written += bits_written
        return new_weight, bits_written
