"""Fault injection: what read bit-errors do to the computation.

Closes the loop between the device-level reliability models
(:mod:`repro.energy.sensing` — read BER vs variation) and the algorithm:
flip stored weight bits at a given bit-error rate and measure how the
sparse matmul output degrades.  Used by the
robustness ablation to show the operating margin the all-digital design
enjoys — at realistic BERs (< 1e-6) the computation is bit-exact with
overwhelming probability, and even pessimistic BERs degrade gracefully.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..sparsity.nm import NMPattern
from .sram_pe import SRAMSparsePE


def inject_weight_bit_flips(matrix: np.ndarray, ber: float,
                            rng: Optional[np.random.Generator] = None,
                            weight_bits: int = 8) -> np.ndarray:
    """Flip each stored weight bit independently with probability ``ber``.

    Operates on the two's-complement representation, exactly as a read
    upset would; returns a new integer matrix.  Zero weights are stored too
    (their bit-cells can also flip) — but in the *sparse* storage only
    non-zero weights occupy cells, so flips are restricted to the CSC
    support (zeros stay zero), matching the hardware.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"bit error rate must be in [0, 1], got {ber}")
    matrix = np.asarray(matrix)
    if not np.issubdtype(matrix.dtype, np.integer):
        raise TypeError("fault injection operates on integer weights")
    rng = rng or np.random.default_rng(0)
    if ber == 0.0:
        return matrix.astype(np.int64).copy()

    support = matrix != 0
    unsigned = np.where(matrix < 0, matrix + (1 << weight_bits),
                        matrix).astype(np.int64)
    flips = rng.random((weight_bits,) + matrix.shape) < ber
    for b in range(weight_bits):
        mask = flips[b] & support
        unsigned = np.where(mask, unsigned ^ (1 << b), unsigned)
    signed = np.where(unsigned >= (1 << (weight_bits - 1)),
                      unsigned - (1 << weight_bits), unsigned)
    return signed.astype(np.int64)


def gemm_error_study(weight: np.ndarray, activations: np.ndarray,
                     pattern: NMPattern, bers: Sequence[float],
                     trials: int = 3,
                     rng: Optional[np.random.Generator] = None
                     ) -> List[Dict[str, float]]:
    """Relative output error of the sparse PE matmul across read BERs.

    For each BER: corrupt the stored weights, run the PE, compare against
    the fault-free output.  Returns one record per BER with mean/max
    relative output error over ``trials`` corruption draws.
    """
    rng = rng or np.random.default_rng(0)
    weight = np.asarray(weight)
    clean_pe = SRAMSparsePE()
    clean_pe.load(weight, pattern, strict=False)
    clean = clean_pe.matmul(activations).astype(np.float64)
    denom = np.abs(clean).max() + 1e-12

    out: List[Dict[str, float]] = []
    for ber in bers:
        rel_errors = []
        for _ in range(trials):
            corrupted = inject_weight_bit_flips(weight, ber, rng)
            pe = SRAMSparsePE()
            pe.load(corrupted, pattern, strict=False)
            dirty = pe.matmul(activations).astype(np.float64)
            rel_errors.append(float(np.abs(dirty - clean).max()) / denom)
        out.append({
            "ber": float(ber),
            "mean_rel_error": float(np.mean(rel_errors)),
            "max_rel_error": float(np.max(rel_errors)),
        })
    return out
