"""Exact integer GEMMs on float64 BLAS, behind a provable guard.

Every integer of magnitude at most ``2**53`` is a float64.  For integer
``x`` and ``W``, every product and every partial sum of output column
``c`` has magnitude at most ``max|x| * sum_k |W[k, c]|``.  So when

    ``max|x| * max_c sum_k |W[k, c]| <= 2**53``

every intermediate a float64 GEMM forms is such an integer, each step
rounds to itself, and ``x @ W`` comes out exact in any summation order,
with or without FMA, blocking or threading.  The sparse-PE kernels
(:mod:`repro.core.kernels`) run their one product through
:func:`exact_matmul`, which checks that bound per call and takes numpy's
integer matmul (exact modulo ``2**64``, like any int64 sum) on anything
beyond it.  Inside the kernels' contract (16-bit inputs, 8-bit weights,
``MAX_REDUCTION_DEPTH = 2**20`` terms) the bound is ``2**42``, eleven
bits short of the guard.

This module holds the float64 code the integer-only kernel modules must
not (lint rule R1): :class:`DensePanel`, a weight matrix kept both as
int64 and as float64, and the guarded product.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .widths import width_contract

#: Every integer of magnitude at most this is exactly a float64.
FLOAT64_EXACT_LIMIT = 1 << 53


@dataclasses.dataclass(frozen=True)
class DensePanel:
    """One dense ``(in_dim, out_dim)`` integer weight matrix, held as
    int64 (``ints``) and float64 (``floats``), both read-only, with
    ``peak = max |W|`` as an exact Python int.
    """

    ints: np.ndarray
    floats: np.ndarray
    peak: int

    @classmethod
    def from_ints(cls, ints: np.ndarray) -> "DensePanel":
        """Wrap (not copy) an int64 matrix; it becomes read-only."""
        ints.setflags(write=False)
        floats = ints.astype(np.float64)
        floats.setflags(write=False)
        peak = max(-int(ints.min(initial=0)), int(ints.max(initial=0)))
        return cls(ints, floats, peak)

    @functools.cached_property
    def col_l1(self) -> int:
        """``max_c sum_k |W[k, c]|`` as an exact Python int."""
        ints = self.ints
        if self.peak * ints.shape[0] >= 1 << 63:
            # An int64 column sum could wrap: sum Python ints instead.
            ints = ints.astype(object)
        return int(np.abs(ints).sum(axis=0).max(initial=0))


def exact_in_float64(magnitude: int, panel: DensePanel) -> bool:
    """Whether a float64 GEMM of activations bounded by ``magnitude``
    with ``panel`` is exact (module docstring).  ``peak * in_dim`` bounds
    every column's L1 norm, so it decides nearly every call without
    computing the exact norm."""
    if magnitude * panel.peak * panel.ints.shape[0] <= FLOAT64_EXACT_LIMIT:
        return True
    return magnitude * panel.col_l1 <= FLOAT64_EXACT_LIMIT


@width_contract(inputs="i8", weights="i8", accum="i64",
                depth="MAX_REDUCTION_DEPTH",
                returns="depth * inputs * weights",
                params={"activations": "inputs", "panel.ints": "weights",
                        "panel.floats": "weights"})
def exact_matmul(activations: np.ndarray, panel: DensePanel,
                 magnitude: int) -> np.ndarray:
    """``activations @ panel`` as int64, bit-exact for every int64 input.

    ``magnitude`` must bound ``max |activations|``.  Within the guard the
    product runs on float64 BLAS; beyond it, on numpy's int64 matmul.
    """
    if exact_in_float64(magnitude, panel):
        return (activations.astype(np.float64) @ panel.floats).astype(
            np.int64)
    return activations.astype(np.int64) @ panel.ints
