"""N:M structured sparsity: mask search, application and verification.

The paper uses the NVIDIA-style N:M pattern (Sec. 2.3): within every group of
``m`` *contiguous, aligned* elements along the input dimension, at most ``n``
are non-zero.  The PE circuits store one 4-bit index per kept weight, so
``m <= 16`` ("up to N:16 structured sparsity", Sec. 3.1).

Mask search follows the paper's recipe (Sec. 5.1): a saliency score per weight
(magnitude, or magnitude x accumulated gradient from a one-epoch calibration
pass) ranks the elements of each group, and the top-``n`` survive.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

#: Index bit width supported by both PE designs (4-bit -> groups up to 16).
MAX_GROUP_SIZE = 16
INDEX_BITS = 4


@dataclasses.dataclass(frozen=True)
class NMPattern:
    """An ``n:m`` structured sparsity pattern (``n`` kept out of every ``m``).

    ``NMPattern(1, 4)`` is the paper's "1:4" (75% sparse); ``NMPattern(2, 4)``
    is NVIDIA Ampere's 2:4.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"n and m must be >= 1, got {self.n}:{self.m}")
        if self.n > self.m:
            raise ValueError(f"n ({self.n}) cannot exceed m ({self.m})")
        if self.m > MAX_GROUP_SIZE:
            raise ValueError(
                f"group size {self.m} exceeds the {INDEX_BITS}-bit index range "
                f"(max {MAX_GROUP_SIZE})")

    @property
    def sparsity(self) -> float:
        """Fraction of weights that are zero, e.g. 0.75 for 1:4."""
        return 1.0 - self.n / self.m

    @property
    def density(self) -> float:
        return self.n / self.m

    @property
    def index_bits(self) -> int:
        """Bits needed to address a position within one group."""
        return max(1, int(np.ceil(np.log2(self.m))))

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"

    @classmethod
    def parse(cls, text: str) -> "NMPattern":
        """Parse '1:4'-style strings (as used in the paper's tables)."""
        try:
            n_str, m_str = text.split(":")
            return cls(int(n_str), int(m_str))
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"cannot parse N:M pattern from {text!r}") from exc


def _pad_to_groups(flat: np.ndarray, m: int) -> Tuple[np.ndarray, int]:
    """Pad a 1-D-per-row matrix so columns divide into groups of ``m``."""
    rows, cols = flat.shape
    pad = (-cols) % m
    if pad:
        flat = np.pad(flat, ((0, 0), (0, pad)))
    return flat, pad


def compute_nm_mask(saliency: np.ndarray, pattern: NMPattern,
                    axis: int = -1) -> np.ndarray:
    """Return a {0,1} mask keeping the top-``n`` saliency entries per group.

    Parameters
    ----------
    saliency:
        Non-negative importance scores, same shape as the weight tensor.
        For conv kernels ``(F, C, KH, KW)`` the grouping runs along the
        flattened ``C*KH*KW`` input dimension — exactly the GEMM row the PE
        compresses (see :mod:`repro.core.csc`).
    pattern:
        The N:M pattern.
    axis:
        Axis along which groups are formed after moving it last.

    Ties are broken towards the lower index to keep the mask deterministic.
    """
    saliency = np.asarray(saliency)
    if saliency.ndim == 0:
        raise ValueError("saliency must be at least 1-D")

    if saliency.ndim > 2:
        # Conv kernel: flatten everything after the output-channel dim.
        orig_shape = saliency.shape
        flat = saliency.reshape(orig_shape[0], -1)
        mask = compute_nm_mask(flat, pattern, axis=-1)
        return mask.reshape(orig_shape)

    moved = np.moveaxis(np.atleast_2d(saliency), axis, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    padded, pad = _pad_to_groups(flat, pattern.m)
    rows, cols = padded.shape
    groups = padded.reshape(rows, cols // pattern.m, pattern.m)

    # argsort descending, stable -> ties keep lower index.
    order = np.argsort(-groups, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(pattern.m)[None, None, :], axis=-1)
    mask = (ranks < pattern.n).astype(np.float64)

    mask = mask.reshape(rows, cols)
    if pad:
        mask = mask[:, :-pad]
    mask = mask.reshape(moved.shape)
    mask = np.moveaxis(mask, -1, axis)
    return mask.reshape(saliency.shape)


def apply_nm_mask(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Elementwise weight * mask in the weights' dtype (copies; does not
    mutate)."""
    if weights.shape != mask.shape:
        raise ValueError(f"weight shape {weights.shape} != mask shape {mask.shape}")
    return weights * mask.astype(weights.dtype, copy=False)


def verify_nm(matrix: np.ndarray, pattern: NMPattern, axis: int = -1) -> bool:
    """Check that every aligned group of ``m`` has at most ``n`` non-zeros."""
    matrix = np.asarray(matrix)
    if matrix.ndim > 2:
        matrix = matrix.reshape(matrix.shape[0], -1)
    moved = np.moveaxis(np.atleast_2d(matrix), axis, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    padded, _ = _pad_to_groups(flat, pattern.m)
    groups = padded.reshape(padded.shape[0], -1, pattern.m)
    nnz = (groups != 0).sum(axis=-1)
    return bool((nnz <= pattern.n).all())
