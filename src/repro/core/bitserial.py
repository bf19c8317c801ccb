"""Bit-serial integer arithmetic helpers.

Both PE designs process INT8 activations bit-serially (Sec. 3.1): activations
stream one bit per cycle on the input word lines, in-array AND gates form
1-bit partial products, and a shift accumulator re-weights each bit plane.
These helpers decompose integers into two's-complement bit planes and fold
partial sums back together, so the PE simulators can model the per-cycle
dataflow exactly while remaining bit-true to an ordinary integer matmul.
"""

from __future__ import annotations

import numpy as np

from .widths import BITSERIAL_MAX_BITS, width_contract


def require_signed_range(values: np.ndarray, bits: int) -> None:
    """Reject values that do not fit ``bits``-bit two's complement.

    The input word lines stream exactly ``bits`` planes, so anything
    outside ``[-2**(bits-1), 2**(bits-1) - 1]`` has no bit-serial encoding.
    """
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if values.min(initial=0) < lo or values.max(initial=0) > hi:
        raise ValueError(f"values outside signed {bits}-bit range [{lo}, {hi}]")


@width_contract(inputs="i16", returns="u1",
                bounds={"bits": BITSERIAL_MAX_BITS},
                params={"values": "inputs"})
def to_bit_planes(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """Two's-complement bit planes of an integer array.

    Returns an array of shape ``(bits,) + values.shape`` with plane ``b``
    holding bit ``b`` (LSB first).  Values must fit in ``bits`` bits signed.
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"bit-serial streaming needs integer data, got {values.dtype}")
    require_signed_range(values, bits)
    # Masking with 2**bits - 1 IS the two's-complement wrap for negatives.
    unsigned = values.astype(np.int64) & ((1 << bits) - 1)
    shifts = np.arange(bits, dtype=np.int64).reshape((bits,) + (1,) * values.ndim)
    return (unsigned[np.newaxis, ...] >> shifts) & 1


@width_contract(returns="1 << (BITSERIAL_MAX_BITS - 1)",
                bounds={"bit": 15, "bits": BITSERIAL_MAX_BITS})
def plane_weight(bit: int, bits: int) -> int:
    """Arithmetic weight of bit plane ``bit`` in two's complement.

    The MSB carries ``-2**(bits-1)``; every other plane ``+2**bit``.  The
    shift accumulator applies exactly these weights ("shift accumulate for
    input precision compensation", Sec. 3.1).
    """
    if bit == bits - 1:
        return -(1 << bit)
    return 1 << bit


_PLANE_WEIGHTS: dict = {}


@width_contract(returns="1 << (BITSERIAL_MAX_BITS - 1)",
                bounds={"bits": BITSERIAL_MAX_BITS})
def plane_weights(bits: int) -> np.ndarray:
    """The vector of all ``bits`` plane weights (cached, read-only)."""
    weights = _PLANE_WEIGHTS.get(bits)
    if weights is None:
        weights = np.array([plane_weight(b, bits) for b in range(bits)],
                           dtype=np.int64)
        weights.setflags(write=False)
        _PLANE_WEIGHTS[bits] = weights
    return weights


@width_contract(inputs="i32", weights="i16", accum="i64",
                depth="BITSERIAL_MAX_BITS",
                returns="depth * weights * inputs",
                params={"partials": "inputs"})
def from_partials(partials: np.ndarray, bits: int) -> np.ndarray:
    """Recombine per-bit-plane partial sums into the final integer result.

    ``partials`` has shape ``(bits,) + result_shape``; plane ``b`` is the
    adder-tree output for input bit ``b``.
    """
    partials = np.asarray(partials)
    if partials.shape[0] != bits:
        raise ValueError(f"expected {bits} planes, got {partials.shape[0]}")
    return np.tensordot(plane_weights(bits), partials.astype(np.int64),
                        axes=([0], [0]))
