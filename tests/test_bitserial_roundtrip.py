"""Seeded randomized round-trip tests for bit-plane decomposition.

Satellite of the dataflow-verifier PR: the plane decomposition /
reconstruction pair must be *exact* for every width the datapath can be
configured to (``BITSERIAL_MIN_BITS`` .. ``BITSERIAL_MAX_BITS``) and for
both signs — these are the same constants the ``@width_contract``
declarations bound the dataflow analysis with, so a drift between the
runtime behaviour and the declared widths shows up here first.
"""

import numpy as np
import pytest

from repro.core.bitserial import (from_partials, plane_weight, plane_weights,
                                  to_bit_planes)
from repro.core.widths import (ACTIVATION_BITS, BITSERIAL_MAX_BITS,
                               BITSERIAL_MIN_BITS)

ALL_BITS = list(range(BITSERIAL_MIN_BITS, BITSERIAL_MAX_BITS + 1))


def _signed_range(bits):
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def test_width_constants_cover_datapath():
    # The contracts pin the analysis to these exact bounds; if they move,
    # the parametrization below must move with them.
    assert BITSERIAL_MIN_BITS == 2
    assert BITSERIAL_MAX_BITS == 16
    assert ACTIVATION_BITS in ALL_BITS


@pytest.mark.parametrize("bits", ALL_BITS)
def test_roundtrip_random_values(bits):
    rng = np.random.default_rng(1234 + bits)
    lo, hi = _signed_range(bits)
    values = rng.integers(lo, hi + 1, size=(5, 7), dtype=np.int64)
    planes = to_bit_planes(values, bits=bits)
    assert planes.shape == (bits,) + values.shape
    assert planes.dtype == np.int64
    assert set(np.unique(planes)) <= {0, 1}
    # Planes are the degenerate partial sums of an identity matmul, so
    # from_partials must reconstruct the original values exactly.
    back = from_partials(planes, bits=bits)
    np.testing.assert_array_equal(back, values)


@pytest.mark.parametrize("bits", ALL_BITS)
def test_roundtrip_boundary_values(bits):
    lo, hi = _signed_range(bits)
    values = np.array([lo, lo + 1, -1, 0, 1, hi - 1, hi], dtype=np.int64)
    back = from_partials(to_bit_planes(values, bits=bits), bits=bits)
    np.testing.assert_array_equal(back, values)


@pytest.mark.parametrize("bits", ALL_BITS)
def test_roundtrip_sign_split(bits):
    # Negative-only and positive-only draws round-trip independently —
    # the MSB plane weight (-2**(bits-1)) is what separates the signs.
    rng = np.random.default_rng(9876 + bits)
    lo, hi = _signed_range(bits)
    neg = rng.integers(lo, 0, size=64, dtype=np.int64)
    pos = rng.integers(0, hi + 1, size=64, dtype=np.int64)
    for values in (neg, pos):
        back = from_partials(to_bit_planes(values, bits=bits), bits=bits)
        np.testing.assert_array_equal(back, values)


@pytest.mark.parametrize("bits", ALL_BITS)
def test_plane_weights_sum_to_signed_range(bits):
    weights = plane_weights(bits)
    assert weights[bits - 1] == plane_weight(bits - 1, bits) == -(1 << (bits - 1))
    lo, hi = _signed_range(bits)
    assert int(weights[weights < 0].sum()) == lo
    assert int(weights[weights > 0].sum()) == hi


@pytest.mark.parametrize("bits", ALL_BITS)
def test_out_of_range_rejected(bits):
    lo, hi = _signed_range(bits)
    with pytest.raises(ValueError):
        to_bit_planes(np.array([hi + 1]), bits=bits)
    with pytest.raises(ValueError):
        to_bit_planes(np.array([lo - 1]), bits=bits)


def test_roundtrip_through_matmul_partials():
    # The real dataflow: per-plane partial products, recombined.  Must be
    # bit-exact to the ordinary integer matmul at the contract widths.
    rng = np.random.default_rng(42)
    bits = ACTIVATION_BITS
    lo, hi = _signed_range(bits)
    activations = rng.integers(lo, hi + 1, size=(3, 8), dtype=np.int64)
    weight = rng.integers(-128, 128, size=(8, 4), dtype=np.int64)
    planes = to_bit_planes(activations, bits=bits)
    partials = np.stack([planes[b] @ weight for b in range(bits)])
    out = from_partials(partials, bits=bits)
    np.testing.assert_array_equal(out, activations @ weight)
