"""Kernel parity over the whole accelerator surface.

Two ``HybridAccelerator(NMPattern(1, 4))`` instances — one on the
reference oracle kernels (substituted by the ``oracle_kernels`` fixture),
one on the production kernels — run the same training step over
scaled-down Rep-Net GEMMs: frozen backbone layers (MRAM gather) and
learnable Rep-Net layers (SRAM bit-serial, error propagation, weight
gradient and update).  Every output array and every ``PEStats`` counter
must be identical, so the production kernels are observably pure end to
end.
"""

import numpy as np
import pytest

from repro.core import HybridAccelerator
from repro.sparsity import NMPattern, compute_nm_mask

PATTERN = NMPattern(1, 4)

#: (name, in_dim, out_dim, learnable): Table 1 Rep-Net GEMM geometries at
#: repnet_width=16, with the positions cut to a few rows.  The frozen
#: 288x32 conv spans several MRAM tiles; ``repnet.stem`` has a ragged
#: 3-deep reduction.
GEMMS = [
    ("backbone.stem", 27, 16, False),
    ("backbone.block2.conv2", 288, 32, False),
    ("backbone.block4.shortcut", 32, 64, False),
    ("repnet.stem", 3, 16, True),
    ("repnet.module0.conv3", 144, 16, True),
    ("repnet.connector4", 64, 16, True),
    ("classifier", 80, 10, True),
]
POSITIONS = 6
DELTA_ROWS = 4


def _nonzero(rng, shape, high):
    """Values in ``±[1, high]``: no zeros, so every entry is stored."""
    magnitude = rng.integers(1, high + 1, size=shape)
    return np.where(rng.random(shape) < 0.5, -magnitude,
                    magnitude).astype(np.int64)


def _nm_weight(rng, in_dim, out_dim):
    dense = _nonzero(rng, (in_dim, out_dim), 127)
    mask = compute_nm_mask(np.abs(dense).astype(np.float64), PATTERN, axis=0)
    return np.where(mask.astype(bool), dense, 0)


def _run(seed):
    """One step on a fresh accelerator: (outputs by call, stats by PE)."""
    rng = np.random.default_rng(seed)
    acc = HybridAccelerator(PATTERN)
    outputs = {}
    for name, in_dim, out_dim, learnable in GEMMS:
        weight = _nm_weight(rng, in_dim, out_dim)
        x = _nonzero(rng, (POSITIONS, in_dim), 63)
        acc.load_gemm(name, weight, learnable=learnable)
        outputs[name, "gemm"] = acc.gemm(name, x)
        if not learnable:
            continue
        delta = _nonzero(rng, (DELTA_ROWS, out_dim), 15)
        outputs[name, "error"] = acc.propagate_error(name, delta)
        grad = acc.weight_gradient(name, x[:DELTA_ROWS], delta)
        outputs[name, "gradient"] = grad
        stepped = np.clip(weight - (grad >> 8), -127, 127)
        updated = np.where(weight != 0,
                           np.where(stepped == 0, weight, stepped), 0)
        acc.update_gemm(name, updated)
        outputs[name, "updated gemm"] = acc.gemm(name, x)
        np.testing.assert_array_equal(outputs[name, "updated gemm"],
                                      x @ updated)
    stats = {pe: s.as_dict() for pe, s in acc.stats().items()}
    return outputs, stats


@pytest.mark.parametrize("seed", [0, 1])
def test_reference_and_default_kernels_agree(oracle_kernels, seed):
    with oracle_kernels():
        ref_out, ref_stats = _run(seed)
    out, stats = _run(seed)
    assert out.keys() == ref_out.keys()
    for key, want in ref_out.items():
        assert out[key].dtype == want.dtype, key
        np.testing.assert_array_equal(out[key], want, err_msg=str(key))
    assert stats.keys() == ref_stats.keys() == {"sram", "mram"}
    for pe in ref_stats:
        assert stats[pe] == ref_stats[pe], pe
    assert ref_stats["sram"]["macs"] and ref_stats["mram"]["macs"]
