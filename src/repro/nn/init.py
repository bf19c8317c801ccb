"""Weight initialization strategies.

The layers default to Kaiming-uniform (matching their ReLU-heavy usage);
this module provides the full standard family for experiments that need a
different variance budget — notably the Rep-Net adaptor ablations, where a
near-zero final-projection init ("zero-init residual") makes the freshly
attached path start as an identity perturbation.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .modules import Parameter

#: Seed of the fallback Generator every initializer builds when called
#: without an explicit ``rng``.  The fallback exists so ad-hoc scripts get
#: reproducible weights by default; note it is constructed *fresh per
#: call*, so two bare calls to the same initializer produce identical
#: draws.  Experiments that need independent streams must pass their own
#: seeded ``np.random.Generator`` (the harness configs all do).
DEFAULT_INIT_SEED: int = 0


def _fan_in_out(param: Parameter) -> Tuple[int, int]:
    shape = param.shape
    if len(shape) == 2:                       # Linear: (out, in)
        return shape[1], shape[0]
    if len(shape) == 4:                       # Conv: (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"cannot infer fans for shape {shape}")


def kaiming_uniform_(param: Parameter,
                     rng: Optional[np.random.Generator] = None) -> None:
    """He/Kaiming uniform: U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
    fan_in, _ = _fan_in_out(param)
    bound = math.sqrt(6.0 / fan_in)
    param.data = rng.uniform(-bound, bound, size=param.shape).astype(
        param.dtype)


def kaiming_normal_(param: Parameter,
                    rng: Optional[np.random.Generator] = None) -> None:
    """He/Kaiming normal: N(0, 2/fan_in)."""
    rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
    fan_in, _ = _fan_in_out(param)
    std = math.sqrt(2.0 / fan_in)
    param.data = (rng.standard_normal(param.shape) * std).astype(param.dtype)


def xavier_uniform_(param: Parameter,
                    rng: Optional[np.random.Generator] = None) -> None:
    """Glorot uniform: U(+-sqrt(6/(fan_in+fan_out)))."""
    rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
    fan_in, fan_out = _fan_in_out(param)
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    param.data = rng.uniform(-bound, bound, size=param.shape).astype(
        param.dtype)


def xavier_normal_(param: Parameter,
                   rng: Optional[np.random.Generator] = None) -> None:
    """Glorot normal: N(0, 2/(fan_in+fan_out))."""
    rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
    fan_in, fan_out = _fan_in_out(param)
    std = math.sqrt(2.0 / (fan_in + fan_out))
    param.data = (rng.standard_normal(param.shape) * std).astype(param.dtype)


def orthogonal_(param: Parameter,
                rng: Optional[np.random.Generator] = None,
                gain: float = 1.0) -> None:
    """Orthogonal init (QR of a Gaussian matrix), gain-scaled."""
    rng = rng or np.random.default_rng(DEFAULT_INIT_SEED)
    shape = param.shape
    flat = (shape[0], int(np.prod(shape[1:])))
    a = rng.standard_normal(flat)
    q, r = np.linalg.qr(a.T if flat[0] < flat[1] else a)
    q = q.T if flat[0] < flat[1] else q
    q = q[:flat[0], :flat[1]]
    # sign-correct so the distribution is uniform over orthogonal matrices
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d[:q.shape[1]][None, :] if q.shape[1] == len(d) else q
    param.data = (gain * q.reshape(shape)).astype(param.dtype)


def zeros_(param: Parameter) -> None:
    """Zero init — for 'identity-start' residual/adaptor projections."""
    param.data = np.zeros(param.shape, dtype=param.dtype)


def constant_(param: Parameter, value: float) -> None:
    param.data = np.full(param.shape, value, dtype=param.dtype)
