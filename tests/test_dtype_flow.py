"""Pins today's float dtype flow through the training substrate.

Parameters and inputs are float32 (``DEFAULT_DTYPE``), but a Python scalar
that reaches an op through ``_as_array`` becomes a 0-d float64 array, which
NumPy 2 promotes as a strong type.  ``Tensor.mean`` (``* (1 / count)``),
``x + eps`` and so training-mode ``BatchNorm2d`` therefore return float64 for
float32 input; eval-mode ``BatchNorm2d`` stays float32.  Pre-training and
recovery (every BN in training mode) run the convs after the stems in float64,
and their first Adam step turns the float32 weights into float64 (a float32
weight minus a float64 update).  The Rep-Net variants start from that float64
backbone state, so their convs run in float64 too; a float32 backbone would
keep them float32.

This is a record, not an endorsement: keeping training in float32 is an open
decision (ROADMAP).  A change that fixes the promotion must update these
assertions and regenerate ``results/table1_fast.json`` (which perfbench's
``train-table1`` accuracy check reads) and ``results/table1_full.log``.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.modules import BatchNorm2d
from repro.nn.optim import Adam
from repro.nn.tensor import DEFAULT_DTYPE, Tensor, _as_array
from repro.repnet.model import build_repnet_model

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


@pytest.fixture
def x32():
    return Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32),
                  requires_grad=True)


def test_python_scalar_becomes_strong_float64():
    eps = _as_array(1e-5)
    assert eps.dtype == F64 and eps.ndim == 0
    assert DEFAULT_DTYPE == np.float32


def test_scalar_ops_promote_float32(x32):
    assert x32.mean().dtype == F64
    assert x32.mean(axis=(0, 2, 3)).dtype == F64
    assert (x32 + 1e-5).dtype == F64
    assert (x32 * 2.0).dtype == F64
    # ``**`` hands numpy the bare Python exponent, which stays weak.
    assert ((x32 * x32) ** 0.5).dtype == F32
    assert x32.relu().dtype == F32


def test_batchnorm_train_float64_eval_float32(x32):
    bn = BatchNorm2d(3)
    assert bn.weight.dtype == F32
    assert bn.train()(x32).dtype == F64
    assert bn.eval()(x32).dtype == F32


def _conv_input_dtypes(monkeypatch, model, x):
    seen = []
    conv2d = F.conv2d

    def recording(inp, weight, *args, **kwargs):
        seen.append(inp.dtype)
        return conv2d(inp, weight, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(F, "conv2d", recording)
        logits = model(x)
    return logits, seen


def _model():
    model = build_repnet_model(widths=(8, 8, 16, 16, 16, 16), repnet_width=4, seed=0)
    model.add_task("t", 5)
    model.set_active_task("t")
    return model


def test_pretraining_turns_weights_float64(monkeypatch):
    model = _model().train()
    x = Tensor(np.zeros((2, 3, 16, 16), np.float32))
    logits, seen = _conv_input_dtypes(monkeypatch, model, x)
    assert logits.dtype == F64
    # Only the backbone stem and the Rep-Net stem read the raw float32 input.
    assert seen.count(F32) == 2
    assert seen.count(F64) == len(seen) - 2

    params = model.parameters()
    F.cross_entropy(logits, np.array([0, 1])).backward()
    Adam(params, lr=1e-2).step()
    # float32 weight - float64 update: the backbone state that pre-training
    # and recovery hand to every Rep-Net variant is float64.
    assert {p.dtype for p in model.backbone.parameters()} == {F64}


def test_frozen_float32_backbone_keeps_repnet_convs_float32(monkeypatch):
    model = _model()
    model.freeze_backbone()
    model.train()
    x = Tensor(np.zeros((2, 3, 16, 16), np.float32))
    logits, seen = _conv_input_dtypes(monkeypatch, model, x)
    assert logits.dtype == F64                 # global average pool is a mean
    assert set(seen) == {F32}                  # frozen BN runs in eval mode
    F.cross_entropy(logits, np.array([0, 1])).backward()
    grads = {p.grad.dtype for mod in model.learnable_modules()[:-1]
             for p in mod.parameters()}
    assert grads == {F32}
    assert {p.grad.dtype for p in model.head().parameters()} == {F64}
