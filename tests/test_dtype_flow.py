"""Pins the float dtype flow through the training substrate: float32 end to end.

Parameters, inputs and the tensor factories are float32 (``DEFAULT_DTYPE``).
A Python scalar that meets a floating tensor takes its dtype, as under
NumPy's weak-scalar rule, so ``Tensor.mean`` (``* (1 / count)``), ``x + eps``
and training-mode ``BatchNorm2d`` stay float32, and a float64 tensor stays
float64 (nothing is downcast).  N:M pruning keeps the weights' dtype, a mask
takes the saliency's floating dtype, and an Adam step keeps float32 weights
float32, so every Table 1 convolution runs float32 input against float32
weights.

A change to this flow moves Table 1 cells: it must regenerate
``results/table1_fast.json`` (which perfbench's ``train-table1`` accuracy
check reads) and ``results/table1_full.log``.
"""

import dataclasses

import numpy as np
import pytest

from repro.harness import table1
from repro.nn import functional as F
from repro.nn.modules import BatchNorm2d, Parameter
from repro.nn.optim import Adam
from repro.nn.tensor import DEFAULT_DTYPE, Tensor, ones, zeros
from repro.repnet.model import build_repnet_model
from repro.sparsity import NMPattern, apply_nm_mask, compute_nm_mask, prune_model

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _x(dtype):
    data = np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(dtype)
    return Tensor(data, requires_grad=True)


def test_default_dtype_is_float32():
    assert DEFAULT_DTYPE == np.float32
    assert zeros((2, 2)).dtype == F32 and ones((2, 2)).dtype == F32
    assert Parameter(np.zeros(3)).dtype == F32


@pytest.mark.parametrize("dtype", [F32, F64])
def test_scalar_ops_keep_the_tensor_dtype(dtype):
    x = _x(dtype)
    results = [x.mean(), x.mean(axis=(0, 2, 3)), x + 1e-5, 1e-5 + x,
               x - 1, 1 - x, x * 2.0, 2.0 * x, x / 3, 3 / x, x * True,
               (x * x) ** 0.5, x.relu(), x.var(axis=0), x.max(axis=1)]
    assert {r.dtype for r in results} == {dtype}
    sum(r.sum() for r in results).backward()
    assert x.grad.dtype == dtype


def test_numpy_scalars_and_arrays_still_promote():
    # The weak rule covers Python scalars only, as in NumPy: a float64
    # array or numpy scalar is strong and promotes a float32 tensor.
    x = _x(F32)
    assert (x + np.float64(1.0)).dtype == F64
    assert (x * np.ones(4)).dtype == F64


def test_batchnorm_float32_in_train_and_eval():
    x = _x(F32)
    bn = BatchNorm2d(3)
    assert bn.weight.dtype == F32
    out = bn.train()(x)
    assert out.dtype == F32
    assert bn.running_mean.dtype == F32 and bn.running_var.dtype == F32
    out.sum().backward()
    assert x.grad.dtype == F32
    assert {bn.weight.grad.dtype, bn.bias.grad.dtype} == {F32}
    assert bn.eval()(x).dtype == F32


def test_adam_step_keeps_float32_weights():
    w = Parameter(np.random.default_rng(1).standard_normal((4, 8)))
    w.grad = np.random.default_rng(2).standard_normal((4, 8)).astype(np.float32)
    opt = Adam([w], lr=1e-2, weight_decay=1e-4)
    opt.set_mask(w, compute_nm_mask(np.abs(w.data), NMPattern(1, 4)))
    for _ in range(2):
        opt.step()
    assert w.dtype == F32
    assert opt._m[id(w)].dtype == F32 and opt._v[id(w)].dtype == F32


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int8])
def test_nm_pruning_keeps_the_dtype(dtype):
    weights = (np.arange(32).reshape(4, 8) - 16).astype(dtype)
    mask = compute_nm_mask(np.abs(weights), NMPattern(1, 4))
    pruned = apply_nm_mask(weights, mask)
    assert pruned.dtype == dtype
    np.testing.assert_array_equal(pruned, weights * (mask != 0))


@pytest.mark.parametrize("saliency, mask", [
    (np.float32, np.float32), (np.float64, np.float64),
    (np.float16, np.float16), (np.int8, np.float64), (np.int64, np.float64)])
@pytest.mark.parametrize("shape", [(4, 8), (2, 2, 2, 4)])
def test_nm_mask_takes_the_saliency_floating_dtype(saliency, mask, shape):
    scores = np.arange(32).reshape(shape).astype(saliency)
    got = compute_nm_mask(scores, NMPattern(1, 4))
    assert got.dtype == np.dtype(mask)
    np.testing.assert_array_equal(
        got, compute_nm_mask(scores.astype(np.float64), NMPattern(1, 4)))


def test_prune_model_keeps_float32_parameters():
    model = build_repnet_model(widths=(8, 8, 16, 16, 16, 16), repnet_width=4,
                               seed=0)
    masks = prune_model(model.backbone, NMPattern(1, 4))
    assert masks
    assert {m.dtype for m in masks.values()} == {F32}
    assert {p.dtype for p in model.parameters()} == {F32}


def _conv_dtypes(monkeypatch):
    """Record ``(input dtype, weight dtype)`` of every ``conv2d`` call."""
    seen = []
    conv2d = F.conv2d

    def recording(inp, weight, *args, **kwargs):
        seen.append((inp.dtype, weight.dtype))
        return conv2d(inp, weight, *args, **kwargs)

    monkeypatch.setattr(F, "conv2d", recording)
    return seen


def _model():
    model = build_repnet_model(widths=(8, 8, 16, 16, 16, 16), repnet_width=4, seed=0)
    model.add_task("t", 5)
    model.set_active_task("t")
    return model


def test_pretraining_keeps_convs_and_weights_float32(monkeypatch):
    seen = _conv_dtypes(monkeypatch)
    model = _model().train()
    logits = model(Tensor(np.zeros((2, 3, 16, 16), np.float32)))
    assert logits.dtype == F32
    assert seen and set(seen) == {(F32, F32)}

    params = model.parameters()
    F.cross_entropy(logits, np.array([0, 1])).backward()
    assert {p.grad.dtype for p in params if p.grad is not None} == {F32}
    Adam(params, lr=1e-2).step()
    assert {p.dtype for p in params} == {F32}


def test_frozen_backbone_keeps_repnet_path_float32(monkeypatch):
    seen = _conv_dtypes(monkeypatch)
    model = _model()
    model.freeze_backbone()
    model.train()
    logits = model(Tensor(np.zeros((2, 3, 16, 16), np.float32)))
    assert logits.dtype == F32
    assert set(seen) == {(F32, F32)}
    F.cross_entropy(logits, np.array([0, 1])).backward()
    assert {p.grad.dtype for p in model.learnable_parameters()} == {F32}


def test_tiny_table1_runs_every_conv_in_float32(monkeypatch):
    """Pre-training, recovery, the dense row and the sparse INT8 rows of a
    tiny Table 1 (perfbench's ``--small`` budget): every convolution sees
    float32 input and float32 weights, and every parameter ends float32."""
    seen = _conv_dtypes(monkeypatch)
    params = []
    init = Parameter.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        params.append(self)

    monkeypatch.setattr(Parameter, "__init__", recording_init)
    config = dataclasses.replace(
        table1.Table1Config.fast(), base_train_per_class=4,
        base_test_per_class=2, pretrain_epochs=1, recovery_epochs=1,
        task_scale=0.1, task_epochs=1, tasks=("pets",))
    result = table1.run_table1(config)

    assert [row["precision"] for row in result["rows"]] == \
        ["FP32", "FP32", "INT8", "FP32", "INT8"]
    assert seen and set(seen) == {(F32, F32)}
    assert params and {p.dtype for p in params} == {F32}
