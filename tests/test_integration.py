"""Cross-module integration tests: algorithm stack -> hardware stack.

These tests exercise the seams the paper's system lives on: a network
trained with the numpy substrate is pruned, quantized, mapped onto the
functional PE simulators, and executed there — with the hardware-path
results checked against the software reference.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (HybridAccelerator, HybridMapper,
                        HybridSparseDesign, extract_repnet_workload)
from repro.nn import functional as F
from repro.nn.functional import im2col
from repro.nn.tensor import Tensor
from repro.quant import QuantParams, quantize_weight_int
from repro.repnet import build_repnet_model
from repro.sparsity import NMPattern, compute_nm_mask

from .nn_helpers import ReLU, Sequential, set_seed


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestConvOnAccelerator:
    """A conv layer lowered by im2col runs bit-consistently on the PEs."""

    def test_conv_gemm_matches_software(self, rng):
        pattern = NMPattern(2, 8)
        set_seed(0)
        conv = nn.Conv2d(8, 16, 3, padding=1, bias=False)

        # Prune + quantize the kernel in its GEMM view (in=72, out=16).
        wmat = conv.weight.data.reshape(16, -1).T.astype(np.float64)   # (72, 16)
        mask = compute_nm_mask(np.abs(wmat), pattern, axis=0)
        w_int, params = quantize_weight_int(wmat * mask)
        w_int = (w_int * mask).astype(np.int64)

        acc = HybridAccelerator(pattern)
        acc.load_gemm("conv", w_int, learnable=False)

        x = rng.standard_normal((2, 8, 6, 6)).astype(np.float32)
        cols = im2col(x.astype(np.float64), 3, 3, 1, 1)     # (2*36, 72)
        aparams = QuantParams.from_tensor(cols)
        cols_int = aparams.quantize(cols)

        y_hw = acc.gemm("conv", cols_int)
        y_sw = cols_int @ w_int
        np.testing.assert_array_equal(y_hw, y_sw)

        # And the dequantized hardware output tracks the float conv of the
        # pruned+quantized kernel.
        y_float = y_hw * (aparams.scale * params.scale)
        conv.weight.data = (w_int * params.scale).T.reshape(
            conv.weight.shape).astype(np.float32)
        ref = F.conv2d(Tensor(x), conv.weight, stride=1, padding=1)
        ref_flat = ref.data.transpose(0, 2, 3, 1).reshape(-1, 16)
        err = np.abs(y_float - ref_flat).max()
        assert err < 0.05 * np.abs(ref_flat).max() + 0.05


class TestClassifierOnAccelerator:
    """A trained sparse INT8 classifier evaluated entirely on the PEs."""

    def test_hardware_predictions_match_integer_reference(self, rng):
        pattern = NMPattern(2, 8)
        # Train a small 2-layer MLP on separable data.
        X = rng.standard_normal((120, 32)).astype(np.float32)
        W_true = rng.standard_normal((32, 4))
        y = (X.astype(np.float64) @ W_true).argmax(axis=1)

        set_seed(1)
        model = Sequential(nn.Linear(32, 24), ReLU(), nn.Linear(24, 4))
        opt = nn.Adam(model.parameters(), lr=0.02)
        for _ in range(60):
            loss = F.cross_entropy(model(Tensor(X)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert F.accuracy(model(Tensor(X)), y) > 0.9

        # Prune (mask pinned), then briefly fine-tune the masked weights —
        # the paper's recipe — before quantizing and mapping.
        masks = {}
        for layer in (model.layers[0], model.layers[2]):
            mask_t = compute_nm_mask(np.abs(layer.weight.data.T), pattern,
                                     axis=0).T
            layer.weight.data = layer.weight.data * mask_t
            masks[id(layer)] = mask_t
        opt = nn.Adam(model.parameters(), lr=0.01)
        for layer in (model.layers[0], model.layers[2]):
            opt.set_mask(layer.weight, masks[id(layer)])
        for _ in range(40):
            loss = F.cross_entropy(model(Tensor(X)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()

        acc = HybridAccelerator(pattern)
        quant = {}
        for name, layer in (("fc1", model.layers[0]), ("fc2", model.layers[2])):
            w = layer.weight.data.T.astype(np.float64)     # (in, out)
            mask = masks[id(layer)].T
            w_int, p = quantize_weight_int(w)
            acc.load_gemm(name, (w_int * mask).astype(np.int64),
                          learnable=True)
            quant[name] = p

        # Hardware inference: quantize activations per layer, gemm, ReLU.
        b1 = model.layers[0].bias.data
        a1 = QuantParams.from_tensor(X)
        h_int = acc.gemm("fc1", a1.quantize(X))
        h = np.maximum(h_int * (a1.scale * quant["fc1"].scale) + b1, 0.0)
        a2 = QuantParams.from_tensor(h)
        logits_int = acc.gemm("fc2", a2.quantize(h))

        # Integer reference of the exact same pipeline.
        ref1 = a1.quantize(X) @ acc.dense_weight("fc1")
        refh = np.maximum(ref1 * (a1.scale * quant["fc1"].scale) + b1, 0.0)
        ref2 = a2.quantize(refh) @ acc.dense_weight("fc2")
        np.testing.assert_array_equal(logits_int, ref2)

        # The hardware-evaluated model still classifies well.
        hw_acc = (logits_int.argmax(axis=1) == y).mean()
        assert hw_acc > 0.8


class TestWorkloadToSchedule:
    """Model -> workload -> mapping -> analytical design is self-consistent."""

    def test_end_to_end_pipeline(self):
        model = build_repnet_model(widths=(8, 16), strides=(1, 2),
                                   repnet_width=4, seed=0)
        model.add_task("t", 5)
        workload = extract_repnet_workload(model, 16)
        pattern = NMPattern(1, 4)

        plan = HybridMapper(pattern).map_workload(workload)
        kinds = {t.layer: t.kind for t in plan.tiles}
        # every layer is mapped, frozen -> MRAM and learnable -> SRAM
        assert set(kinds) == {l.name for l in workload.layers}
        for layer in workload.layers:
            assert kinds[layer.name] == ("sram" if layer.learnable else "mram")
        assert plan.mram_pes_used > 0 and plan.sram_pes_used > 0

        design = HybridSparseDesign(pattern)
        inf = design.inference(workload)
        learn = design.training_step(workload, batch=1)
        step = design.training_step(workload, batch=1, include_forward=True)
        assert inf.latency_s > 0 and inf.energy_j > 0
        # inference writes nothing; learning writes only SRAM weights
        assert inf.energy.write_pj == 0
        assert learn.energy.write_pj > 0
        # a full step is the forward pass followed by the learning phase
        assert step.latency_s == pytest.approx(inf.latency_s + learn.latency_s)

    def test_storage_consistency_with_designs(self):
        """Mapper storage and the analytical design agree on compression."""
        from repro.core import HybridSparseDesign, paper_workload
        w = paper_workload()
        pattern = NMPattern(1, 4)
        mapper_bytes = HybridMapper(pattern).storage_report(w)
        design_bits = HybridSparseDesign(pattern).backbone_compressed_bits(w)
        # mapper includes padding slack; design is the tight bound
        assert mapper_bytes["mram_bytes"] * 8 >= design_bits
        assert mapper_bytes["mram_bytes"] * 8 < design_bits * 1.15
