"""Unit tests for INT8 quantization."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor
from repro.quant import (INT8_QMAX, INT8_QMIN, QuantParams,
                         fake_quantize_per_channel, quantize_model_ptq,
                         quantize_weight_int)

from .nn_helpers import ReLU, Sequential, set_seed


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestQuantParams:
    def test_roundtrip_error_bound(self, rng):
        x = rng.standard_normal(1000)
        params = QuantParams.from_tensor(x)
        err = np.abs(params.fake_quantize(x) - x)
        assert err.max() <= params.scale / 2 + 1e-12

    def test_symmetric_zero_maps_to_zero(self, rng):
        x = rng.standard_normal(100)
        params = QuantParams.from_tensor(x, symmetric=True)
        assert params.quantize(np.zeros(1))[0] == 0
        assert params.dequantize(np.zeros(1, dtype=int))[0] == 0.0

    def test_clipping(self):
        params = QuantParams(scale=1.0)
        q = params.quantize(np.array([500.0, -500.0]))
        assert q[0] == INT8_QMAX and q[1] == INT8_QMIN

    def test_affine_range(self):
        params = QuantParams.from_range(0.0, 10.0, symmetric=False)
        q = params.quantize(np.array([0.0, 10.0]))
        assert q[0] == INT8_QMIN
        assert q[1] == INT8_QMAX

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            QuantParams(scale=0.0)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            QuantParams.from_range(2.0, 1.0)

    def test_empty_tensor(self):
        with pytest.raises(ValueError):
            QuantParams.from_tensor(np.zeros(0))


DISTRIBUTIONS = {
    "normal": lambda r: r.standard_normal(500),
    "positive": lambda r: r.uniform(0.5, 3.0, 500),
    "negative": lambda r: -r.exponential(2.0, 500),
    "long_tail": lambda r: r.standard_t(2, 500) * 10.0,
}


class TestCalibrationRange:
    """``from_tensor`` sets the grid from the tensor's observed extremes."""

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_affine_grid_spans_observed_range(self, dist):
        x = DISTRIBUTIONS[dist](np.random.default_rng(5))
        params = QuantParams.from_tensor(x, symmetric=False)
        q = params.quantize(x)
        assert q[np.argmin(x)] == INT8_QMIN
        assert q[np.argmax(x)] == INT8_QMAX
        err = np.abs(params.fake_quantize(x) - x)
        assert err.max() <= params.scale / 2 + 1e-9

    @pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
    def test_symmetric_grid_spans_largest_magnitude(self, dist):
        x = DISTRIBUTIONS[dist](np.random.default_rng(6))
        params = QuantParams.from_tensor(x, symmetric=True)
        assert params.zero_point == 0
        assert params.scale == pytest.approx(np.abs(x).max() / INT8_QMAX)
        q = params.quantize(x)
        assert np.abs(q).max() == INT8_QMAX
        err = np.abs(params.fake_quantize(x) - x)
        assert err.max() <= params.scale / 2 + 1e-9


class TestWeightQuant:
    def test_integer_extraction_preserves_zeros(self, rng):
        w = rng.standard_normal((8, 8))
        w[::2] = 0.0
        q, params = quantize_weight_int(w)
        assert (q[::2] == 0).all()
        assert np.issubdtype(q.dtype, np.integer)

    def test_range_within_int8(self, rng):
        q, _ = quantize_weight_int(rng.standard_normal((100,)) * 50)
        assert q.min() >= INT8_QMIN and q.max() <= INT8_QMAX

    def test_per_channel_tighter_than_per_tensor(self, rng):
        # channel 0 tiny, channel 1 huge: per-channel wins
        w = np.stack([rng.standard_normal(64) * 0.01,
                      rng.standard_normal(64) * 10.0])
        pc = fake_quantize_per_channel(w, axis=0)
        params = QuantParams.from_tensor(w)
        pt = params.fake_quantize(w)
        assert np.abs(pc[0] - w[0]).max() < np.abs(pt[0] - w[0]).max()


class TestModelPTQ:
    def _model(self):
        set_seed(0)
        return Sequential(nn.Linear(8, 16), ReLU(), nn.Linear(16, 4))

    def test_weights_land_on_grid(self):
        model = self._model()
        quantize_model_ptq(model, per_channel=False)
        for _, mod in model.named_modules():
            if isinstance(mod, nn.Linear):
                w = mod.weight.data
                params = QuantParams.from_tensor(w)
                np.testing.assert_allclose(w, params.fake_quantize(w),
                                           atol=params.scale / 2)

    def test_outputs_close_to_fp32(self, rng):
        model = self._model()
        x = Tensor(rng.standard_normal((10, 8)))
        ref = model(x).data.copy()
        quantize_model_ptq(model)
        out = model(x).data
        # INT8 per-channel PTQ should track FP32 closely on a small model
        assert np.abs(out - ref).max() < 0.1 * (np.abs(ref).max() + 1)

    def test_trainable_only_skips_frozen(self):
        model = self._model()
        model.layers[0].weight.freeze()
        before = model.layers[0].weight.data.copy()
        report = quantize_model_ptq(model, trainable_only=True)
        np.testing.assert_array_equal(model.layers[0].weight.data, before)
        assert "layer0.weight" not in report

    def test_report_names(self):
        model = self._model()
        report = quantize_model_ptq(model)
        assert set(report) == {"layer0.weight", "layer2.weight"}
