"""INT8 quantization: quant params, post-training quantization (PTQ) and
integer weight extraction."""

from .int8 import (INT8_QMAX, INT8_QMIN, QuantParams,
                   fake_quantize_per_channel, quantize_model_ptq,
                   quantize_weight_int)

__all__ = [
    "QuantParams", "quantize_weight_int",
    "fake_quantize_per_channel", "quantize_model_ptq",
    "INT8_QMIN", "INT8_QMAX",
]
