"""Tests for read-fault injection and the robustness study."""

import numpy as np
import pytest

from repro.core.fault_injection import gemm_error_study, inject_weight_bit_flips
from repro.sparsity import NMPattern, verify_nm

from .test_csc import sparse_int_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestInjection:
    def test_zero_ber_identity(self, rng):
        w = rng.integers(-100, 100, size=(16, 4))
        out = inject_weight_bit_flips(w, 0.0)
        np.testing.assert_array_equal(out, w)

    def test_values_stay_in_range(self, rng):
        w = rng.integers(-128, 128, size=(32, 8))
        out = inject_weight_bit_flips(w, 0.3, rng)
        assert out.min() >= -128 and out.max() <= 127

    def test_flips_restricted_to_support(self, rng):
        """Zeros are not stored in the sparse arrays -> they cannot flip."""
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (32, 4), pattern)
        out = inject_weight_bit_flips(w, 0.5, rng)
        assert (out[w == 0] == 0).all()
        assert verify_nm(out, pattern, axis=0)

    def test_high_ber_changes_values(self, rng):
        w = rng.integers(1, 100, size=(64, 4))
        out = inject_weight_bit_flips(w, 0.5, rng)
        assert (out != w).any()

    def test_flip_rate_statistics(self, rng):
        """Observed per-bit flip rate matches the requested BER."""
        w = np.full((100, 100), 1, dtype=np.int64)
        ber = 0.1
        out = inject_weight_bit_flips(w, ber, rng)
        # each weight has 8 bits each flipped w.p. 0.1; P(value unchanged)
        # = 0.9^8 ~ 0.43
        unchanged = (out == w).mean()
        assert unchanged == pytest.approx(0.9 ** 8, abs=0.03)

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            inject_weight_bit_flips(np.ones((2, 2), dtype=int), 1.5)
        with pytest.raises(TypeError):
            inject_weight_bit_flips(np.ones((2, 2)), 0.1)


class TestErrorStudy:
    def test_monotone_degradation(self, rng):
        pattern = NMPattern(2, 8)
        w = sparse_int_matrix(rng, (64, 8), pattern)
        x = rng.integers(-32, 32, size=(4, 64))
        study = gemm_error_study(w, x, pattern,
                                 bers=[0.0, 1e-3, 1e-2, 1e-1],
                                 trials=3, rng=rng)
        errors = [r["mean_rel_error"] for r in study]
        assert errors[0] == 0.0
        assert errors[-1] > errors[1]

    def test_realistic_ber_negligible(self, rng):
        """At the sensing model's nominal BER (~1e-6) outputs are clean."""
        pattern = NMPattern(1, 4)
        w = sparse_int_matrix(rng, (64, 8), pattern)
        x = rng.integers(-32, 32, size=(4, 64))
        study = gemm_error_study(w, x, pattern, bers=[1e-6], trials=5,
                                 rng=rng)
        assert study[0]["max_rel_error"] < 0.05
