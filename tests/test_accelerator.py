"""Integration tests for the top-level HybridAccelerator functional model."""

import re

import numpy as np
import pytest

from repro.core.accelerator import HybridAccelerator
from repro.quant import QuantParams
from repro.sparsity import NMPattern

from .test_csc import sparse_int_matrix


@pytest.fixture
def rng():
    return np.random.default_rng(66)


@pytest.fixture
def acc():
    return HybridAccelerator(NMPattern(2, 8))


class TestLoading:
    def test_frozen_goes_to_mram(self, acc, rng):
        w = sparse_int_matrix(rng, (64, 8), acc.pattern)
        mapped = acc.load_gemm("bb", w, learnable=False)
        assert mapped.kind == "mram"

    def test_learnable_goes_to_sram(self, acc, rng):
        w = sparse_int_matrix(rng, (64, 8), acc.pattern)
        mapped = acc.load_gemm("rep", w, learnable=True)
        assert mapped.kind == "sram"

    def test_duplicate_name_rejected(self, acc, rng):
        w = sparse_int_matrix(rng, (16, 4), acc.pattern)
        acc.load_gemm("x", w, learnable=True)
        with pytest.raises(ValueError):
            acc.load_gemm("x", w, learnable=True)

    def test_float_rejected_on_int_path(self, acc, rng):
        with pytest.raises(TypeError):
            acc.load_gemm("f", rng.standard_normal((16, 4)), learnable=True)

    def test_pattern_violation_rejected(self, acc, rng):
        dense = rng.integers(1, 5, size=(16, 4))
        with pytest.raises(ValueError):
            acc.load_gemm("d", dense, learnable=True)

    def test_auto_prune(self, acc, rng):
        dense = rng.integers(-50, 50, size=(32, 4))
        acc.load_gemm("d", dense, learnable=True, auto_prune=True)
        from repro.sparsity import verify_nm
        assert verify_nm(acc.dense_weight("d"), acc.pattern, axis=0)

    def test_large_matrix_tiles_across_pes(self, acc, rng):
        w = sparse_int_matrix(rng, (512, 64), acc.pattern)  # >1 SRAM PE
        mapped = acc.load_gemm("big", w, learnable=True)
        assert mapped.pe_count > 1
        np.testing.assert_array_equal(acc.dense_weight("big"), w)


class TestExecution:
    def test_gemm_exact_small(self, acc, rng):
        w = sparse_int_matrix(rng, (64, 12), acc.pattern)
        acc.load_gemm("l", w, learnable=True)
        x = rng.integers(-128, 128, size=(5, 64))
        np.testing.assert_array_equal(acc.gemm("l", x), x @ w)

    def test_gemm_exact_tiled(self, acc, rng):
        """Multi-tile GEMMs recombine row/column partials exactly."""
        w = sparse_int_matrix(rng, (300, 40), acc.pattern)
        acc.load_gemm("l", w, learnable=False)
        x = rng.integers(-64, 64, size=(3, 300))
        np.testing.assert_array_equal(acc.gemm("l", x), x @ w)

    @pytest.mark.parametrize("learnable", [False, True])
    def test_gemm_input_range_edges(self, acc, rng, learnable):
        """Frozen (MRAM) and learnable (SRAM) layers accept exactly the
        signed INT8 activation range and reject one step outside it."""
        w = sparse_int_matrix(rng, (64, 8), acc.pattern)
        acc.load_gemm("l", w, learnable=learnable)
        for value in (-128, 127):
            x = np.full((3, 64), value, dtype=np.int64)
            np.testing.assert_array_equal(acc.gemm("l", x), x @ w)
        for value in (-129, 128):
            x = np.full((3, 64), value, dtype=np.int64)
            with pytest.raises(ValueError, match=re.escape(
                    "values outside signed 8-bit range [-128, 127]")):
                acc.gemm("l", x)

    def test_unknown_gemm(self, acc, rng):
        with pytest.raises(KeyError):
            acc.gemm("nope", rng.integers(0, 2, size=(1, 8)))

    def test_dim_mismatch(self, acc, rng):
        w = sparse_int_matrix(rng, (32, 4), acc.pattern)
        acc.load_gemm("l", w, learnable=True)
        with pytest.raises(ValueError):
            acc.gemm("l", rng.integers(0, 2, size=(1, 16)))

    def test_float_linear_tracks_reference(self, acc, rng):
        w = rng.standard_normal((64, 8)) * 0.2
        mapped, params = acc.load_float_gemm("fc", w, learnable=True)
        x = rng.standard_normal((4, 64))
        y = acc.linear("fc", x)
        ref = x @ (acc.dense_weight("fc") * params.scale)
        # INT8 activation quantization error only
        assert np.abs(y - ref).max() < 0.1 * np.abs(ref).max() + 0.1

    def test_linear_with_pinned_input_params(self, acc, rng):
        w = rng.standard_normal((32, 4))
        acc.load_float_gemm("fc", w, learnable=True)
        x = rng.standard_normal((2, 32))
        pinned = QuantParams.from_range(-4.0, 4.0)
        y = acc.linear("fc", x, input_params=pinned)
        assert np.isfinite(y).all()

    def test_linear_requires_float_load(self, acc, rng):
        w = sparse_int_matrix(rng, (16, 2), acc.pattern)
        acc.load_gemm("raw", w, learnable=True)
        with pytest.raises(RuntimeError):
            acc.linear("raw", rng.standard_normal((1, 16)))


class TestTraining:
    def test_update_learnable(self, acc, rng):
        w1 = sparse_int_matrix(rng, (64, 8), acc.pattern)
        w2 = sparse_int_matrix(rng, (64, 8), acc.pattern, lo=-60, hi=61)
        acc.load_gemm("rep", w1, learnable=True)
        acc.update_gemm("rep", w2)
        x = rng.integers(-8, 8, size=(2, 64))
        np.testing.assert_array_equal(acc.gemm("rep", x), x @ w2)

    def test_update_frozen_forbidden(self, acc, rng):
        """The hybrid design never writes the MRAM backbone during learning."""
        w = sparse_int_matrix(rng, (64, 8), acc.pattern)
        acc.load_gemm("bb", w, learnable=False)
        with pytest.raises(RuntimeError):
            acc.update_gemm("bb", w)

    def test_update_must_keep_pattern(self, acc, rng):
        w = sparse_int_matrix(rng, (16, 4), acc.pattern)
        acc.load_gemm("rep", w, learnable=True)
        with pytest.raises(ValueError):
            acc.update_gemm("rep", np.ones((16, 4), dtype=np.int64))

    @pytest.mark.parametrize("bad", ["out-of-range", "float"])
    def test_rejected_update_leaves_gemm_untouched(self, rng, bad):
        """A bad value in the last tile is caught before the first tile is
        rewritten: weights and every counter stay as they were."""
        acc = HybridAccelerator(NMPattern(1, 4))
        w1 = sparse_int_matrix(rng, (512, 64), acc.pattern)
        mapped = acc.load_gemm("rep", w1, learnable=True)
        assert mapped.pe_count == 8
        before = {k: s.as_dict() for k, s in acc.stats().items()}
        w2 = sparse_int_matrix(rng, (512, 64), acc.pattern, lo=-60, hi=61)
        r, c, _ = mapped.tiles[-1]
        rows, cols = np.nonzero(w2[r:, c:])
        if bad == "out-of-range":
            w2[r + rows[-1], c + cols[-1]] = 300
            error = ValueError
        else:
            w2 = w2.astype(np.float64)
            error = TypeError
        with pytest.raises(error):
            acc.update_gemm("rep", w2)
        np.testing.assert_array_equal(acc.dense_weight("rep"), w1)
        assert {k: s.as_dict() for k, s in acc.stats().items()} == before

    def test_backprop_through_learnable(self, acc, rng):
        w = sparse_int_matrix(rng, (64, 8), acc.pattern)
        acc.load_gemm("rep", w, learnable=True)
        delta = rng.integers(-20, 20, size=(4, 8))
        np.testing.assert_array_equal(acc.propagate_error("rep", delta),
                                      delta @ w.T)
        acts = rng.integers(-10, 10, size=(4, 64))
        np.testing.assert_array_equal(
            acc.weight_gradient("rep", acts, delta), acts.T @ delta)

    def test_backprop_through_frozen_forbidden(self, acc, rng):
        w = sparse_int_matrix(rng, (32, 4), acc.pattern)
        acc.load_gemm("bb", w, learnable=False)
        with pytest.raises(RuntimeError):
            acc.propagate_error("bb", rng.integers(0, 2, size=(1, 4)))



def reload_propagate_error(acc, name, delta):
    """The reload-everything oracle for ``propagate_error``: fresh buffers
    on every call, one for ``W^T`` when its non-zeros fit one SRAM PE,
    else one per forward tile."""
    mapped = acc.gemms[name]
    w = acc.dense_weight(name)
    if np.count_nonzero(w) <= acc.sram_config.pair_capacity:
        return acc.backprop.propagate_error(w, delta, acc.pattern)
    out = np.zeros((delta.shape[0], mapped.in_dim), dtype=np.int64)
    for r, c, pe in mapped.tiles:
        rows, cols = pe.csc.shape
        out[:, r:r + rows] += acc.backprop.propagate_error(
            w[r:r + rows, c:c + cols], delta[:, c:c + cols], acc.pattern)
    return out


class TestErrorPropagationAcrossBuffers:
    """``W^T`` of a learnable GEMM with more non-zeros than one SRAM PE
    holds is split over one resident buffer per forward tile."""

    @pytest.mark.parametrize("shape, tiles", [((256, 32), 2),
                                              ((256, 48), 4)],
                             ids=["256x32", "256x48"])
    def test_matches_reference_and_reload_oracle(self, rng, shape, tiles):
        pattern = NMPattern(1, 4)
        acc, oracle = HybridAccelerator(pattern), HybridAccelerator(pattern)

        def full():
            """Exactly ``n`` non-zeros per group: ``in*out/4`` in all."""
            signs = rng.choice([-1, 1], size=shape)
            return sparse_int_matrix(rng, shape, pattern, lo=1, hi=128) * signs

        w0 = full()
        on_support = np.sign(w0) * rng.integers(1, 128, size=shape)
        moved = full()
        small = moved.copy()
        small[:, 16:] = 0          # 256 * 16 / 4 = 1024 pairs: fits one PE
        steps = [(w0, tiles), (on_support, tiles), (moved, tiles),
                 (small, 1), (full(), tiles)]
        assert np.count_nonzero(w0) > acc.sram_config.pair_capacity
        for a in (acc, oracle):
            assert a.load_gemm("rep", w0, learnable=True).pe_count == tiles
        previous = None
        for step, (w, buffers) in enumerate(steps):
            if step:
                acc.update_gemm("rep", w)
                for r, c, pe in oracle.gemms["rep"].tiles:
                    rows, cols = pe.csc.shape
                    pe.load(w[r:r + rows, c:c + cols], pattern)
            x = rng.integers(-63, 64, size=(4, shape[0]))
            delta = rng.integers(-15, 16, size=(4, shape[1]))
            np.testing.assert_array_equal(acc.gemm("rep", x), x @ w)
            oracle.gemm("rep", x)
            dx = acc.propagate_error("rep", delta)
            np.testing.assert_array_equal(dx, delta @ w.T)
            np.testing.assert_array_equal(
                dx, reload_propagate_error(oracle, "rep", delta))
            np.testing.assert_array_equal(
                acc.weight_gradient("rep", x, delta), x.T @ delta)
            oracle.weight_gradient("rep", x, delta)
            got = {kind: s.as_dict() for kind, s in acc.stats().items()}
            want = {kind: s.as_dict() for kind, s in oracle.stats().items()}
            assert got == want, f"step {step}"
            resident = acc.gemms["rep"].error_buffers
            assert len(resident) == buffers
            # Kept while the one-or-per-tile choice holds, rebuilt when not.
            if previous is not None:
                assert (resident is previous[0]) == (buffers == previous[1])
            previous = (resident, buffers)
        with pytest.raises(ValueError, match="error dim"):
            acc.propagate_error("rep", np.ones((1, shape[1] + 1), np.int64))


class TestAccounting:
    def test_stats_by_kind(self, acc, rng):
        wb = sparse_int_matrix(rng, (64, 8), acc.pattern)
        wr = sparse_int_matrix(rng, (32, 4), acc.pattern)
        acc.load_gemm("bb", wb, learnable=False)
        acc.load_gemm("rep", wr, learnable=True)
        acc.gemm("bb", rng.integers(-8, 8, size=(2, 64)))
        acc.gemm("rep", rng.integers(-8, 8, size=(2, 32)))
        stats = acc.stats()
        assert stats["mram"].macs > 0
        assert stats["sram"].macs > 0

    def test_energy_report_positive(self, acc, rng):
        w = sparse_int_matrix(rng, (64, 8), acc.pattern)
        acc.load_gemm("l", w, learnable=True)
        acc.gemm("l", rng.integers(-8, 8, size=(2, 64)))
        report = acc.energy_report()
        assert report["sram"].total_pj > 0
        assert report["sram"].write_pj > 0  # the load itself

    def test_mram_writes_cost_more_per_bit(self, acc, rng):
        """Loading identical matrices: MRAM write energy >> SRAM write energy."""
        w = sparse_int_matrix(rng, (64, 8), acc.pattern)
        acc.load_gemm("s", w, learnable=True)
        acc.load_gemm("m", w, learnable=False)
        report = acc.energy_report()
        assert report["mram"].write_pj > 5 * report["sram"].write_pj
