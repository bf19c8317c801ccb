"""Differential bit-exactness suite for the sparse-PE kernel layer.

Every (pattern, batch, shape) workload is executed by each production
kernel, by its ``<kernel>_reference`` oracle and by plain ``activations @
dense``, and all of them must agree bit-for-bit on int64, for both kernel
families (MRAM gather and SRAM bit-serial).  A second class pins the
oracles' substitution as pure: every ``PEStats`` counter of a PE run on
the oracles (the ``oracle_kernels`` fixture) equals the production run's.
A third runs sparsity structures beyond aligned N:M (magnitude, block,
uniform scatter) at the paper's PE geometries and two larger layers
through the encoder and both kernels.  A fourth holds both kernels to
their signed ``input_bits`` range, the condition ``spmm_bitserial``'s
plane-free product relies on.  A fifth holds both kernels to their oracles at the edge of
the float64 product's exactness guard, beyond it and where int64 wraps.
"""

import ast
import contextlib
import dataclasses
import inspect
import re
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.csc import CSCMatrix
from repro.core import HybridAccelerator, exact_gemm, kernels
from repro.core.bitcell_array import BitLevelSparsePE
from repro.core.kernels import (KernelPlan, spmm_bitserial,
                                spmm_bitserial_reference, spmm_gather,
                                spmm_gather_reference)
from repro.core.mram_pe import MRAMDensePE, MRAMPEConfig, MRAMSparsePE
from repro.core.sram_pe import SRAMPEConfig, SRAMSparsePE
from repro.core.widths import BITSERIAL_MAX_BITS, BITSERIAL_MIN_BITS
from repro.sparsity import NMPattern, compute_nm_mask

from .conftest import KERNEL_SITES

PATTERNS = [NMPattern(1, 4), NMPattern(2, 8), NMPattern(1, 8),
            NMPattern(2, 16)]
PATTERN_IDS = [str(p) for p in PATTERNS]
BATCHES = [1, 7, 16]
INPUT_BITS = 8

#: ``name -> (gather, bitserial)``: the production kernels and their oracles.
KERNELS = {
    "reference": (spmm_gather_reference, spmm_bitserial_reference),
    "production": (spmm_gather, spmm_bitserial),
}


def nm_sparse(rng, shape, pattern):
    """Random signed-8-bit matrix pruned to the N:M pattern."""
    dense = rng.integers(-128, 128, size=shape)
    mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
    return (dense * mask).astype(np.int64)


def activations_for(rng, batch, in_dim):
    return rng.integers(-128, 128, size=(batch, in_dim), dtype=np.int64)


def skewed_weights(rng, in_dim, out_dim):
    """A deliberately skewed column-nnz histogram, from 1 entry to
    ``in_dim // 2 + 1``."""
    w = np.zeros((in_dim, out_dim), dtype=np.int64)
    for c in range(out_dim):
        nnz = min(in_dim, 1 + (c * c) % (in_dim // 2 + 1))
        rows = rng.permutation(in_dim)[:nnz]
        signs = rng.integers(0, 2, size=nnz) * 2 - 1
        w[rows, c] = rng.integers(1, 128, size=nnz) * signs
    return w


def unstructured_plan(weights):
    """Plan for any sparsity: the 16:16 group only fixes the encoding."""
    return KernelPlan.from_csc(
        CSCMatrix.from_dense(weights, NMPattern(16, 16), strict=False))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC5C)


@pytest.fixture
def kernel_tiers(oracle_kernels):
    """``name -> context``: the PEs run production kernels, or oracles."""
    return {"production": contextlib.nullcontext,
            "reference": oracle_kernels}


def column_scatter(plan):
    """The plan's entries scattered dense one column at a time, as the
    per-column oracles read them."""
    dense = np.zeros(plan.shape, dtype=np.int64)
    for c, rows, vals in plan.column_slices():
        dense[rows, c] = vals
    return dense


def assert_panel_is_the_matrix(plan, dense):
    """The plan's panel == the per-column scatter == its decode ==
    ``dense``, as int64 and as float64."""
    assert plan.panel.ints.dtype == np.int64
    assert plan.panel.floats.dtype == np.float64
    for got in (plan.panel.ints, column_scatter(plan), plan.decode()):
        assert got.shape == dense.shape
        np.testing.assert_array_equal(got, dense)
    np.testing.assert_array_equal(plan.panel.floats, dense)


def assert_all_impls_equal(plan, x, dense):
    """production == reference == x @ dense, for both kernel families."""
    expected = x.astype(np.int64) @ dense
    for gather, bitserial in KERNELS.values():
        for out in (gather(plan, x, INPUT_BITS),
                    bitserial(plan, x, INPUT_BITS)):
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, expected)


class TestDifferentialSweep:
    """Seeded-random sweep: patterns x batches x shapes."""

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_random_nm_workloads(self, rng, pattern, batch):
        m = pattern.m
        for out_dim in (1, 8, 19):
            w = nm_sparse(rng, (m * 8, out_dim), pattern)
            csc = CSCMatrix.from_dense(w, pattern)
            plan = KernelPlan.from_csc(csc)
            x = activations_for(rng, batch, w.shape[0])
            assert_all_impls_equal(plan, x, w)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_in_dim_not_multiple_of_m(self, rng, pattern):
        """Ragged reduction dims are legal with strict=False."""
        m = pattern.m
        in_dim = m * 5 + max(1, m // 2)
        w = np.zeros((in_dim, 6), dtype=np.int64)
        nz = rng.random((in_dim, 6)) < 0.3
        w[nz] = rng.integers(-128, 128, size=int(nz.sum()))
        csc = CSCMatrix.from_dense(w, pattern, strict=False)
        plan = KernelPlan.from_csc(csc)
        for batch in BATCHES:
            assert_all_impls_equal(plan, activations_for(rng, batch, in_dim),
                                   w)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_empty_columns(self, rng, pattern):
        """Columns with zero non-zeros are skipped identically."""
        m = pattern.m
        w = nm_sparse(rng, (m * 4, 9), pattern)
        w[:, [0, 3, 8]] = 0
        csc = CSCMatrix.from_dense(w, pattern)
        plan = KernelPlan.from_csc(csc)
        assert_all_impls_equal(plan, activations_for(rng, 7, w.shape[0]), w)

    def test_all_zero_matrix(self, rng):
        pattern = NMPattern(1, 4)
        w = np.zeros((16, 5), dtype=np.int64)
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        assert plan.nnz == 0
        assert_all_impls_equal(plan, activations_for(rng, 3, 16), w)

    def test_extreme_operands(self):
        """INT8 corner values exercise the two's-complement MSB path."""
        pattern = NMPattern(1, 4)
        w = np.zeros((8, 2), dtype=np.int64)
        w[0, 0], w[4, 1] = -128, 127
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        x = np.array([[-128, 0, 0, 0, 127, 0, 0, 0],
                      [127, 0, 0, 0, -128, 0, 0, 0]])
        assert_all_impls_equal(plan, x, w)

    @pytest.mark.parametrize("batch", [1, 3, 64, 69])
    def test_skewed_column_histogram(self, rng, batch):
        """Column nnz from 1 to in_dim/2 + 1: the widest column holds over
        four times the narrowest one's entries."""
        w = skewed_weights(rng, 96, 40)
        plan = unstructured_plan(w)
        counts = np.diff(plan.col_ptr)
        assert counts.max() > 4 * counts.min()
        assert_panel_is_the_matrix(plan, w)
        assert_all_impls_equal(plan, activations_for(rng, batch, 96), w)

    def test_single_dense_column(self, rng):
        """One full column beside two empty ones."""
        w = np.zeros((48, 3), dtype=np.int64)
        w[:, 1] = rng.integers(1, 128, size=48)
        plan = unstructured_plan(w)
        assert np.diff(plan.col_ptr).tolist() == [0, 48, 0]
        assert_panel_is_the_matrix(plan, w)
        assert_all_impls_equal(plan, activations_for(rng, 5, 48), w)

    @pytest.mark.parametrize("input_bits", [2, 5, 8, 16])
    def test_bitserial_input_widths(self, rng, input_bits):
        """Every plane count up to the 16-bit cap, on a skewed matrix,
        with activations spanning the full signed range."""
        w = skewed_weights(rng, 64, 24)
        plan = unstructured_plan(w)
        lo, hi = -(1 << (input_bits - 1)), 1 << (input_bits - 1)
        x = rng.integers(lo, hi, size=(7, 64), dtype=np.int64)
        x[0, :2] = lo, hi - 1
        for _, bitserial in KERNELS.values():
            np.testing.assert_array_equal(bitserial(plan, x, input_bits),
                                          x @ w)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_pe_models_agree_across_kernels(self, rng, kernel_tiers, pattern,
                                            batch):
        """End-to-end PE matmuls match on the kernels and on the oracles."""
        w_sram = nm_sparse(rng, (128, 8), pattern)
        w_mram = nm_sparse(rng, (pattern.m * 16, 32), pattern)
        x_sram = activations_for(rng, batch, 128)
        x_mram = activations_for(rng, batch, w_mram.shape[0])
        for cls, cfg, w, x in [
                (SRAMSparsePE, SRAMPEConfig(), w_sram, x_sram),
                (MRAMSparsePE, MRAMPEConfig(), w_mram, x_mram)]:
            expected = x @ w
            for tier in kernel_tiers.values():
                with tier():
                    pe = cls(cfg)
                    pe.load(w, pattern)
                    np.testing.assert_array_equal(pe.matmul(x), expected)


    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_bit_level_pe_agrees_across_kernels(self, rng, kernel_tiers,
                                                pattern):
        """The gate-level PE, whose operands are decoded from its bit-cells,
        matches on the kernel and on the oracle."""
        w = nm_sparse(rng, (128, 8), pattern)
        x = activations_for(rng, 3, 128)
        for tier in kernel_tiers.values():
            with tier():
                pe = BitLevelSparsePE()
                pe.load(w, pattern)
                np.testing.assert_array_equal(pe.matmul(x), x @ w)


class TestOneKernelPerDataflow:
    """Each dataflow has one production kernel: nothing selects another."""

    @pytest.mark.parametrize("target", [
        spmm_gather, spmm_bitserial, HybridAccelerator, SRAMSparsePE,
        MRAMSparsePE, BitLevelSparsePE], ids=lambda t: t.__name__)
    def test_takes_no_kernel_selector(self, target):
        params = set(inspect.signature(target).parameters)
        assert not params & {"kernel", "impl"}

    def test_kernel_sites_cover_every_pe_module(self):
        """``oracle_kernels`` patches every module that binds a kernel."""
        package = Path(kernels.__file__).resolve().parent.parent
        sites = set()
        for path in package.rglob("*.py"):
            rel = path.relative_to(package)
            if rel.parts[0] == "lint" or path.name == "__init__.py":
                continue
            module = ".".join(("repro",) + rel.with_suffix("").parts)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and \
                        (node.module or "").endswith("kernels"):
                    sites.update(
                        (module, alias.name) for alias in node.names
                        if alias.name.startswith("spmm_"))
        assert sites == set(KERNEL_SITES)


class TestPlan:
    def test_decode_roundtrip(self, rng):
        pattern = NMPattern(2, 8)
        w = nm_sparse(rng, (64, 11), pattern)
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        np.testing.assert_array_equal(plan.decode(), w)

    def test_plan_layout(self, rng):
        pattern = NMPattern(1, 4)
        w = nm_sparse(rng, (32, 6), pattern)
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        assert plan.nnz == int((w != 0).sum())
        assert plan.col_ptr[0] == 0 and plan.col_ptr[-1] == plan.nnz
        assert plan.panel.ints.shape == plan.panel.floats.shape == (32, 6)
        # off the support the panel is 0, so those cells contribute nothing
        assert_panel_is_the_matrix(plan, w)

    def test_panel_is_the_per_column_scatter(self, rng):
        """On a skewed histogram the panel holds each column's entries at
        their rows and 0 everywhere else, read-only, as int64 and float64,
        with the exact largest column L1 norm."""
        w = skewed_weights(rng, 96, 40)
        plan = unstructured_plan(w)
        assert_panel_is_the_matrix(plan, w)
        for c, rows, vals in plan.column_slices():
            np.testing.assert_array_equal(plan.panel.ints[rows, c], vals)
            off = np.ones(96, dtype=bool)
            off[rows] = False
            np.testing.assert_array_equal(plan.panel.ints[off, c], 0)
        assert plan.panel.col_l1 == max(
            sum(abs(int(v)) for v in vals)
            for _, _, vals in plan.column_slices())
        assert plan.panel.peak == max(abs(int(v)) for v in plan.values)
        for array in (plan.panel.ints, plan.panel.floats):
            assert not array.flags.writeable
        decoded = plan.decode()
        decoded[0, 0] += 1  # a writable copy, not the panel
        np.testing.assert_array_equal(plan.panel.ints, w)

    def test_empty_plan_has_a_zero_panel(self, rng):
        plan = unstructured_plan(np.zeros((16, 4), dtype=np.int64))
        assert plan.nnz == 0
        assert_panel_is_the_matrix(plan, np.zeros((16, 4), dtype=np.int64))
        assert plan.panel.col_l1 == plan.panel.peak == 0
        x = activations_for(rng, 3, 16)
        for gather, bitserial in KERNELS.values():
            for out in (gather(plan, x, INPUT_BITS),
                        bitserial(plan, x, INPUT_BITS)):
                assert out.dtype == np.int64
                np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_shape_mismatch_raises(self, rng):
        pattern = NMPattern(1, 4)
        w = nm_sparse(rng, (16, 2), pattern)
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, pattern))
        with pytest.raises(ValueError):
            spmm_gather(plan, np.zeros((1, 17), dtype=np.int64), INPUT_BITS)
        with pytest.raises(ValueError):
            spmm_bitserial(plan, np.zeros((1, 17), dtype=np.int64),
                           INPUT_BITS)


class TestConcurrency:
    @pytest.mark.parametrize("impl", list(KERNELS))
    def test_concurrent_matmuls_share_a_plan(self, rng, impl):
        """Threads sharing one plan each get their own exact result."""
        w = skewed_weights(rng, 64, 16)
        plan = unstructured_plan(w)
        inputs = [activations_for(rng, 8, 64) for _ in range(8)]
        gather, bitserial = KERNELS[impl]
        errors = []

        def worker(x):
            try:
                for _ in range(10):
                    np.testing.assert_array_equal(
                        gather(plan, x, INPUT_BITS), x @ w)
                    np.testing.assert_array_equal(
                        bitserial(plan, x, INPUT_BITS), x @ w)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(x,))
                   for x in inputs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors


class TestFloatActivationRejection:
    """Float activations must fail loudly, never truncate silently."""

    def test_sram_sparse_rejects_floats(self, rng):
        pattern = NMPattern(1, 4)
        pe = SRAMSparsePE()
        pe.load(nm_sparse(rng, (32, 4), pattern), pattern)
        with pytest.raises(TypeError, match="consumes integer activations"):
            pe.matmul(np.ones((1, 32), dtype=np.float64))

    def test_mram_dense_rejects_floats(self, rng):
        pe = MRAMDensePE()
        pe.load(rng.integers(-8, 8, size=(16, 4)))
        with pytest.raises(TypeError, match="consumes integer activations"):
            pe.matmul(np.full((1, 16), 1.9))

    @pytest.mark.parametrize("impl", list(KERNELS))
    def test_kernels_reject_floats(self, impl):
        """1.9 would truncate to 1: ``[[3, -2]]`` instead of the exact
        ``[[5.7, -3.8]]``.  Both families refuse rather than round."""
        w = np.zeros((8, 2), dtype=np.int64)
        w[0, 0], w[4, 0], w[1, 1], w[6, 1] = 2, 1, -1, -1
        plan = KernelPlan.from_csc(CSCMatrix.from_dense(w, NMPattern(1, 4)))
        x = np.full((1, 8), 1.9)
        np.testing.assert_allclose(x @ w, [[5.7, -3.8]])
        gather, bitserial = KERNELS[impl]
        with pytest.raises(TypeError,
                           match="spmm_gather consumes integer activations"):
            gather(plan, x, INPUT_BITS)
        with pytest.raises(
                TypeError,
                match="spmm_bitserial consumes integer activations"):
            bitserial(plan, x, INPUT_BITS)


class TestSignedRangeBoundary:
    """The bit-serial kernel's fold (one product, no planes) is exact only
    on the signed ``input_bits`` range, and both kernels bound the
    product's exactness guard by it.  So each kernel and its oracle must
    accept the range's two ends exactly and refuse one step beyond
    either."""

    WIDTHS = list(range(BITSERIAL_MIN_BITS, BITSERIAL_MAX_BITS + 1))

    @staticmethod
    def _plan(rng):
        w = skewed_weights(rng, 24, 6)
        return unstructured_plan(w), w

    @pytest.mark.parametrize("impl", list(KERNELS))
    @pytest.mark.parametrize("input_bits", WIDTHS)
    def test_range_ends_are_exact(self, rng, impl, input_bits):
        plan, w = self._plan(rng)
        lo, hi = -(1 << (input_bits - 1)), (1 << (input_bits - 1)) - 1
        x = np.stack([np.full(24, lo), np.full(24, hi),
                      np.where(np.arange(24) % 2, lo, hi)]).astype(np.int64)
        for kernel in KERNELS[impl]:
            np.testing.assert_array_equal(kernel(plan, x, input_bits), x @ w)

    @pytest.mark.parametrize("impl", list(KERNELS))
    @pytest.mark.parametrize("input_bits", WIDTHS)
    def test_one_past_either_end_raises(self, rng, impl, input_bits):
        plan, _ = self._plan(rng)
        lo, hi = -(1 << (input_bits - 1)), (1 << (input_bits - 1)) - 1
        message = re.escape(
            f"values outside signed {input_bits}-bit range [{lo}, {hi}]")
        for value in (lo - 1, hi + 1):
            x = np.zeros((2, 24), dtype=np.int64)
            x[1, 7] = value
            for kernel in KERNELS[impl]:
                with pytest.raises(ValueError, match=message):
                    kernel(plan, x, input_bits)


def wrapped(value):
    """A Python int reduced to int64 two's complement, as numpy wraps."""
    return (value + (1 << 63)) % (1 << 64) - (1 << 63)


def exact_product(x, w):
    """``x @ w`` over Python ints, then wrapped to int64."""
    rows = [[int(v) for v in row] for row in x]
    cols = [[int(v) for v in col] for col in np.asarray(w).T]
    return np.array([[wrapped(sum(a * b for a, b in zip(row, col)))
                      for col in cols] for row in rows], dtype=np.int64)


class TestExactnessGuard:
    """``max|x| * max_c sum_k |W[k, c]| <= 2**53`` sends the product to
    float64 BLAS; anything larger to numpy's int64 matmul.  ``max|x|`` is
    ``2**(input_bits - 1)``, the range both kernels check.  Both kernels
    equal their oracles bit for bit on each side of that bound, and where
    int64 products wrap."""

    @pytest.fixture
    def paths(self, monkeypatch):
        """Records, per guarded product, whether it ran on float64."""
        taken = []
        check = exact_gemm.exact_in_float64

        def spy(magnitude, panel):
            taken.append(check(magnitude, panel))
            return taken[-1]

        monkeypatch.setattr(exact_gemm, "exact_in_float64", spy)
        return taken

    @staticmethod
    def _run(kernel, plan, x, input_bits):
        """``(production, oracle)`` outputs of one kernel family."""
        gather, bitserial = KERNELS["production"]
        gather_ref, bitserial_ref = KERNELS["reference"]
        if kernel == "gather":
            return (gather(plan, x, input_bits),
                    gather_ref(plan, x, input_bits))
        return (bitserial(plan, x, input_bits),
                bitserial_ref(plan, x, input_bits))

    @staticmethod
    def _case(input_bits, above):
        """Column 0's L1 norm is ``2**53 / max|x|``, one more ``above``;
        its output is ``-2**53``, or ``-(2**53 + 1)`` ``above``, which
        float64 cannot hold.  Column 1 is small."""
        top, half = 1 << (input_bits - 1), 1 << (53 - input_bits)
        w = np.zeros((3, 2), dtype=np.int64)
        w[:, 0] = [half, half, 1] if above else [half, half - 1, 1]
        w[:, 1] = [5, 0, -7]
        x = np.array([[-top, -top, -1 if above else -top], [0, 0, 0],
                      [1, 0, -1]], dtype=np.int64)
        return w, x

    @pytest.mark.parametrize("input_bits", [2, 16])
    @pytest.mark.parametrize("kernel", ["gather", "bitserial"])
    def test_at_the_bound_runs_on_float64(self, paths, kernel, input_bits):
        w, x = self._case(input_bits, above=False)
        plan = unstructured_plan(w)
        assert plan.panel.col_l1 << (input_bits - 1) == \
            exact_gemm.FLOAT64_EXACT_LIMIT
        got, oracle = self._run(kernel, plan, x, input_bits)
        assert paths == [True]
        assert int(got[0, 0]) == -(1 << 53)
        np.testing.assert_array_equal(got, oracle)
        np.testing.assert_array_equal(got, exact_product(x, w))

    @pytest.mark.parametrize("input_bits", [2, 16])
    @pytest.mark.parametrize("kernel", ["gather", "bitserial"])
    def test_one_step_above_takes_the_integer_fallback(self, paths, kernel,
                                                       input_bits):
        w, x = self._case(input_bits, above=True)
        plan = unstructured_plan(w)
        got, oracle = self._run(kernel, plan, x, input_bits)
        assert paths == [False]
        assert int(got[0, 0]) == -(1 << 53) - 1
        # The guard matters: float64 would round this output.
        rounded = (x.astype(np.float64) @ w.astype(np.float64))[0, 0]
        assert int(rounded) != int(got[0, 0])
        np.testing.assert_array_equal(got, oracle)
        np.testing.assert_array_equal(got, exact_product(x, w))

    @pytest.mark.parametrize("kernel,input_bits",
                             [("gather", 64), ("bitserial", 16)])
    def test_wrapping_products_match_the_oracles(self, paths, kernel,
                                                 input_bits):
        """Products beyond int64 wrap modulo 2**64 in both.  The gather
        takes any int64 at 64 bits, including the int64 minimum times -1;
        the bit-serial kernel stops at 16-bit inputs."""
        int64 = np.iinfo(np.int64)
        if kernel == "gather":
            w = np.array([[1 << 40, -1], [1 << 30, 3], [-7, 1 << 62]],
                         dtype=np.int64)
            x = np.array([[1 << 40, -(1 << 41), 3], [int64.min, 0, 2],
                          [int64.max, 1, 1]], dtype=np.int64)
        else:
            w = np.array([[1 << 60, -1], [(1 << 61) + 5, 3], [-7, 1 << 62]],
                         dtype=np.int64)
            x = np.array([[(1 << 15) - 1, -(1 << 15), 3],
                          [-(1 << 15), -(1 << 15), -(1 << 15)],
                          [1, 0, -1]], dtype=np.int64)
        plan = unstructured_plan(w)
        got, oracle = self._run(kernel, plan, x, input_bits)
        assert paths == [False]
        want = exact_product(x, w)
        unwrapped = [[sum(int(a) * int(b) for a, b in zip(row, col))
                      for col in w.T] for row in x]
        assert any(int(v) != u for v, u in zip(want.ravel(),
                                                np.ravel(unwrapped)))
        np.testing.assert_array_equal(got, oracle)
        np.testing.assert_array_equal(got, want)

    def test_guard_is_the_column_norm_bound(self, rng):
        """The cheap ``peak * in_dim`` pre-check never changes the answer
        of ``magnitude * max column L1 <= 2**53``."""
        limit = exact_gemm.FLOAT64_EXACT_LIMIT
        for scale in (7, 20, 40, 50, 52, 60):
            w = skewed_weights(rng, 24, 5) << (scale - 7)
            panel = unstructured_plan(w).panel
            col_l1 = max(sum(abs(int(v)) for v in col) for col in w.T)
            for magnitude in {0, 1, limit // col_l1, limit // col_l1 + 1,
                              1 << 15, limit}:
                assert exact_gemm.exact_in_float64(magnitude, panel) == (
                    magnitude * col_l1 <= limit), (scale, magnitude)

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_in_contract_inputs_run_on_float64(self, rng, paths, pattern):
        """INT8 weights and activations through both PEs, and both kernels
        up to 16-bit inputs: every product takes the BLAS path."""
        w_sram = nm_sparse(rng, (128, 8), pattern)
        w_mram = nm_sparse(rng, (pattern.m * 16, 32), pattern)
        for cls, w in ((SRAMSparsePE, w_sram), (MRAMSparsePE, w_mram)):
            pe = cls()
            pe.load(w, pattern)
            x = activations_for(rng, 7, w.shape[0])
            np.testing.assert_array_equal(pe.matmul(x), x @ w)
            plan = unstructured_plan(w)
            for kernel in KERNELS["production"]:
                np.testing.assert_array_equal(
                    kernel(plan, x, BITSERIAL_MAX_BITS), x @ w)
        assert paths == [True] * 6


class TestStatsInvariance:
    """Running a PE on the oracles must be observably pure: identical
    PEStats."""

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_sram_stats_identical(self, rng, kernel_tiers, pattern):
        w = nm_sparse(rng, (128, 8), pattern)
        w2 = nm_sparse(rng, (128, 8), pattern)
        x = activations_for(rng, 5, 128)
        stats = {}
        for name, tier in kernel_tiers.items():
            with tier():
                pe = SRAMSparsePE()
                pe.load(w, pattern)
                pe.matmul(x)
                pe.update_weights(w2, pattern)
                pe.matmul(x)
            stats[name] = pe.stats.as_dict()
        assert stats["reference"] == stats["production"]

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_mram_stats_identical(self, rng, kernel_tiers, pattern):
        w = nm_sparse(rng, (pattern.m * 16, 32), pattern)
        x = activations_for(rng, 5, w.shape[0])
        stats = {}
        for name, tier in kernel_tiers.items():
            with tier():
                pe = MRAMSparsePE()
                pe.load(w, pattern)
                pe.matmul(x)
                pe.matmul(x[:2])
            stats[name] = pe.stats.as_dict()
        assert stats["reference"] == stats["production"]

    @pytest.mark.parametrize("family", ["sram", "mram", "bit-level"])
    def test_oracle_substitution_reaches_the_pe(self, rng, monkeypatch,
                                                oracle_kernels, family):
        """Under ``oracle_kernels`` each PE calls the oracle, once per
        matmul, and never the production kernel."""
        name = {"sram": "spmm_bitserial", "mram": "spmm_gather",
                "bit-level": "spmm_bitserial"}[family]
        oracle = getattr(kernels, f"{name}_reference")
        called = []

        def spy(*args):
            called.append(name)
            return oracle(*args)

        monkeypatch.setattr(kernels, f"{name}_reference", spy)
        cls = {"sram": SRAMSparsePE, "mram": MRAMSparsePE,
               "bit-level": BitLevelSparsePE}[family]
        pattern = NMPattern(1, 4)
        w = nm_sparse(rng, (32, 4), pattern)
        x = activations_for(rng, 2, 32)
        with oracle_kernels():
            pe = cls()
            pe.load(w, pattern)
            np.testing.assert_array_equal(pe.matmul(x), x @ w)
        assert called == [name]
        pe.matmul(x)
        assert called == [name]

    def test_every_counter_compared(self):
        """Guard: the dict comparison above covers all PEStats fields."""
        from repro.core.stats import PEStats
        pe = SRAMSparsePE()
        assert set(pe.stats.as_dict()) == \
            {f.name for f in dataclasses.fields(PEStats)}


# --------------------------------------------------------- pattern classes
def _nm_mask(pattern):
    return lambda rng, dense: compute_nm_mask(np.abs(dense), pattern, axis=0)


def _magnitude_mask(density):
    """Unstructured magnitude pruning: an exact global top-k."""
    def mask(rng, dense):
        keep = np.argsort(-np.abs(dense), axis=None, kind="stable")
        out = np.zeros(dense.size, dtype=bool)
        out[keep[:int(round(density * dense.size))]] = True
        return out.reshape(dense.shape)
    return mask


def _block_mask(block, density=0.25):
    """Keep an exact fraction of aligned ``block x block`` tiles."""
    def mask(rng, dense):
        grid = (dense.shape[0] // block, dense.shape[1] // block)
        tiles = np.zeros(grid[0] * grid[1], dtype=np.int64)
        keep = int(round(density * tiles.size))
        tiles[rng.permutation(tiles.size)[:keep]] = 1
        return np.kron(tiles.reshape(grid),
                       np.ones((block, block), dtype=np.int64)).astype(bool)
    return mask


def _scatter_mask(density):
    """Pathological scatter: an exact-count uniform-random support."""
    def mask(rng, dense):
        out = np.zeros(dense.size, dtype=bool)
        keep = int(round(density * dense.size))
        out[rng.permutation(dense.size)[:keep]] = True
        return out.reshape(dense.shape)
    return mask


#: name -> (mask builder, N:M pattern the matrix satisfies or None).
PATTERN_CLASSES = {
    "nm_1_4": (_nm_mask(NMPattern(1, 4)), NMPattern(1, 4)),
    "nm_2_4": (_nm_mask(NMPattern(2, 4)), NMPattern(2, 4)),
    "nm_1_8": (_nm_mask(NMPattern(1, 8)), NMPattern(1, 8)),
    "nm_2_16": (_nm_mask(NMPattern(2, 16)), NMPattern(2, 16)),
    "mag_50": (_magnitude_mask(0.50), None),
    "mag_25": (_magnitude_mask(0.25), None),
    "mag_10": (_magnitude_mask(0.10), None),
    "block_4x4": (_block_mask(4), None),
    "block_8x8": (_block_mask(8), None),
    "rand_30": (_scatter_mask(0.30), None),
}
CLASS_SHAPES = [(128, 8), (256, 32), (512, 64), (1024, 128)]


def pattern_class_matrix(name, shape):
    """Non-zero int8-range values under the class's support, seeded by
    the class name and shape alone."""
    rng = np.random.default_rng(zlib.crc32(f"{name}-{shape}".encode()))
    dense = rng.integers(1, 128, size=shape) * \
        (rng.integers(0, 2, size=shape) * 2 - 1)
    mask = PATTERN_CLASSES[name][0](rng, dense)
    return np.where(mask, dense, 0).astype(np.int64)


def pattern_class_csc(name, weights):
    """Strict N:M encoding where the class has one, else unstructured."""
    pattern = PATTERN_CLASSES[name][1]
    if pattern is None:
        return CSCMatrix.from_dense(weights, NMPattern(16, 16), strict=False)
    return CSCMatrix.from_dense(weights, pattern)


@pytest.mark.parametrize("shape", CLASS_SHAPES,
                         ids=[f"{i}x{o}" for i, o in CLASS_SHAPES])
@pytest.mark.parametrize("name", list(PATTERN_CLASSES))
class TestPatternClasses:
    """Every sparsity structure encodes losslessly and multiplies exactly."""

    def test_encoding_is_lossless(self, name, shape):
        w = pattern_class_matrix(name, shape)
        csc = pattern_class_csc(name, w)
        plan = KernelPlan.from_csc(csc)
        assert csc.nnz == plan.nnz == np.count_nonzero(w)
        counts = np.count_nonzero(w, axis=0)
        np.testing.assert_array_equal(np.diff(csc.col_ptr), counts)
        assert_panel_is_the_matrix(plan, w)
        np.testing.assert_array_equal(csc.decode(), w)

    def test_kernels_agree(self, name, shape):
        w = pattern_class_matrix(name, shape)
        plan = KernelPlan.from_csc(pattern_class_csc(name, w))
        x = activations_for(np.random.default_rng(shape[0]), 16, shape[0])
        assert_all_impls_equal(plan, x, w)
