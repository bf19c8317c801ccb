"""Benchmark collection: model metrics + timing metrics -> BENCH_harness.json.

Two metric families, tagged by ``kind``:

``model``
    Deterministic analytical outputs — Fig. 7 normalized area/power per
    design, Fig. 8 normalized EDP per configuration, the Table 2 MTJ
    write-energy compact-model check.  Bit-stable across runs, so the
    regression gate holds them to a tight relative tolerance.

``timing``
    Simulator throughput — PE-kernel matmuls at the paper's geometries
    (every implementation), plan construction (charged separately from
    the matmuls), CSC encode, harness build wall times, and the
    per-pattern-class corpus sweep (``ns/nnz`` + GFLOP-equiv/s per
    corpus item and impl).  Measured with monotonic ``perf_counter_ns``
    warmed best-of-N; inherently machine-dependent, so the gate only
    fails on large slowdowns (or, for throughput, large drops).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

import numpy as np

from ..core.effects import reentrant

#: Schema tag stamped into every benchmark document.
BENCH_SCHEMA = "repro.bench/1"

#: Canonical output filename (what CI uploads as an artifact).
CANONICAL_OUTPUT = "BENCH_harness.json"

#: The committed baseline the ``--check`` gate compares against.
BASELINE_PATH = "benchmarks/baselines/BENCH_harness.json"

#: Best-of-N repeats for the timing family (small: CI minutes are shared).
DEFAULT_REPEATS = 5

#: Batch rows for the corpus throughput sweep.
CORPUS_BATCH = 64

#: Implementations raced over the corpus ("reference" is left to the
#: differential suite — racing it here would dominate CI minutes).
CORPUS_IMPLS = ("fast",)

#: Lower-only tolerance for throughput metrics: fail when GFLOP-equiv/s
#: drops by more than this fraction (0.75 ~ the 4x-slower limit the
#: duration family's ``TIMING_RTOL`` allows, expressed as a decrease).
GFLOPS_RTOL = 0.75


def _metric(value: float, kind: str, unit: str,
            rtol: Optional[float] = None,
            direction: Optional[str] = None) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "value": float(value), "kind": kind, "unit": unit}
    if rtol is not None:
        entry["rtol"] = rtol               # per-metric gate override
    if direction is not None:
        entry["direction"] = direction     # 'both'|'increase'|'decrease'
    return entry


def _slug(label: str) -> str:
    """Design labels -> stable metric-key fragments (no spaces)."""
    return label.replace(" ", "_")


# ---------------------------------------------------------------------------
# Model metrics (deterministic)
# ---------------------------------------------------------------------------

@reentrant(reason="model metrics feed the regression gate: any hidden "
                  "state would turn gate failures into flakes")
def collect_model_metrics() -> Dict[str, Dict[str, object]]:
    """Key model outputs of the fig7/fig8/table2 harnesses."""
    from ..harness.fig7 import build_fig7
    from ..harness.fig8 import build_fig8
    from ..harness.table2 import build_table2

    metrics: Dict[str, Dict[str, object]] = {}

    fig7 = build_fig7()
    for row in fig7["rows"]:
        design = _slug(row["design"])
        metrics[f"fig7.{design}.area_rel"] = _metric(
            row["area_rel"], "model", "x")
        metrics[f"fig7.{design}.power_rel"] = _metric(
            row["power_rel"], "model", "x")

    fig8 = build_fig8()
    for row in fig8["rows"]:
        key = f"fig8.{_slug(row['group'])}.{_slug(row['design'])}"
        metrics[f"{key}.edp_rel"] = _metric(row["edp_rel"], "model", "x")

    table2 = build_table2()
    dev = table2["mtj_device"]
    metrics["table2.mtj.set_reset_energy_pj_model"] = _metric(
        dev["set_reset_energy_pj_model"], "model", "pJ")
    metrics["table2.mtj.sense_margin_ua"] = _metric(
        dev["sense_margin_ua_at_0p1v"], "model", "uA")
    return metrics


@reentrant(reason="the smoke sweep runs serial and cache-less so the "
                  "gate can pin its frontier bit-exactly")
def collect_dse_metrics() -> Dict[str, Dict[str, object]]:
    """Frontier invariants of the smoke design-space sweep (``repro.dse``).

    Serial, cache-less, pure-analytical — bit-stable like every other
    model metric, so the gate pins the sweep's Pareto reduction end to
    end: frontier size plus each objective's best value across the
    frontier.
    """
    from ..dse import SMOKE_SPEC, NullCache, run_sweep

    result = run_sweep(spec=SMOKE_SPEC, cache=NullCache())
    frontier = result["frontier"]
    metrics: Dict[str, Dict[str, object]] = {
        "dse.smoke.frontier_size": _metric(
            len(frontier), "model", "configs"),
        "dse.smoke.errors": _metric(
            len(result["errors"]), "model", "configs"),
    }
    if frontier:
        values = {k: [r["metrics"][k] for r in frontier]
                  for k in ("area_mm2", "inference_power_mw",
                            "training_edp_js", "density")}
        metrics["dse.smoke.area_mm2_min"] = _metric(
            min(values["area_mm2"]), "model", "mm2")
        metrics["dse.smoke.inference_power_mw_min"] = _metric(
            min(values["inference_power_mw"]), "model", "mW")
        metrics["dse.smoke.training_edp_js_min"] = _metric(
            min(values["training_edp_js"]), "model", "Js")
        metrics["dse.smoke.density_max"] = _metric(
            max(values["density"]), "model", "frac")
    return metrics


# ---------------------------------------------------------------------------
# Timing metrics (machine-dependent)
# ---------------------------------------------------------------------------

def _best_of(fn: Callable[[], object], repeats: int,
             warmup: int = 1) -> float:
    """Best-of-N wall time of ``fn()`` in milliseconds (monotonic clock).

    The untimed warmup calls absorb first-call costs (lazily built
    state, cold caches) so the measured best reflects steady-state
    cost — plan build has its own ``timing.kernel.plan_build.*``
    metrics.
    """
    for _ in range(warmup):
        fn()
    best_ns: Optional[int] = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        if best_ns is None or elapsed < best_ns:
            best_ns = elapsed
    return (best_ns or 0) / 1e6


def _make_sparse(rng: np.random.Generator, shape, pattern) -> np.ndarray:
    from ..sparsity import compute_nm_mask

    dense = rng.integers(-127, 128, size=shape)
    mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
    return (dense * mask).astype(np.int64)


@reentrant(reason="timing inputs are seeded and clocks are allowed "
                  "ambient state; only durations may vary across runs")
def collect_timing_metrics(repeats: int = DEFAULT_REPEATS
                           ) -> Dict[str, Dict[str, object]]:
    """PE-kernel micro-benchmarks + harness build wall times."""
    from ..core.csc import CSCMatrix
    from ..core.kernels import KERNEL_IMPLEMENTATIONS, KernelPlan
    from ..core.mram_pe import MRAMSparsePE
    from ..core.sram_pe import SRAMSparsePE
    from ..harness.fig7 import build_fig7
    from ..harness.fig8 import build_fig8
    from ..sparsity import NMPattern

    rng = np.random.default_rng(0)
    pattern = NMPattern(1, 4)
    metrics: Dict[str, Dict[str, object]] = {}

    # PE matmuls at the paper's geometries, every kernel implementation
    # (mirrors benchmarks/test_bench_pe_kernels.py).  ``load`` builds the
    # plan once and ``_best_of``'s warmup call absorbs first-call costs,
    # so these time the steady-state matmul alone.
    sram_w = _make_sparse(rng, (128, 8), pattern)
    sram_x = rng.integers(-128, 128, size=(16, 128))
    mram_w = _make_sparse(rng, (256, 32), pattern)
    mram_x = rng.integers(-128, 128, size=(16, 256))
    for impl in KERNEL_IMPLEMENTATIONS:
        sram_pe = SRAMSparsePE(kernel=impl)
        sram_pe.load(sram_w, pattern)
        metrics[f"timing.kernel.sram_matmul.{impl}_ms"] = _metric(
            _best_of(lambda pe=sram_pe: pe.matmul(sram_x), repeats),
            "timing", "ms")
        mram_pe = MRAMSparsePE(kernel=impl)
        mram_pe.load(mram_w, pattern)
        metrics[f"timing.kernel.mram_matmul.{impl}_ms"] = _metric(
            _best_of(lambda pe=mram_pe: pe.matmul(mram_x), repeats),
            "timing", "ms")

    # Plan construction, charged separately from the matmuls above so no
    # matmul timing hides build cost.
    sram_csc = CSCMatrix.from_dense(sram_w, pattern)
    mram_csc = CSCMatrix.from_dense(mram_w, pattern)
    metrics["timing.kernel.plan_build.sram_ms"] = _metric(
        _best_of(lambda: KernelPlan.from_csc(sram_csc), repeats),
        "timing", "ms")
    metrics["timing.kernel.plan_build.mram_ms"] = _metric(
        _best_of(lambda: KernelPlan.from_csc(mram_csc), repeats),
        "timing", "ms")

    csc_w = _make_sparse(rng, (1024, 64), pattern)
    metrics["timing.kernel.csc_encode_ms"] = _metric(
        _best_of(lambda: CSCMatrix.from_dense(csc_w, pattern), repeats),
        "timing", "ms")

    # Harness builds (analytical design sweeps — the DSE inner loop).
    metrics["timing.harness.fig7_build_ms"] = _metric(
        _best_of(build_fig7, max(2, repeats // 2)), "timing", "ms")
    metrics["timing.harness.fig8_build_ms"] = _metric(
        _best_of(build_fig8, max(2, repeats // 2)), "timing", "ms")
    return metrics


# ---------------------------------------------------------------------------
# Corpus throughput (per pattern-class x shape x impl)
# ---------------------------------------------------------------------------

@reentrant(reason="corpus inputs are manifest-pinned and clocks are "
                  "allowed ambient state; only durations may vary")
def collect_corpus_metrics(repeats: int = DEFAULT_REPEATS
                           ) -> Dict[str, Dict[str, object]]:
    """Gather-family throughput over the sparse-pattern corpus.

    One plan per corpus item, raced across :data:`CORPUS_IMPLS` at a
    fixed batch.  Two timing views per (item, impl): ``ns_per_nnz``
    (wall nanoseconds per multiply-accumulate — the size-normalized
    number that is comparable across shapes and densities) and
    ``gflops`` (GFLOP-equivalent/s at 2 ops per MAC, gated lower-only
    via ``direction: decrease``).  Each item's nnz rides along as a
    model metric, pinning the corpus structure into the baseline.
    """
    from ..core.csc import CSCMatrix
    from ..core.kernels import KernelPlan, spmm_gather
    from ..corpus import corpus_items, generate
    from ..sparsity import NMPattern

    rng = np.random.default_rng(1)
    # Encoding group only (any sparsity accepted): the corpus spans
    # patterns far outside N:M, so the CSC check runs non-strict.
    group = NMPattern(16, 16)
    metrics: Dict[str, Dict[str, object]] = {}
    for item in corpus_items():
        weights = generate(item)
        plan = KernelPlan.from_csc(
            CSCMatrix.from_dense(weights, group, strict=False))
        acts = rng.integers(-127, 128, size=(CORPUS_BATCH, item.shape[0]))
        macs = plan.nnz * CORPUS_BATCH
        if macs == 0:
            continue
        metrics[f"corpus.{item.name}.nnz"] = _metric(
            plan.nnz, "model", "nnz")
        for impl in CORPUS_IMPLS:
            ms = _best_of(
                lambda impl=impl: spmm_gather(plan, acts, impl=impl),
                repeats)
            metrics[f"timing.corpus.{item.name}.{impl}.ns_per_nnz"] = \
                _metric(ms * 1e6 / macs, "timing", "ns")
            metrics[f"timing.corpus.{item.name}.{impl}.gflops"] = _metric(
                2.0 * macs / (ms * 1e6), "timing", "GFLOP/s",
                rtol=GFLOPS_RTOL, direction="decrease")
    return metrics


def render_corpus_table(metrics: Dict[str, Dict[str, object]]) -> str:
    """Per-(pattern-class x shape) timing table (the CI artifact)."""
    from ..corpus import corpus_items
    from ..harness.reporting import format_table

    rows = []
    for item in corpus_items():
        key = f"timing.corpus.{item.name}"
        if f"{key}.fast.ns_per_nnz" not in metrics:
            continue
        rows.append([
            item.pattern_class, f"{item.shape[0]}x{item.shape[1]}",
            int(metrics[f"corpus.{item.name}.nnz"]["value"]),
            metrics[f"{key}.fast.ns_per_nnz"]["value"],
            metrics[f"{key}.fast.gflops"]["value"],
        ])
    return format_table(
        ["Class", "Shape", "nnz", "fast ns/nnz", "fast GFLOP/s"],
        rows,
        title=f"Corpus throughput (gather family, batch {CORPUS_BATCH})")


# ---------------------------------------------------------------------------
# The full run
# ---------------------------------------------------------------------------

def run_bench(repeats: int = DEFAULT_REPEATS,
              include_timings: bool = True,
              include_corpus: bool = True) -> Dict[str, object]:
    """Run the whole suite; returns the canonical benchmark document."""
    from ..obs import get_tracer

    tracer = get_tracer()
    metrics: Dict[str, Dict[str, object]] = {}
    with tracer.span("bench.model_metrics"):
        metrics.update(collect_model_metrics())
    with tracer.span("bench.dse_metrics"):
        metrics.update(collect_dse_metrics())
    if include_timings:
        with tracer.span("bench.timing_metrics", repeats=repeats):
            metrics.update(collect_timing_metrics(repeats=repeats))
        if include_corpus:
            with tracer.span("bench.corpus_metrics", repeats=repeats):
                metrics.update(collect_corpus_metrics(repeats=repeats))
    return {
        "schema": BENCH_SCHEMA,
        "repeats": repeats,
        "metrics": metrics,
    }
