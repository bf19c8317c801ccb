"""Ablation studies over the hybrid design's levers (CLI aggregate report).

Collects the quantitative side-studies that support the paper's design
choices into one runnable report:

1. **N:M pattern sweep** — storage / area / EDP across the hardware's
   supported patterns (1:16 .. 2:4).
2. **Channel permutation** (ref [19]) — retained saliency gain from
   permuting reduction channels before grouping.
3. **Write-verify drive sweep** — MRAM deployment reliability/energy vs
   write current (why deployment is a bounded one-time cost).
4. **Sense-margin study** — all-digital read BER vs device variation (why
   no ADC is needed).
5. **Read-fault robustness** — sparse-GEMM output error vs injected BER.

Run: ``python -m repro ablations``
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.designs import HybridSparseDesign
from ..core.effects import reentrant
from ..core.fault_injection import gemm_error_study
from ..core.workload import Workload, paper_workload
from ..core.write_verify import WriteVerifyController
from ..energy.sensing import margin_study
from ..obs import get_tracer
from ..sparsity import NMPattern, compute_nm_mask, permutation_gain
from .reporting import format_table

PATTERNS = [NMPattern(1, 16), NMPattern(1, 8), NMPattern(2, 8),
            NMPattern(1, 4), NMPattern(2, 4)]


def pattern_sweep(workload: Workload) -> list:
    rows = []
    ref_edp = HybridSparseDesign(NMPattern(1, 8)).training_step(workload).edp_js
    for p in PATTERNS:
        d = HybridSparseDesign(p)
        rows.append({
            "pattern": str(p),
            "sparsity": p.sparsity,
            "storage_bits": d.backbone_compressed_bits(workload),
            "area_mm2": d.area(workload).total_mm2,
            "edp_rel": d.training_step(workload).edp_js / ref_edp,
        })
    return rows


def permutation_study(seed: int = 0) -> list:
    """Permutation gain on matrices with increasing channel correlation."""
    rng = np.random.default_rng(seed)
    rows = []
    for corr_label, builder in (
            ("iid", lambda: np.abs(rng.standard_normal((64, 16)))),
            ("block-correlated", lambda: _block_correlated(rng)),
            ("adversarial", lambda: _adversarial(rng))):
        sal = builder()
        gain = permutation_gain(sal, NMPattern(1, 4), iterations=1500,
                                rng=np.random.default_rng(seed + 1))
        rows.append({"saliency_structure": corr_label,
                     "retained_gain": gain})
    return rows


def _block_correlated(rng: np.random.Generator) -> np.ndarray:
    base = np.abs(rng.standard_normal((16, 16)))
    return np.repeat(base, 4, axis=0)  # salient channels cluster in fours


def _adversarial(rng: np.random.Generator) -> np.ndarray:
    sal = np.full((64, 16), 0.01)
    sal[:16] = 5.0  # all salient channels in the first four groups
    return sal


def write_verify_sweep() -> list:
    """Short-pulse (1.5 ns) drive sweep: the probabilistic switching regime
    around the critical current, where verify-retry earns its keep."""
    rows = []
    for current in (32.0, 40.0, 60.0, 90.0, 180.0):
        ctrl = WriteVerifyController(write_current_ua=current,
                                     pulse_ns=1.5, max_retries=3)
        rows.append({
            "write_current_ua": current,
            "switch_probability": ctrl.switch_probability,
            "attempts_per_bit": ctrl.expected_attempts_per_bit(),
            "failure_rate": ctrl.expected_failure_rate(),
            "energy_pj_per_bit": ctrl.expected_energy_pj_per_bit(),
        })
    return rows


def fault_robustness(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    pattern = NMPattern(2, 8)
    dense = rng.integers(-127, 128, size=(128, 8))
    mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
    w = (dense * mask).astype(np.int64)
    x = rng.integers(-64, 64, size=(8, 128))
    return gemm_error_study(w, x, pattern,
                            bers=[0.0, 1e-6, 1e-4, 1e-3, 1e-2],
                            trials=3, rng=rng)


@reentrant(reason="every ablation study is seeded; repeated builds must "
                  "be bit-identical for the committed results to hold")
def build_ablations(workload: Optional[Workload] = None) -> Dict:
    workload = workload or paper_workload()
    tracer = get_tracer()
    result: Dict = {}
    studies = (
        ("pattern_sweep", lambda: pattern_sweep(workload)),
        ("permutation", permutation_study),
        ("write_verify", write_verify_sweep),
        ("sensing", margin_study),
        ("fault_robustness", fault_robustness),
    )
    with tracer.span("ablations.build", workload=workload.name):
        for key, study in studies:
            with tracer.span(f"ablations.{key}"):
                result[key] = study()
    return result


def render_ablations(result: Dict) -> str:
    out = []
    out.append(format_table(
        ["Pattern", "Sparsity", "Storage (bits)", "Area (mm^2)",
         "EDP (rel 1:8)"],
        [[r["pattern"], r["sparsity"], r["storage_bits"], r["area_mm2"],
          r["edp_rel"]] for r in result["pattern_sweep"]],
        title="Ablation 1 — N:M pattern sweep (hybrid design)"))
    out.append("")
    out.append(format_table(
        ["Saliency structure", "Retained-saliency gain"],
        [[r["saliency_structure"], r["retained_gain"]]
         for r in result["permutation"]],
        title="Ablation 2 — channel permutation before N:M grouping"))
    out.append("")
    out.append(format_table(
        ["Write current (uA)", "P(switch)", "Attempts/bit", "Failure rate",
         "Energy (pJ/bit)"],
        [[r["write_current_ua"], r["switch_probability"],
          r["attempts_per_bit"], r["failure_rate"], r["energy_pj_per_bit"]]
         for r in result["write_verify"]],
        title="Ablation 3 — MRAM write-verify drive sweep"))
    out.append("")
    sensing = result["sensing"]
    out.append(format_table(
        ["Quantity", "Value"],
        [[k, v] for k, v in sensing.items()],
        title="Ablation 4 — all-digital read margin"))
    out.append("")
    out.append(format_table(
        ["Read BER", "Mean rel. output error", "Max rel. output error"],
        [[r["ber"], r["mean_rel_error"], r["max_rel_error"]]
         for r in result["fault_robustness"]],
        title="Ablation 5 — sparse-GEMM robustness to read faults"))
    return "\n".join(out)
