"""Fig. 8 — continual-learning EDP, normalized to Ours (1:8).

Six configurations over the paper's 26 MB RepNet model:

=====================  =========================================
Fine-tune all weights  SRAM[29], MRAM[30]
RepNet w/o sparsity    SRAM[29], MRAM[30]
RepNet with sparsity   Hybrid (1:4), Hybrid (1:8)  <- ours
=====================  =========================================

EDP covers the learning phase of one training step (backward pass through
the updated scope + transposed-operand writes + weight-update writes); the
forward pass is the design-independent inference already compared in
Fig. 7.  Log-scale quantities.

Run: ``python -m repro fig8``
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.designs import DenseCIMDesign, HybridSparseDesign
from ..core.effects import reentrant
from ..core.workload import Workload, paper_workload
from ..obs import get_tracer
from ..sparsity.nm import NMPattern
from .reporting import format_table


def fig8_configs() -> List[Tuple[str, str, object]]:
    """(label, group, design) for the six bars, in the paper's order."""
    return [
        ("SRAM[29]", "Finetune All Weight",
         DenseCIMDesign("sram", "all", name="ISSCC21-SRAM")),
        ("MRAM[30]", "Finetune All Weight",
         DenseCIMDesign("mram", "all", name="ISCAS23-MRAM")),
        ("SRAM[29]", "RepNet without Sparsity",
         DenseCIMDesign("sram", "learnable", name="ISSCC21-SRAM")),
        ("MRAM[30]", "RepNet without Sparsity",
         DenseCIMDesign("mram", "learnable", name="ISCAS23-MRAM")),
        ("Ours (1:4)", "RepNet with Sparsity", HybridSparseDesign(NMPattern(1, 4))),
        ("Ours (1:8)", "RepNet with Sparsity", HybridSparseDesign(NMPattern(1, 8))),
    ]


@reentrant(reason="serve and the tests call the fig8 evaluator repeatedly; "
                  "results must be a function of workload and batch alone")
def build_fig8(workload: Optional[Workload] = None, batch: int = 32) -> Dict:
    workload = workload or paper_workload()
    configs = fig8_configs()

    tracer = get_tracer()
    rows: List[Dict] = []
    with tracer.span("fig8.build", workload=workload.name, batch=batch):
        for label, group, design in configs:
            with tracer.span("fig8.design", design=label, group=group,
                             phase="training_step") as sp:
                perf = design.training_step(workload, batch=batch)
                rows.append({
                    "design": label,
                    "group": group,
                    "edp_js": perf.edp_js,
                    "energy_mj": perf.energy_j * 1e3,
                    "latency_ms": perf.latency_s * 1e3,
                    "write_energy_mj": perf.energy.write_pj * 1e-9,
                })
                sp.count(latency_s=perf.latency_s,
                         energy_pj=perf.energy.total_pj,
                         edp_js=perf.edp_js)

    ref = rows[-1]["edp_js"]  # Ours (1:8)
    for row in rows:
        row["edp_rel"] = row["edp_js"] / ref

    return {"workload": workload.name, "batch": batch, "rows": rows}


def render_fig8(result: Dict) -> str:
    table_rows = [[r["group"], r["design"], r["edp_rel"], r["energy_mj"],
                   r["latency_ms"]] for r in result["rows"]]
    return format_table(
        ["Group", "Design", "EDP (rel to Ours 1:8)", "Energy (mJ)",
         "Latency (ms)"],
        table_rows,
        title=f"Fig. 8 — continual-learning EDP  ({result['workload']}, "
              f"batch={result['batch']})")
