"""Endurance study — extension experiment (paper Sec. 1's endurance concern).

Not a numbered figure in the paper, but a direct quantification of its
introduction's argument: "the endurance of certain types of NVMs, like
RRAM ... becomes a critical concern due to the frequent weight updates in
the training process."  For every training configuration we report how many
downstream-task adaptations (30-epoch recipe) the weight memory survives,
plus the EDP the hybrid achieves when its NVM is RRAM instead of MRAM (the
paper's portability claim).

Run: ``python -m repro endurance``
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.designs import DenseCIMDesign, HybridSparseDesign
from ..core.effects import reentrant
from ..core.workload import Workload, paper_workload
from ..energy.endurance import (tasks_until_failure, training_lifetime_study)
from ..energy.rram import compare_nvm_write_cost, rram_technology
from ..obs import get_tracer
from ..sparsity.nm import NMPattern
from .reporting import format_table


@reentrant(reason="lifetime studies are analytical; repeated builds "
                  "must agree for the regression gate")
def build_endurance(workload: Optional[Workload] = None) -> Dict:
    workload = workload or paper_workload()
    tracer = get_tracer()

    lifetime_rows = []
    with tracer.span("endurance.lifetime", workload=workload.name):
        for report in training_lifetime_study(workload):
            tasks = tasks_until_failure(report)
            lifetime_rows.append({
                "config": report.config,
                "memory": report.memory,
                "steps_to_failure": report.steps_to_failure,
                "tasks_to_failure": tasks,
            })

    # Portability: the same hybrid design with RRAM as the NVM.
    rram_write, mram_write = compare_nvm_write_cost()
    tech = rram_technology()
    edp_rows = []
    with tracer.span("endurance.rram_portability"):
        ref = HybridSparseDesign(NMPattern(1, 8)).training_step(workload).edp_js
        for label, design in [
                ("Hybrid 1:8 (MRAM NVM)", HybridSparseDesign(NMPattern(1, 8))),
                ("Hybrid 1:8 (RRAM NVM)",
                 HybridSparseDesign(NMPattern(1, 8), tech=tech)),
                ("Dense RRAM finetune-all",
                 DenseCIMDesign("mram", "all", tech=tech, name="dense-rram"))]:
            perf = design.training_step(workload)
            edp_rows.append({"design": label, "edp_rel": perf.edp_js / ref})

    return {
        "workload": workload.name,
        "write_energy_pj_per_bit": {"rram": rram_write, "mram": mram_write},
        "lifetime": lifetime_rows,
        "rram_edp": edp_rows,
    }


def render_endurance(result: Dict) -> str:
    out = [format_table(
        ["Training config", "Weight memory", "Steps to wear-out",
         "Tasks to wear-out"],
        [[r["config"], r["memory"], r["steps_to_failure"],
          r["tasks_to_failure"]] for r in result["lifetime"]],
        title="NVM endurance under continual learning")]
    out.append("")
    out.append(format_table(
        ["Design", "Train EDP (rel Hybrid-MRAM 1:8)"],
        [[r["design"], r["edp_rel"]] for r in result["rram_edp"]],
        title="NVM-technology portability (RRAM case study)"))
    w = result["write_energy_pj_per_bit"]
    out.append(f"\nwrite energy: RRAM {w['rram']:.2f} pJ/bit vs "
               f"MRAM {w['mram']:.3f} pJ/bit")
    return "\n".join(out)
