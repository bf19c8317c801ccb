"""Fig. 7 — inference power and area, normalized to the SRAM baseline.

Four designs over the paper's 26 MB RepNet model:
ISSCC'21-class SRAM CIM [29], ISCAS'23-class MRAM CIM [30],
Hybrid (1:4), Hybrid (1:8).

Reports, per design: normalized area; normalized average inference power
with the paper's leakage/read split (log-scale quantities — compare orders
of magnitude).

Run: ``python -m repro fig7``
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.designs import DenseCIMDesign, HybridSparseDesign
from ..core.effects import reentrant
from ..core.workload import Workload, paper_workload
from ..obs import get_tracer
from ..sparsity.nm import NMPattern
from .reporting import format_table

#: Paper-reported approximate values (read off the figure) for shape checks.
PAPER_AREA_REL = {"SRAM[29]": 1.0, "MRAM[30]": 0.48,
                  "Hybrid(1:4)": 0.37, "Hybrid(1:8)": 0.34}


def fig7_designs(workload: Optional[Workload] = None):
    """The four design points of Fig. 7 (inference: update scope irrelevant)."""
    return [
        ("SRAM[29]", DenseCIMDesign("sram", "all", name="ISSCC21-SRAM")),
        ("MRAM[30]", DenseCIMDesign("mram", "all", name="ISCAS23-MRAM")),
        ("Hybrid(1:4)", HybridSparseDesign(NMPattern(1, 4))),
        ("Hybrid(1:8)", HybridSparseDesign(NMPattern(1, 8))),
    ]


@reentrant(reason="serve and the tests call the fig7 evaluator repeatedly; "
                  "results must be a function of the workload alone")
def build_fig7(workload: Optional[Workload] = None) -> Dict:
    workload = workload or paper_workload()
    designs = fig7_designs(workload)
    tracer = get_tracer()

    rows: List[Dict] = []
    with tracer.span("fig7.build", workload=workload.name):
        for label, design in designs:
            with tracer.span("fig7.design", design=label,
                             phase="inference") as sp:
                area = design.area(workload)
                perf = design.inference(workload)
                e = perf.energy
                rows.append({
                    "design": label,
                    "area_mm2": area.total_mm2,
                    "power_mw": perf.avg_power_mw,
                    "leakage_power_mw": e.leakage_pj / max(e.total_pj, 1e-30)
                    * perf.avg_power_mw,
                    "read_power_mw": e.read_pj / max(e.total_pj, 1e-30)
                    * perf.avg_power_mw,
                    "latency_s": perf.latency_s,
                    "energy_pj": e.total_pj,
                })
                sp.count(latency_s=perf.latency_s, energy_pj=e.total_pj,
                         area_mm2=area.total_mm2)

    ref_area = rows[0]["area_mm2"]
    ref_power = rows[0]["power_mw"]
    for row in rows:
        row["area_rel"] = row["area_mm2"] / ref_area
        row["power_rel"] = row["power_mw"] / ref_power
        row["leakage_rel"] = row["leakage_power_mw"] / ref_power
        row["read_rel"] = row["read_power_mw"] / ref_power

    return {"workload": workload.name, "rows": rows,
            "paper_area_rel": PAPER_AREA_REL}


def render_fig7(result: Dict) -> str:
    table_rows = [[r["design"], r["area_rel"], r["power_rel"],
                   r["leakage_rel"], r["read_rel"], r["latency_s"] * 1e3]
                  for r in result["rows"]]
    return format_table(
        ["Design", "Area (rel)", "Power (rel)", "Leak (rel)", "Read (rel)",
         "Latency (ms)"],
        table_rows,
        title=f"Fig. 7 — power & area vs SRAM[29]  ({result['workload']})"
    ) + f"\n\nPaper reference (area, rel): {result['paper_area_rel']}"
