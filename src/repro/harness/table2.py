"""Table 2 — Hardware Specs: per-component area/power of both PEs.

Regenerates the paper's Table 2 from :mod:`repro.energy.tech` (the
calibrated leaf constants) plus the derived rows our models add: PE totals,
storage capacity, the MTJ compact-model write-energy check, and retention.

Run: ``python -m repro table2``
"""

from __future__ import annotations

from typing import Dict

from ..core.effects import reentrant
from ..energy.mtj import MTJ, MTJParams, table2_write_energy_check
from ..energy.tech import DEFAULT_TECH, TechnologyModel
from ..obs import get_tracer
from .reporting import format_table


@reentrant(reason="the table2 device check is pure compact-model "
                  "arithmetic over the tech spec it is handed")
def build_table2(tech: TechnologyModel = DEFAULT_TECH) -> Dict:
    """Structured Table 2 content (paper values are the spec fields)."""
    with get_tracer().span("table2.build"):
        return _build_table2(tech)


def _build_table2(tech: TechnologyModel) -> Dict:
    s, m = tech.sram, tech.mram
    modelled_write, paper_write = table2_write_energy_check()
    mtj = MTJ(MTJParams())

    return {
        "sram_pe": {
            "Decoder": {"area_mm2": s.decoder_area, "power_mw": s.decoder_power},
            "Bit Cell": {"area_mm2": s.bitcell_area, "power_mw": s.bitcell_power},
            "Shift Acc": {"area_mm2": s.shift_acc_area, "power_mw": s.shift_acc_power},
            "Index Decoder": {"area_mm2": s.index_decoder_area,
                              "power_mw": s.index_decoder_power},
            "Adder": {"area_mm2": s.adder_area, "power_mw": s.adder_power},
            "TOTAL (one 128x96 PE)": {"area_mm2": s.total_area,
                                      "power_mw": s.active_power_mw},
        },
        "mram_pe": {
            "Memory Array (1024x512)": {"area_mm2": m.array_area, "power_mw": None},
            "Parallel Shift Acc": {"area_mm2": m.shift_acc_area,
                                   "power_mw": m.shift_acc_power},
            "Col Decoder + Driver": {"area_mm2": m.col_decoder_area,
                                     "power_mw": m.col_decoder_power},
            "Row Decoder + Driver": {"area_mm2": m.row_decoder_area,
                                     "power_mw": m.row_decoder_power},
            "Adder Tree": {"area_mm2": m.adder_tree_area,
                           "power_mw": m.adder_tree_power},
            "TOTAL (one 1024x512 PE)": {"area_mm2": m.total_area,
                                        "power_mw": m.active_power_mw},
        },
        "global": {
            "Global Buffer": {"area_mm2": tech.global_blocks.buffer_area,
                              "power_mw": None},
            "Global ReLU": {"area_mm2": tech.global_blocks.relu_area,
                            "power_mw": tech.global_blocks.relu_power_mw},
        },
        "mtj_device": {
            "resistance_p_ohm": m.resistance_p_ohm,
            "resistance_ap_ohm": m.resistance_ap_ohm,
            "tmr": m.tmr,
            "set_reset_energy_pj_paper": paper_write,
            "set_reset_energy_pj_model": modelled_write,
            "sense_margin_ua_at_0p1v": mtj.sense_margin_ua(),
            "retention_years": mtj.retention_years(),
        },
        "derived": {
            "sram_pe_storage_bytes": s.storage_bytes,
            "mram_pe_storage_bytes": m.storage_bytes,
            "sram_pe_leakage_mw": s.leakage_mw,
            "clock_hz": tech.clock_hz,
        },
    }


def render_table2(result: Dict) -> str:
    out = []
    for section, title in (("sram_pe", "SRAM PE"), ("mram_pe", "MRAM PE"),
                           ("global", "Global blocks")):
        rows = [[name, vals["area_mm2"],
                 "-" if vals["power_mw"] is None else vals["power_mw"]]
                for name, vals in result[section].items()]
        out.append(format_table(["Component", "Area (mm^2)", "Power (mW)"],
                                rows, title=f"Table 2 — {title}"))
        out.append("")
    dev = result["mtj_device"]
    rows = [[k, v] for k, v in dev.items()]
    out.append(format_table(["MTJ device", "Value"], rows,
                            title="Table 2 — STT-MRAM device"))
    return "\n".join(out)
