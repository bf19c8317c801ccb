"""ASCII rendering of the paper's figures (log-scale bar charts).

The numeric harnesses (:mod:`repro.harness.fig7`, ``fig8``) print tables;
this module renders the same results as horizontal bar charts mimicking the
paper's plots — including Fig. 7's log-scale power axis with the
leakage/read split, so the reproduction can be eyeballed against the PDF.

Run: ``python -m repro figures``
"""

from __future__ import annotations

import math
from typing import Dict, List

from .fig7 import build_fig7
from .fig8 import build_fig8

BAR_WIDTH = 48


def _log_bar(value: float, vmin: float, vmax: float,
             width: int = BAR_WIDTH, fill: str = "#") -> str:
    """A log-scale bar: empty at vmin, full at vmax."""
    if value <= 0:
        return ""
    span = math.log10(vmax) - math.log10(vmin)
    if span <= 0:
        return fill * width
    frac = (math.log10(value) - math.log10(vmin)) / span
    return fill * max(1, int(round(width * min(max(frac, 0.0), 1.0))))


def _linear_bar(value: float, vmax: float, width: int = BAR_WIDTH,
                fill: str = "#") -> str:
    if vmax <= 0:
        return ""
    return fill * max(1, int(round(width * min(value / vmax, 1.0))))


def render_fig7_chart(result: Dict) -> str:
    """Fig. 7 as two bar charts: log-scale power (leak/read split) + area."""
    rows = result["rows"]
    out: List[str] = ["Fig. 7a — normalized inference power (log scale)",
                      "-" * 64]
    powers = [r["power_rel"] for r in rows]
    vmin = min(powers) / 2
    vmax = max(powers)
    for r in rows:
        leak_frac = (r["leakage_rel"] / r["power_rel"]
                     if r["power_rel"] else 0.0)
        bar = _log_bar(r["power_rel"], vmin, vmax)
        leak_chars = int(round(len(bar) * leak_frac))
        shaded = "L" * leak_chars + "r" * (len(bar) - leak_chars)
        out.append(f"{r['design']:12s} |{shaded:<{BAR_WIDTH}s}| "
                   f"{r['power_rel']:.4g}")
    out.append("               (L = leakage share, r = read share)")
    out.append("")
    out.append("Fig. 7b — normalized area")
    out.append("-" * 64)
    amax = max(r["area_rel"] for r in rows)
    for r in rows:
        bar = _linear_bar(r["area_rel"], amax)
        out.append(f"{r['design']:12s} |{bar:<{BAR_WIDTH}s}| "
                   f"{r['area_rel']:.3f}")
    return "\n".join(out)


def render_fig8_chart(result: Dict) -> str:
    """Fig. 8 as a log-scale EDP bar chart, grouped as in the paper."""
    rows = result["rows"]
    out: List[str] = ["Fig. 8 — continual-learning EDP "
                      "(log scale, rel. to Ours 1:8)", "-" * 64]
    edps = [r["edp_rel"] for r in rows]
    vmin = min(edps) / 2
    vmax = max(edps)
    group = None
    for r in rows:
        if r["group"] != group:
            group = r["group"]
            out.append(f"[{group}]")
        bar = _log_bar(r["edp_rel"], vmin, vmax)
        out.append(f"  {r['design']:12s} |{bar:<{BAR_WIDTH}s}| "
                   f"{r['edp_rel']:.4g}")
    return "\n".join(out)


def build_figures() -> Dict:
    """The Fig. 7 and Fig. 8 results the charts draw."""
    return {"fig7": build_fig7(), "fig8": build_fig8()}


def render_figures(result: Dict) -> str:
    return (render_fig7_chart(result["fig7"]) + "\n\n"
            + render_fig8_chart(result["fig8"]))
