"""Shared result-rendering and tracing helpers for the experiment harness."""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence

from .. import obs


def format_table(headers: Sequence[str], rows: List[Sequence[object]],
                 title: str = "") -> str:
    """Render a fixed-width text table (the harness' stdout format)."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    for row in str_rows:
        out.append(line(row))
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def save_json(result: Dict, path: Optional[str]) -> None:
    """Dump a result dict as JSON (no-op when path is None)."""
    if path is None:
        return
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as f:
        json.dump(result, f, indent=2, default=str)


# ---------------------------------------------------------------------------
# Observability plumbing shared by every traced command line
# ---------------------------------------------------------------------------

def begin_trace(trace_path: Optional[str]) -> bool:
    """Enable the global tracer for a traced harness run (fresh span list)."""
    if trace_path is None:
        return False
    obs.configure(enabled=True, reset=True)
    return True


def finish_trace(trace_path: Optional[str]) -> None:
    """Export the accumulated spans to ``trace_path``, print the summary
    and turn the global tracer off again."""
    if trace_path is None:
        return
    path = obs.write_chrome_trace(trace_path)
    obs.configure(enabled=False)
    print()
    print(render_trace_summary())
    print(f"\ntrace: {path} ({len(obs.get_tracer().finished_spans())} spans; "
          "open in chrome://tracing or ui.perfetto.dev)")


def render_trace_summary(tracer=None) -> str:
    """The flat per-phase table of :func:`repro.obs.summarize`."""
    summary = obs.summarize(tracer)
    rows = []
    for entry in summary["spans"]:
        counters = entry["counters"]
        shown = ", ".join(f"{k}={_fmt(float(v))}"
                          for k, v in sorted(counters.items())[:4])
        if len(counters) > 4:
            shown += f", +{len(counters) - 4} more"
        rows.append([entry["name"], entry["count"],
                     entry["wall_ns"] / 1e6, shown])
    return format_table(["Span", "Count", "Wall (ms)", "Counters (summed)"],
                        rows, title="Trace summary — spans by phase")
