"""The per-layer metrics of a traced run, and their declared list.

:func:`per_layer_spec` is the list ``BENCHMARK.json`` records under
``per_layer``; :func:`per_layer_metrics` produces exactly those names from
a traced run, with zeros for layers the workload never reaches.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .layers import LAYERS, layer_table, queue_wait_ms
from .spans import Span, self_times
from .workloads import COUNT_NAMES, RATIOS

#: Span-derived metrics beside the per-layer calls and self times.
DERIVED = (
    ("bench.op.calls", "count"),          # operations traced
    ("bench.op.ms", "ms"),                # their total traced duration
    ("bench.other_ms", "ms"),             # op time outside every layer
    ("bench.untraced_op.ms", "ms"),       # same work, tracing off
    ("bench.trace_overhead_ms", "ms"),    # traced - untraced
    ("serve.queue_wait_ms", "ms"),        # submit - its batch's engine call
)

#: Counts where a larger value means less work or better reuse.
HIGHER_IS_BETTER = ("repro.dse.cache.DiskCache.hits",
                    "repro.dse.cache.hit_ratio", "serve.coalesced",
                    "serve.requests_per_batch")


def per_layer_spec() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in output order."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer.name}.calls", "count", "lower"))
        spec.append((f"{layer.name}.self_ms", "ms", "lower"))
    spec += [(name, unit, "lower") for name, unit in DERIVED]
    spec += [(name, "ratio" if name in RATIOS else "count",
              "higher" if name in HIGHER_IS_BETTER else "lower")
             for name in COUNT_NAMES]
    return spec


def per_layer_metrics(spans: Sequence[Span], untraced_ms: float,
                      counts: Dict[str, float]) -> Dict[str, dict]:
    """Every :func:`per_layer_spec` metric as ``{"value", "unit"}``."""
    own = self_times(spans)
    ops = [s for s in spans if s.name == "bench.op"]
    traced_ms = sum(s.duration for s in ops) / 1e6
    values: Dict[str, float] = {}
    for name, row in layer_table(spans).items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_ms"] = row["self_ms"]
    values.update({
        "bench.op.calls": len(ops),
        "bench.op.ms": traced_ms,
        "bench.other_ms": sum(own[s.index] for s in ops) / 1e6,
        "bench.untraced_op.ms": untraced_ms,
        "bench.trace_overhead_ms": traced_ms - untraced_ms,
        "serve.queue_wait_ms": queue_wait_ms(spans),
    })
    unknown = set(counts) - set(COUNT_NAMES)
    if unknown:
        raise KeyError(f"counts missing from COUNT_NAMES: {sorted(unknown)}")
    values.update({name: counts.get(name, 0) for name in COUNT_NAMES})
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()}


def self_time_table(metrics: Dict[str, dict]) -> List[str]:
    """Human-readable self-time lines: layers by self time, each with the
    end-to-end metric it should move, then ``other``.  Shares are of all
    traced time, set-up spans outside operations included."""
    lines = [f"  {'layer':<60} {'calls':>8} {'self ms':>10} {'share':>6}  "
             "should move"]
    rows = [(layer.name, metrics[f"{layer.name}.calls"]["value"],
             metrics[f"{layer.name}.self_ms"]["value"], layer.moves)
            for layer in LAYERS]
    rows = sorted((r for r in rows if r[1]), key=lambda r: -r[2])
    rows.append(("other (op time outside every layer)",
                 metrics["bench.op.calls"]["value"],
                 metrics["bench.other_ms"]["value"], ""))
    total = sum(row[2] for row in rows) or 1.0
    for name, calls, self_ms, moves in rows:
        lines.append(f"  {name:<60} {calls:>8} {self_ms:>10.2f} "
                     f"{self_ms / total:>6.1%}  {moves}")
    return lines
