"""Exporters: Chrome ``trace_events`` JSON and flat per-phase summaries.

Two consumers of a finished :class:`~repro.obs.tracer.Tracer`:

* :func:`to_trace_events` / :func:`write_chrome_trace` — the Chrome
  ``chrome://tracing`` / Perfetto JSON object format: one complete
  (``"ph": "X"``) event per span, timestamps in microseconds relative to
  the tracer epoch, span attrs and counters in ``args``.
* :func:`summarize` — aggregation by span name (count, wall time, summed
  counters); :func:`repro.harness.reporting.render_trace_summary` renders
  it as the harness' fixed-width table.

:func:`validate_trace_events` is the schema check the unit tests and CI's
smoke trace of the ``repro.dse`` sweep share.
"""

from __future__ import annotations

import json
import pathlib
from numbers import Number
from typing import Dict, List, Optional, Union

from .tracer import Span, Tracer, get_tracer

#: Schema tag stamped into the exported trace's ``otherData``.
TRACE_SCHEMA = "repro.obs/1"


def _event_args(span: Span) -> Dict[str, object]:
    args: Dict[str, object] = {str(k): v for k, v in span.attrs.items()}
    for key, value in span.counters.items():
        args[str(key)] = value
    return args


def to_trace_events(tracer: Optional[Tracer] = None,
                    process_name: str = "repro") -> Dict[str, object]:
    """The Chrome trace-event *object format* document for a tracer's spans."""
    tracer = tracer or get_tracer()
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    for span in tracer.finished_spans():
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "pid": 0,
            "tid": span.tid,
            "ts": (span.start_ns - tracer.epoch_ns) / 1e3,
            "dur": span.duration_ns / 1e3,
            "args": _event_args(span),
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "epoch_unix_ns": tracer.epoch_unix_ns,
            "spans": len(tracer.finished_spans()),
        },
    }


def write_chrome_trace(path: Union[str, pathlib.Path],
                       tracer: Optional[Tracer] = None,
                       process_name: str = "repro") -> pathlib.Path:
    """Serialize :func:`to_trace_events` to ``path``; returns the path."""
    p = pathlib.Path(path)
    if p.parent != pathlib.Path(""):
        p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w") as f:
        json.dump(to_trace_events(tracer, process_name=process_name), f,
                  indent=1, default=str)
    return p


def validate_trace_events(doc: object) -> List[str]:
    """Schema problems of a trace-event document (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"trace document must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing/invalid 'traceEvents' array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph == "X":
            for key in ("ts", "dur"):
                value = ev.get(key)
                if not isinstance(value, Number) or isinstance(value, bool):
                    problems.append(f"{where}: 'X' event needs numeric "
                                    f"{key!r}, got {value!r}")
                elif key == "dur" and value < 0:
                    problems.append(f"{where}: negative duration {value}")
        elif ph != "M":
            problems.append(f"{where}: unexpected phase {ph!r}")
        args = ev.get("args", {})
        if not isinstance(args, dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems


# ---------------------------------------------------------------------------
# Flat summaries
# ---------------------------------------------------------------------------

def summarize(tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """Aggregate finished spans by name: count, wall time, summed counters."""
    tracer = tracer or get_tracer()
    by_name: Dict[str, Dict[str, object]] = {}
    order: List[str] = []
    for span in tracer.finished_spans():
        entry = by_name.get(span.name)
        if entry is None:
            entry = {"name": span.name, "count": 0, "wall_ns": 0,
                     "counters": {}}
            by_name[span.name] = entry
            order.append(span.name)
        entry["count"] += 1
        entry["wall_ns"] += span.duration_ns
        counters: Dict[str, float] = entry["counters"]
        for key, value in span.counters.items():
            counters[key] = counters.get(key, 0) + value
    return {"schema": TRACE_SCHEMA,
            "spans": [by_name[name] for name in order]}
