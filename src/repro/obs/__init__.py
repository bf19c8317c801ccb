"""``repro.obs`` — span/counter observability for the simulators and harness.

Dependency-free instrumentation layer (stdlib only):

* :class:`Tracer` / :func:`span` — nestable ``span("phase", **attrs)``
  contexts timed with monotonic ``perf_counter_ns``; spans carry free-form
  attrs plus numeric counters (:meth:`Span.count`).
* :mod:`repro.obs.counters` — snapshot/delta helpers that turn
  ``PEStats``/energy objects into span counters.
* :mod:`repro.obs.export` — Chrome ``trace_events`` JSON
  (``chrome://tracing`` / Perfetto) and flat per-phase summaries.

Disabled by default and a strict no-op when disabled; enable with
``configure(enabled=True)``.  Every experiment and the sweep wire this up
behind a ``--trace out.json`` flag, and a serve request behind
``"trace": true``::

    python -m repro fig7 --trace fig7.trace.json
"""

from .counters import as_counters, counter_delta, flatten_stats, nonzero
from .export import (TRACE_SCHEMA, summarize, to_trace_events,
                     validate_trace_events, write_chrome_trace)
from .tracer import (NULL_SPAN, Span, Tracer, configure, get_tracer, span,
                     use_tracer)

__all__ = [
    "Span", "Tracer", "NULL_SPAN",
    "configure", "get_tracer", "span", "use_tracer",
    "as_counters", "counter_delta", "flatten_stats", "nonzero",
    "TRACE_SCHEMA", "summarize", "to_trace_events", "validate_trace_events",
    "write_chrome_trace",
]
