"""Span tracer: nestable phase timing with attached counters.

A :class:`Span` is one timed region of a run — a harness phase, a design
evaluation, a kernel dispatch — with a name, free-form attributes, and a
dict of numeric *counters* (cycles, energy, MACs, model outputs) attached
while the span is open.  Spans nest: the tracer keeps a per-thread stack,
so a span opened inside another records its parent and depth, and the
Chrome exporter (:mod:`repro.obs.export`) can render the whole run as a
flame graph.

Timing uses ``time.perf_counter_ns`` (monotonic; wall-clock ``time.time``
is NTP-step sensitive and is banned for durations by lint rule R4).

The process-global tracer is **disabled by default** and a strict no-op
when disabled: ``span()`` returns a shared null context manager that
allocates nothing, so instrumented hot paths (the PE kernel dispatch) do
no tracing work while it is off.  Enable it with ``configure(enabled=True)``
(what a ``--trace PATH`` flag does).

Tracer lookup is **context-local**: :func:`get_tracer` first consults a
``contextvars.ContextVar`` that :func:`use_tracer` sets, falling back to
the process-global tracer when no override is active.  Concurrent request
handlers (``repro.serve``) each install their own tracer, so two
interleaved requests never attach spans or counters to each other — the
process-global registry alone cannot provide that isolation, because
every thread would share one span list.
"""

from __future__ import annotations

import contextvars
import dataclasses
import threading
import time
from typing import Dict, List, Optional

from ..core.concurrency import guarded_by

@dataclasses.dataclass
class Span:
    """One finished-or-open timed region."""

    name: str
    index: int                       # position in the tracer's span list
    start_ns: int                    # perf_counter_ns at __enter__
    end_ns: Optional[int] = None     # perf_counter_ns at __exit__ (None = open)
    depth: int = 0                   # nesting depth within its thread
    parent: Optional[int] = None     # index of the enclosing span
    tid: int = 0                     # small per-thread ordinal (not the ident)
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set(self, **attrs: object) -> "Span":
        """Attach/overwrite free-form attributes; returns self."""
        self.attrs.update(attrs)
        return self

    def count(self, **counters: float) -> "Span":
        """Accumulate numeric counters (``+=`` per key); returns self."""
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        return self


class _NullSpan:
    """The span handed out when tracing is disabled: every method no-ops."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, object] = {}
    counters: Dict[str, float] = {}
    duration_ns = 0

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def count(self, **counters: float) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _NullContext:
    """Shared, allocation-free context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Live context manager: opens a span on enter, closes it on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc: object) -> bool:
        assert self._span is not None
        self._tracer._close(self._span)
        return False


@guarded_by("_lock", "spans", "_tids")
class Tracer:
    """Span registry: per-thread nesting stacks over one shared span list.

    The shared span list and the thread-ordinal table are guarded by
    ``_lock`` (declared above, verified by lint rule R11); the per-thread
    nesting stack lives in ``threading.local`` and needs no lock.  A
    :class:`Span` object itself is only mutated by the thread that opened
    it, so field writes after ``_open`` are unguarded by design.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.epoch_ns: int = time.perf_counter_ns()
        #: Wall-clock epoch (ns since Unix epoch) paired with ``epoch_ns``,
        #: recorded once so exported traces can be dated.  Metadata only —
        #: never used in duration arithmetic.
        self.epoch_unix_ns: int = time.time_ns()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: Dict[int, int] = {}

    # ----------------------------------------------------------------- spans
    def span(self, name: str, **attrs: object):
        """Context manager for one timed region.

        Disabled tracer: returns the shared null context (no allocation
        beyond the ``attrs`` dict the call site built).  Hot paths that
        cannot afford even that should guard on :attr:`enabled`.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, attrs)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread (None outside any span)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _open(self, name: str, attrs: Dict[str, object]) -> Span:
        stack: List[Span] = getattr(self._local, "stack", None) or []
        self._local.stack = stack
        parent = stack[-1] if stack else None
        with self._lock:
            ident = threading.get_ident()
            tid = self._tids.setdefault(ident, len(self._tids))
            span = Span(name=name, index=len(self.spans),
                        start_ns=time.perf_counter_ns(),
                        depth=len(stack),
                        parent=None if parent is None else parent.index,
                        tid=tid, attrs=dict(attrs))
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack: List[Span] = getattr(self._local, "stack", [])
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:                  # mis-nested exit: drop through
            stack.remove(span)

    # -------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Drop all recorded spans and restart the epoch."""
        with self._lock:
            self.spans = []
            self.epoch_ns = time.perf_counter_ns()
            self.epoch_unix_ns = time.time_ns()
            self._local = threading.local()
            self._tids = {}

    def finished_spans(self) -> List[Span]:
        """A consistent snapshot of the closed spans (list built under
        the lock — concurrent ``_open`` appends cannot tear it)."""
        with self._lock:
            return [s for s in self.spans if s.end_ns is not None]


#: The process-global tracer every instrumentation site shares by default.
_TRACER = Tracer()

#: Context-local tracer override.  ``None`` means "use the process-global
#: tracer"; :func:`use_tracer` installs a per-request tracer here.
#: New threads start from the default context (no override), so a worker
#: thread only ever sees a context-local tracer it installed itself.
_TRACER_VAR: "contextvars.ContextVar[Optional[Tracer]]" = \
    contextvars.ContextVar("repro_obs_tracer", default=None)


def get_tracer() -> Tracer:
    """The *active* tracer: the context-local override when one is
    installed (:func:`use_tracer`), else the process-global tracer."""
    tracer = _TRACER_VAR.get()
    return _TRACER if tracer is None else tracer


class use_tracer:
    """Install ``tracer`` as the context-local tracer for a ``with`` block.

    Every :func:`get_tracer` call in the block (and in functions it calls,
    on the same thread/context) resolves to ``tracer``; the previous
    binding is restored on exit, even on exceptions.  Nestable.
    """

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Tracer:
        self._token = _TRACER_VAR.set(self._tracer)
        return self._tracer

    def __exit__(self, *exc: object) -> bool:
        assert self._token is not None
        _TRACER_VAR.reset(self._token)
        self._token = None
        return False


def configure(enabled: Optional[bool] = None, reset: bool = False) -> Tracer:
    """Reconfigure the *global* tracer; returns it for chaining."""
    if reset:
        _TRACER.reset()
    if enabled is not None:
        _TRACER.enabled = enabled
    return _TRACER


def span(name: str, **attrs: object):
    """Module-level shorthand for ``get_tracer().span(...)``."""
    return get_tracer().span(name, **attrs)
