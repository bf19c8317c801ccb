"""In-memory span store, outside-in wrappers, and self-time accounting.

The benchmark never edits the package under test: a :class:`Recorder`
replaces a layer's public function *where its caller looks it up* (a
module attribute or a class attribute) with a wrapper that opens a span
in a :class:`SpanStore`, calls the original, and closes the span.
``uninstall`` puts every original back.

A span records its name, start and end (``perf_counter_ns``), the span
that caused it (the innermost open span on the same thread, or an
explicit cross-thread parent), the thread, and the run id of the
operation it belongs to.  Self time is a span's duration minus the part
of it that its children cover (:func:`covered_ns` merges overlapping
children first, so concurrent children are not subtracted twice).
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)


class Span:
    """One timed call; ``end`` is None while it is open."""

    __slots__ = ("index", "name", "start", "end", "parent", "tid", "rid",
                 "attrs")

    def __init__(self, index: int, name: str, start: int,
                 parent: Optional[int], tid: int, rid: object):
        self.index = index
        self.name = name
        self.start = start
        self.end: Optional[int] = None
        self.parent = parent
        self.tid = tid
        self.rid = rid
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> int:
        return 0 if self.end is None else self.end - self.start


class SpanStore:
    """Spans of one run, appended from any thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops: Dict[object, int] = {}   # run id -> its open op span

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: object = None,
             parent: Optional[int] = None) -> Span:
        stack = self._stack()
        if stack:
            if parent is None:
                parent = stack[-1].index
            if rid is None:
                rid = stack[-1].rid
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter_ns(),
                        parent, threading.get_ident(), rid)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def open_op(self, name: str, rid: object) -> Span:
        """Open the root span of operation ``rid``; other threads can
        attach children to it through :meth:`op_index`."""
        span = self.open(name, rid=rid)
        with self._lock:
            self._ops[rid] = span.index
        return span

    def close_op(self, span: Span) -> None:
        self.close(span)
        with self._lock:
            self._ops.pop(span.rid, None)

    def op_index(self, rid: object) -> Optional[int]:
        with self._lock:
            return self._ops.get(rid)

    def finished(self) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.end is not None]


# ---------------------------------------------------------------- self time

def covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span index -> self time in ns (duration minus child coverage)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.end is not None:
            children[s.parent].append((s.start, s.end))
    return {s.index: s.duration - covered_ns(children[s.index], s.start,
                                             s.end)
            for s in spans if s.end is not None}


def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and total ``self_ms``."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for s in spans:
        if s.end is None:
            continue
        row = table.setdefault(s.name, {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += own[s.index] / 1e6
    return table


def write_chrome_trace(path, spans: Sequence[Span]) -> None:
    """Chrome ``trace_events`` JSON (open in Perfetto or chrome://tracing)."""
    finished = [s for s in spans if s.end is not None]
    epoch = min((s.start for s in finished), default=0)
    tids: Dict[int, int] = {}
    events = []
    for s in finished:
        events.append({
            "name": s.name, "ph": "X", "pid": 0,
            "tid": tids.setdefault(s.tid, len(tids)),
            "ts": (s.start - epoch) / 1e3, "dur": s.duration / 1e3,
            "args": dict(s.attrs, rid=str(s.rid), parent=s.parent,
                         index=s.index),
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ----------------------------------------------------------------- wrappers

#: ``before(args, kwargs) -> (rid, parent)`` picks a span's run id and
#: cross-thread parent; ``after(span, result)`` copies facts off the result.
Before = Callable[[tuple, dict], Tuple[object, Optional[int]]]
After = Callable[[Span, object], None]


class Recorder:
    """Installs span wrappers and removes them again."""

    def __init__(self, store: SpanStore):
        self.store = store
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str,
             before: Optional[Before] = None,
             after: Optional[After] = None) -> None:
        if inspect.isclass(owner) and attr in vars(owner):
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        store = self.store

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rid, parent = before(args, kwargs) if before else (None, None)
            span = store.open(name, rid=rid, parent=parent)
            try:
                result = original(*args, **kwargs)
            finally:
                store.close(span)
            if after is not None:
                after(span, result)
            return result

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
