"""Lock-discipline contracts for the threaded serving stack.

``repro.serve`` made the repo a threaded system: one HTTP handler thread
per request, each evaluating inline behind a per-key single-flight, a
job executor, a lock-guarded tracer.  The invariants that keep it correct — *which lock
guards which field*, and *which entry points may never be called with a
lock held* — live in code review today.  These decorators make them
declarations the static concurrency verifier in
:mod:`repro.lint.concurrency` (rules R11-R14 of ``python -m
repro.lint``) re-reads from the AST and proves over the package-wide
call graph.

:func:`guarded_by` is the Eraser-style field contract: it names a lock
and the fields that may only be read or written while that lock is held.
Rule R11 runs a lockset analysis over every method (propagating held-lock
sets interprocedurally) and flags any access to a declared field whose
statically-held lockset misses the declared lock.

:func:`holds_no_locks` marks a *blocking* entry point — one that may
sleep on an event, join a worker, or run a multi-second engine call — and
promises its callers never invoke it while holding any lock.  Rule R12
enforces the promise at every call site.

Both decorators follow :func:`repro.core.effects.reentrant`: they attach
metadata attributes and return their target unchanged — no wrappers, no
``__dict__`` growth on instances — so contracted classes stay picklable
and zero-overhead at runtime.
"""

from __future__ import annotations

from typing import Callable, Optional, Type, TypeVar

#: Attribute name :func:`guarded_by` stores its field->lock map under.
GUARDED_BY_ATTR = "__guarded_by__"

#: Attribute name :func:`holds_no_locks` stores its metadata under.
HOLDS_NO_LOCKS_ATTR = "__holds_no_locks__"

_C = TypeVar("_C", bound=Type)
_F = TypeVar("_F", bound=Callable)


def guarded_by(lock: str, *fields: str) -> Callable[[_C], _C]:
    """Class decorator: ``fields`` may only be touched with ``lock`` held.

    ``lock`` names either a synchronization attribute of the decorated
    class itself (``"_lock"``, ``"_cond"``) or, dotted, one of another
    class in the same module (``"JobStore._lock"``) — the pattern where a
    registry object's lock guards the mutable fields of the records it
    owns.  ``fields`` are attribute names of the decorated class.

    Stackable: several ``@guarded_by`` decorations on one class merge,
    so different locks can guard different field groups.  The decorator
    only records the declaration; rule R11 of ``python -m repro.lint``
    is what verifies every access site.
    """
    if not lock or not isinstance(lock, str):
        raise ValueError("guarded_by() needs a lock attribute name")
    if not fields:
        raise ValueError(f"guarded_by({lock!r}) declares no fields; "
                         "name the attributes the lock guards")
    bad = [f for f in fields if not f or not isinstance(f, str)]
    if bad:
        raise ValueError(f"guarded_by({lock!r}): field names must be "
                         f"non-empty strings, got {bad!r}")

    def mark(cls: _C) -> _C:
        # Copy before merging: subclasses must not mutate a base's map.
        table = dict(getattr(cls, GUARDED_BY_ATTR, None) or {})
        for field in fields:
            table[field] = lock
        setattr(cls, GUARDED_BY_ATTR, table)
        return cls
    return mark


def holds_no_locks(fn: Optional[_F] = None, *, reason: str = "") -> _F:
    """Declare that a function blocks and must be called lock-free.

    Usable bare (``@holds_no_locks``) or called
    (``@holds_no_locks(reason=...)``).  Returns the function unchanged.

    Rule R12 enforces the contract from both sides: every call site
    reached with a non-empty static lockset is a finding, and so is any
    lock the function itself still holds when it reaches a blocking
    operation.  The declaration also marks the function as *may-block*
    for interprocedural propagation, even when the analysis cannot see
    the blocking leaf (an opaque C call, a subprocess).
    """
    def mark(func: _F) -> _F:
        setattr(func, HOLDS_NO_LOCKS_ATTR, {"reason": reason})
        return func
    if fn is not None:
        return mark(fn)
    return mark  # type: ignore[return-value]

