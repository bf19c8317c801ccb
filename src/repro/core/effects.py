"""Reentrancy contracts and effect declarations for hot-path functions.

The DSE engine and the serve layer's concurrent requests call these
functions.  That is only sound when the per-call evaluators are
*reentrant*: transitively free of module-global writes, ambient RNG, and
hash-order-dependent iteration — so two calls with equal arguments
return equal results no matter which process runs them, in what order,
or what ran before.

:func:`reentrant` declares that contract on a function.  Like
:func:`repro.core.widths.width_contract`, it is a no-op at runtime beyond
attaching metadata: the interprocedural effect verifier in
:mod:`repro.lint.effects` (rule R8, ``python -m repro.lint --effects``)
re-reads the same declaration from the AST and *proves* the property over
the package-wide call graph, reporting the offending call chain when it
does not hold.

:func:`effects` is the trusted escape hatch for leaves the analysis
cannot or should not see through: it declares a function's effect summary
explicitly (with a mandatory human justification), and the verifier uses
the declaration *instead of* analysing the body.  The canonical use is an
idempotent memo — observably pure to callers, but implemented with a
module-level cache the write-detector would otherwise flag.

Keeping both decorators in ``repro.core`` (not ``repro.lint``) means the
contracted modules never import the analysis that checks them.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

#: Attribute name :func:`reentrant` stores its metadata under.
REENTRANT_ATTR = "__reentrant__"

#: Attribute name :func:`effects` stores its declared summary under.
EFFECTS_ATTR = "__effects__"

#: Effect names :func:`effects` accepts (mirrors the lint lattice).
EFFECT_NAMES = ("READS_GLOBAL", "WRITES_GLOBAL", "AMBIENT_RNG", "IO",
                "NONDETERMINISTIC_ORDER")

_F = TypeVar("_F", bound=Callable)


def reentrant(fn: Optional[_F] = None, *, reason: str = "") -> _F:
    """Declare a function reentrant (stateless-per-call, shard-safe).

    Usable bare (``@reentrant``) or called (``@reentrant(reason=...)``).
    Returns the function unchanged — no wrapper, so a decorated function
    pickles by name exactly as the undecorated one does.

    Rule R8 verifies the declaration: the function must be transitively
    free of ``WRITES_GLOBAL``, ``AMBIENT_RNG`` and
    ``NONDETERMINISTIC_ORDER`` effects (reads of module state, IO and
    clocks are allowed — caches and tracers may observe the world, they
    just may not let one call perturb the next).
    """
    def mark(func: _F) -> _F:
        setattr(func, REENTRANT_ATTR, {"reason": reason})
        return func
    if fn is not None:
        return mark(fn)
    return mark  # type: ignore[return-value]


def effects(*names: str, reason: str) -> Callable[[_F], _F]:
    """Declare a function's effect summary, overriding inference.

    ``names`` are drawn from :data:`EFFECT_NAMES`; an empty list declares
    the function pure.  ``reason`` is mandatory — a declared summary is a
    trust statement, and the justification must travel with it (the
    verifier surfaces declarations in its reports, and the suppression
    audit treats an unjustified one as a defect).
    """
    unknown = [n for n in names if n not in EFFECT_NAMES]
    if unknown:
        raise ValueError(f"unknown effect name(s) {unknown}; "
                         f"choose from {EFFECT_NAMES}")
    if not reason:
        raise ValueError("effects(...) requires a non-empty reason=")

    def mark(func: _F) -> _F:
        setattr(func, EFFECTS_ATTR,
                {"effects": tuple(names), "reason": reason})
        return func
    return mark
