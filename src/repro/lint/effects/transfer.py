"""Per-function effect extraction: local AST facts plus call edges.

For one function the transfer produces:

* **local effects with origins** — writes to module-level state (the
  shared :func:`~repro.lint.interproc.global_write` classifier), reads
  of module-level mutable state, ambient-RNG calls, IO and hash-ordered
  iteration (each with the line and a human description; the first
  origin of each atom is kept);
* **call edges** — every call the binder resolves to an in-package
  function, including constructor edges (``__init__``/``__post_init__``)
  and registry fan-out (``REGISTRY[name](...)`` edges to every
  registered implementation);
* **contract declarations** — ``@reentrant`` and ``@effects(...)``
  read back from the decorator list, with extraction errors for
  malformed declarations.

Receiver discipline (what keeps the analysis usable): writes through
``self`` or through locally-created objects are *not* global effects —
reentrancy is about module state, and a method mutating the object it
was handed mutates its caller's data, not the process.  Only receivers
that resolve to module-level bindings count.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from ..astutil import decorator_tail, dotted_name, iter_nodes, keyword_str
from ..callgraph import CallGraph, FunctionInfo, FunctionScope
from ..interproc import CallEdge, Origin, global_write
from .lattice import (AMBIENT_RNG, NONDETERMINISTIC_ORDER, READS_GLOBAL,
                      WRITES_GLOBAL, effect_set)
from .summaries import leaf_summary

#: Reducers whose result depends on element order (joined/accumulated).
ORDER_SENSITIVE_REDUCERS = frozenset({"sum", "join", "list", "tuple"})

#: Decorator names the contract extractor recognises (bare or dotted tail).
REENTRANT_DECORATOR = "reentrant"
EFFECTS_DECORATOR = "effects"


@dataclasses.dataclass
class LocalFacts:
    """Everything the transfer learned about one function."""

    info: FunctionInfo
    #: Effect atom -> its first local origin.
    origins: Dict[str, Origin] = dataclasses.field(default_factory=dict)
    edges: List[CallEdge] = dataclasses.field(default_factory=list)
    reentrant_line: Optional[int] = None
    reentrant_reason: str = ""
    declared: Optional[frozenset] = None       # @effects(...) override
    declared_reason: str = ""
    errors: List[Tuple[int, str]] = dataclasses.field(default_factory=list)


def analyze_local(graph: CallGraph, info: FunctionInfo) -> LocalFacts:
    """Run the transfer over one function definition."""
    facts = LocalFacts(info=info)
    _extract_contracts(info, facts)
    _Transfer(graph.scope(info), facts).run()
    return facts


# ---------------------------------------------------------------------------
# Contract extraction
# ---------------------------------------------------------------------------

def _extract_contracts(info: FunctionInfo, facts: LocalFacts) -> None:
    for deco in info.decorators:
        tail = decorator_tail(deco)
        if tail == REENTRANT_DECORATOR:
            facts.reentrant_line = deco.lineno
            if isinstance(deco, ast.Call):
                facts.reentrant_reason = keyword_str(deco, "reason") or ""
        elif tail == EFFECTS_DECORATOR and isinstance(deco, ast.Call):
            declared, errors = _parse_effects(deco, info)
            facts.errors.extend(errors)
            if declared is not None:
                facts.declared = declared
                facts.declared_reason = keyword_str(deco, "reason") or ""


def _parse_effects(deco: ast.Call, info: FunctionInfo
                   ) -> Tuple[Optional[frozenset],
                              List[Tuple[int, str]]]:
    names: List[str] = []
    errors: List[Tuple[int, str]] = []
    for arg in deco.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            names.append(arg.value)
        else:
            errors.append((deco.lineno,
                           f"@effects on {info.name!r}: effect names must "
                           "be string literals"))
            return None, errors
    reason = keyword_str(deco, "reason")
    if not reason:
        errors.append((deco.lineno,
                       f"@effects on {info.name!r} needs a non-empty "
                       "literal reason= justification"))
        return None, errors
    try:
        return effect_set(*names), errors
    except ValueError as exc:
        errors.append((deco.lineno, f"@effects on {info.name!r}: {exc}"))
        return None, errors


# ---------------------------------------------------------------------------
# The transfer visitor
# ---------------------------------------------------------------------------

class _Transfer:
    def __init__(self, scope: FunctionScope, facts: LocalFacts):
        self.scope = scope
        self.info = scope.info
        self.facts = facts
        #: Locals every assignment of which is a set: iterating them is
        #: hash-ordered.
        self.set_locals = _set_locals(self.scope)

    # ------------------------------------------------------------- plumbing
    def emit(self, effect: str, line: int, detail: str) -> None:
        if effect not in self.facts.origins:
            self.facts.origins[effect] = Origin(line=line, kind="local",
                                                detail=detail)

    # ------------------------------------------------------------- the walk
    def run(self) -> None:
        handlers = {}
        for stmt in self.info.node.body:
            for node in iter_nodes(stmt):
                kind = type(node)
                if kind not in handlers:
                    handlers[kind] = getattr(self, f"_visit_{kind.__name__}",
                                             None)
                if handlers[kind] is not None:
                    handlers[kind](node)

    # writes to module-level state ----------------------------------------
    def _check_write(self, node: ast.AST) -> None:
        detail = global_write(self.scope, node)
        if detail is not None:
            self.emit(WRITES_GLOBAL, node.lineno, detail)

    _visit_Attribute = _visit_Subscript = _check_write

    # reads -----------------------------------------------------------------
    def _visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            self._check_write(node)
            return
        info = self.scope.module_global(node.id)
        if info is not None and info[1] in ("mutable", "object"):
            self.emit(READS_GLOBAL, node.lineno,
                      f"read of module-level mutable {node.id!r}")

    # iteration order -------------------------------------------------------
    def _visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)

    def _visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)

    def _is_set_typed(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            callee = dotted_name(expr.func)
            return callee in ("set", "frozenset")
        if isinstance(expr, ast.Name):
            return expr.id in self.set_locals
        return False

    def _check_iteration(self, iter_expr: ast.expr) -> None:
        if self._is_set_typed(iter_expr):
            self.emit(NONDETERMINISTIC_ORDER, iter_expr.lineno,
                      "iteration over a hash-ordered set (wrap in "
                      "sorted(...) for a stable order)")

    # calls -----------------------------------------------------------------
    def _visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        parts = dotted.split(".") if dotted is not None else []
        # Order-sensitive reduction over a set-typed argument.
        if parts and parts[-1] in ORDER_SENSITIVE_REDUCERS and node.args \
                and self._is_set_typed(node.args[0]):
            self.emit(NONDETERMINISTIC_ORDER, node.lineno,
                      f"{parts[-1]}() over a hash-ordered set")
        self._check_write(node)
        resolved = self.scope.resolve(node.func)
        if resolved is not None and resolved[0] == "external":
            self._external_call(resolved[1], node)
            return
        for callee in self.scope.callees(node):
            self.facts.edges.append(CallEdge(callee=callee, line=node.lineno))

    def _external_call(self, dotted: str, node: ast.Call) -> None:
        if dotted.split(".")[-1] == "default_rng" and not node.args:
            self.emit(AMBIENT_RNG, node.lineno,
                      "argless default_rng() seeds from OS entropy")
            return
        summary = leaf_summary(dotted)
        if not summary:
            return
        for effect in sorted(summary):
            self.emit(effect, node.lineno, f"call to {dotted}")


def _set_locals(scope: FunctionScope) -> Set[str]:
    """Locals every binding of which is a set literal, a ``set(...)`` or
    ``frozenset(...)`` call, or another such local."""
    sets: Set[str] = set()
    while True:    # grows monotonically; chains settle within len(sources)
        grown = {name for name, sources in scope.sources.items()
                 if all(kind == "value" and not path
                        and _is_set_value(value, sets)
                        for kind, value, path in sources)}
        if grown == sets:
            return sets
        sets = grown


def _is_set_value(value: ast.expr, sets: Set[str]) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        return dotted_name(value.func) in ("set", "frozenset")
    return isinstance(value, ast.Name) and value.id in sets
