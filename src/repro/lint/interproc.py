"""The interprocedural layer the effects and concurrency verifiers share.

:mod:`.callgraph` resolves each call to the qualnames it reaches; this
module holds the four mechanisms both verifiers build on top of it:

:func:`global_write`
    The one classifier of writes to module-level state: rule R8 reads it
    as the ``WRITES_GLOBAL`` effect, rule R14 as a write that needs a
    lock when a thread target reaches it.
:func:`propagate`
    May-summaries at fixpoint.  Each function starts from its local atoms
    (an effect, a lock it acquires, "may block"), each with an
    :class:`Origin`; atoms are pushed from callees to callers until
    nothing changes.  An atom keeps its first origin, deferred edges
    (work handed to another thread) carry nothing, and declared leaves
    keep their summary.
:func:`witness` / :func:`format_witness`
    The chain of origins from a function down to the local fact that put
    an atom in its summary.
:func:`reachable`
    Forward reachability over the non-deferred call edges.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import (Collection, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .callgraph import CallGraph, FunctionScope

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popitem", "remove", "reverse", "setdefault", "sort", "update",
    "__delitem__", "__setitem__",
})


@dataclasses.dataclass(frozen=True)
class Origin:
    """Why a function's summary holds one atom: a local fact or a callee.

    ``kind == "local"``: ``detail`` describes the fact (``"call to
    numpy.random.rand"``, a declaration) at ``line`` of the function's
    own file.  ``kind == "call"``: the atom came from ``callee``, called
    at ``line``; witness chains follow these links down to a local fact.
    """

    line: int
    kind: str                      # "local" or "call"
    detail: str
    callee: Optional[str] = None


@dataclasses.dataclass
class CallEdge:
    """One resolved in-package call: who, and from which line.

    A *deferred* edge (a thread target, an executor submission) runs
    later on another thread: it carries no atoms to its caller.
    """

    callee: str
    line: int
    deferred: bool = False


#: A may-summary: atom -> the origin that first put it there.
Summary = Dict[str, Origin]


# ---------------------------------------------------------------------------
# Writes to module-level state
# ---------------------------------------------------------------------------

def global_write(scope: FunctionScope, node: ast.AST) -> Optional[str]:
    """How ``node`` writes module-level state, or None if it does not.

    A write is a store to (or ``del`` of) a name the function declares
    ``global``, or a store, ``del`` or :data:`MUTATING_METHODS` call on
    module-level state: a module-level name, or anything reached from one
    or from an imported module through attributes and subscripts
    (``TABLE[k]``, ``BOX.items``, ``os.environ``).  Chains rooted at
    ``self`` or another local mutate the caller's data, not the
    process's.
    """
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            root = _module_state(scope, func.value)
            if root is not None:
                return (f"mutating call {ast.unparse(func)}() on "
                        f"module-level {root!r}")
        return None
    ctx = getattr(node, "ctx", None)
    if not isinstance(ctx, (ast.Store, ast.Del)):
        return None
    if isinstance(node, ast.Name):
        if node.id in scope.globals:
            return f"rebinds module global {node.id!r}"
        return None
    root = _module_state(scope, node)
    if root is None:
        return None
    verb = "del" if isinstance(ctx, ast.Del) else "store to"
    return f"{verb} {ast.unparse(node)} on module-level {root!r}"


def _module_state(scope: FunctionScope, expr: ast.expr) -> Optional[str]:
    """The root name of ``expr`` when it denotes module-level state."""
    root = expr
    while isinstance(root, (ast.Attribute, ast.Subscript)):
        root = root.value
    if not isinstance(root, ast.Name):
        return None
    binding = scope.resolve(root)
    if binding is None:
        return None
    # A module is state only when reached into: ``os.remove(p)`` calls a
    # function, ``os.environ[k] = v`` stores into the process.
    if binding[0] == "global" or (binding[0] == "module"
                                  and root is not expr):
        return root.id
    return None


# ---------------------------------------------------------------------------
# Summaries, witnesses, reachability
# ---------------------------------------------------------------------------

def propagate(summaries: Dict[str, Summary],
              edges: Mapping[str, Sequence[CallEdge]],
              fixed: Collection[str] = ()) -> Dict[str, Summary]:
    """Grow ``summaries`` (local atoms, updated in place) to the fixpoint.

    Rounds visit the functions in sorted order and each one's edges in
    source order, so an atom's first origin is the same on every run.
    First-origin-wins keeps witness chains acyclic: an origin always
    names a callee that held the atom strictly earlier.  Terminates
    because summaries only grow over a finite set of atoms.
    """
    order = [q for q in sorted(summaries) if q not in fixed]
    changed = True
    while changed:
        changed = False
        for qualname in order:
            mine = summaries[qualname]
            for edge in edges.get(qualname, ()):
                if edge.deferred:
                    continue
                for atom in summaries.get(edge.callee, ()):
                    if atom not in mine:
                        mine[atom] = Origin(
                            line=edge.line, kind="call",
                            detail=f"calls {edge.callee}",
                            callee=edge.callee)
                        changed = True
    return summaries


def witness(summaries: Mapping[str, Summary], qualname: str,
            atom: str) -> List[Tuple[str, Origin]]:
    """(function, origin) steps from ``qualname`` down to the local fact
    that introduced ``atom``; empty when ``qualname`` lacks the atom."""
    steps: List[Tuple[str, Origin]] = []
    current: Optional[str] = qualname
    while current is not None:
        origin = summaries.get(current, {}).get(atom)
        if origin is None:
            break
        steps.append((current, origin))
        current = origin.callee
    return steps


def format_witness(graph: CallGraph, summaries: Mapping[str, Summary],
                   qualname: str, atom: str) -> str:
    """Human form: ``a:12 -> b:30 -> c:7 [path:7: detail]``."""
    steps = witness(summaries, qualname, atom)
    if not steps:
        return "(no witness recorded)"
    hops = " -> ".join(f"{q}:{origin.line}" for q, origin in steps)
    leaf, origin = steps[-1]
    info = graph.function_for(leaf)
    path = info.path if info is not None else "?"
    return f"{hops} [{path}:{origin.line}: {origin.detail}]"


def reachable(roots: Iterable[str],
              edges: Mapping[str, Sequence[CallEdge]]) -> Set[str]:
    """Every function reachable from ``roots`` over non-deferred edges
    (roots included; names without an ``edges`` entry are skipped)."""
    seen: Set[str] = set()
    frontier = list(roots)
    while frontier:
        qualname = frontier.pop()
        if qualname in seen or qualname not in edges:
            continue
        seen.add(qualname)
        frontier.extend(edge.callee for edge in edges[qualname]
                        if not edge.deferred)
    return seen
