"""Interprocedural effect inference: local facts to fixpoint summaries.

Every function starts from its transfer facts (:mod:`.transfer`); a
worklist then propagates callee summaries upward until nothing changes —
the standard monotone fixpoint, guaranteed to terminate because the
lattice is a finite powerset and joins only grow.

A function carrying an ``@effects(...)`` declaration is a *trusted
leaf*: its summary is the declared set, fixed, and its body is not
consulted (that is the point — the declaration overrides inference for
implementation details like idempotent memos).

Each atom in a summary keeps one :class:`~.lattice.Origin`: either the
local AST fact that introduced it or the call edge it arrived through.
Following call origins callee-by-callee reconstructs a concrete witness
chain from any contracted entry point down to the line that actually
misbehaves — that chain is what rule R8 prints.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Tuple

from ..callgraph import CallGraph, FunctionInfo
from .lattice import ALL_EFFECTS, Origin
from .transfer import LocalFacts, analyze_local

#: Safety bound on witness-chain reconstruction (cycles cannot recurse
#: forever anyway — every effect has a local root — but belt and braces).
_WITNESS_BOUND = 64


@dataclasses.dataclass
class FunctionSummary:
    """Fixpoint result for one function."""

    facts: LocalFacts
    effects: FrozenSet[str]
    #: One representative origin per effect atom (first acquisition wins,
    #: which makes witness chains acyclic: the origin always points at a
    #: function that held the atom strictly earlier).
    origins: Dict[str, Origin]

    @property
    def info(self) -> FunctionInfo:
        return self.facts.info


class EffectAnalysis:
    """Summaries for every function of one call graph, at fixpoint."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self.summaries: Dict[str, FunctionSummary] = {}

    # -------------------------------------------------------------- running
    @classmethod
    def run(cls, graph: CallGraph) -> "EffectAnalysis":
        self = cls(graph)
        order = sorted(graph.functions)
        for qualname in order:
            info = graph.functions[qualname]
            facts = analyze_local(graph, info)
            self.summaries[qualname] = self._initial(facts)

        callers: Dict[str, List[str]] = {}
        for qualname in order:
            for edge in self.summaries[qualname].facts.edges:
                callers.setdefault(edge.callee, []).append(qualname)

        worklist = list(order)
        while worklist:
            qualname = worklist.pop(0)
            if self._update(qualname):
                for caller in callers.get(qualname, ()):
                    if caller not in worklist:
                        worklist.append(caller)
        return self

    def _initial(self, facts: LocalFacts) -> FunctionSummary:
        if facts.declared is not None:
            reason = facts.declared_reason
            origins = {e: Origin(effect=e, line=facts.info.line,
                                 kind="local",
                                 detail=f"declared by @effects ({reason})")
                       for e in facts.declared}
            return FunctionSummary(facts=facts, effects=facts.declared,
                                   origins=origins)
        origins: Dict[str, Origin] = {}
        for origin in facts.origins:
            origins.setdefault(origin.effect, origin)
        return FunctionSummary(facts=facts,
                               effects=frozenset(origins),
                               origins=origins)

    def _update(self, qualname: str) -> bool:
        """Re-join callee summaries into ``qualname``; True when grown."""
        summary = self.summaries[qualname]
        if summary.facts.declared is not None:
            return False          # trusted leaf: summary is fixed
        grew = False
        for edge in summary.facts.edges:
            callee = self.summaries.get(edge.callee)
            if callee is None:
                continue
            for effect in ALL_EFFECTS:
                if effect in callee.effects and effect not in summary.effects:
                    summary.effects = summary.effects | {effect}
                    summary.origins[effect] = Origin(
                        effect=effect, line=edge.line, kind="call",
                        detail=f"calls {edge.callee}", callee=edge.callee)
                    grew = True
        return grew

    # -------------------------------------------------------------- queries
    def effects_of(self, qualname: str) -> FrozenSet[str]:
        summary = self.summaries.get(qualname)
        return summary.effects if summary is not None else frozenset()

    def declaration_errors(self) -> List[Tuple[str, int, str]]:
        """(path, line, message) for every malformed contract declaration."""
        out = []
        for qualname in sorted(self.summaries):
            facts = self.summaries[qualname].facts
            for line, message in facts.errors:
                out.append((facts.info.path, line, message))
        return out

    def reentrant_functions(self) -> List[FunctionSummary]:
        """Summaries of every ``@reentrant``-contracted function."""
        return [self.summaries[q] for q in sorted(self.summaries)
                if self.summaries[q].facts.reentrant_line is not None]

    # ------------------------------------------------------------ witnesses
    def witness(self, qualname: str,
                effect: str) -> List[Tuple[FunctionInfo, Origin]]:
        """The origin chain for ``effect`` from ``qualname`` to its root.

        Each step pairs the function with the origin that gave it the
        atom; the last step's origin is always ``kind == "local"``.
        """
        steps: List[Tuple[FunctionInfo, Origin]] = []
        seen = set()
        current = qualname
        for _ in range(_WITNESS_BOUND):
            summary = self.summaries.get(current)
            if summary is None or effect not in summary.origins:
                break
            origin = summary.origins[effect]
            steps.append((summary.info, origin))
            if origin.kind == "local" or origin.callee is None \
                    or origin.callee in seen:
                break
            seen.add(current)
            current = origin.callee
        return steps

    def format_witness(self, qualname: str, effect: str) -> str:
        """Human form: ``a:12 -> b:30 -> c:7 [path:7: detail]``."""
        steps = self.witness(qualname, effect)
        if not steps:
            return "(no witness recorded)"
        hops = " -> ".join(f"{info.qualname}:{origin.line}"
                           for info, origin in steps)
        info, origin = steps[-1]
        return f"{hops} [{info.path}:{origin.line}: {origin.detail}]"


def analyze_project(project) -> EffectAnalysis:
    """The (cached) effect analysis of one linted project.

    R8 and R9 both need the same fixpoint over the project's call
    graph; the first rule to run builds it and the rest reuse it via an
    attribute stashed on the :class:`~repro.lint.engine.ProjectContext`.
    """
    cached = getattr(project, "_effects_analysis", None)
    if cached is None:
        cached = EffectAnalysis.run(project.call_graph)
        setattr(project, "_effects_analysis", cached)
    return cached
