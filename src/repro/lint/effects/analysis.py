"""Interprocedural effect inference: local facts to fixpoint summaries.

Every function starts from its transfer facts (:mod:`.transfer`); the
shared may-summary propagation (:func:`repro.lint.interproc.propagate`)
then pushes each callee's effect atoms up to its callers until nothing
changes — a monotone fixpoint over a finite powerset.

A function carrying an ``@effects(...)`` declaration is a *trusted
leaf*: its summary is the declared set, fixed, and its body is not
consulted (that is the point — the declaration overrides inference for
implementation details like idempotent memos).

Each atom in a summary keeps its first :class:`~repro.lint.interproc.
Origin`: the local fact that introduced it or the call edge it arrived
through.  :func:`~repro.lint.interproc.format_witness` follows the call
origins callee-by-callee from a contracted entry point down to the line
that actually misbehaves — that chain is what rule R8 prints.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..callgraph import CallGraph
from ..interproc import Origin, Summary, propagate
from .transfer import LocalFacts, analyze_local


class EffectAnalysis:
    """Effect summaries for every function of one call graph, at fixpoint."""

    def __init__(self, graph: CallGraph, facts: Dict[str, LocalFacts],
                 origins: Dict[str, Summary]):
        self.graph = graph
        #: qualname -> the transfer's local facts.
        self.facts = facts
        #: qualname -> effect atom -> first origin; the summary's effects
        #: are its keys.
        self.origins = origins

    @classmethod
    def run(cls, graph: CallGraph) -> "EffectAnalysis":
        facts = {q: analyze_local(graph, graph.functions[q])
                 for q in sorted(graph.functions)}
        origins = propagate(
            {q: _local_origins(f) for q, f in facts.items()},
            {q: f.edges for q, f in facts.items()},
            fixed={q for q, f in facts.items() if f.declared is not None})
        return cls(graph, facts, origins)

    # -------------------------------------------------------------- queries
    def declaration_errors(self) -> List[Tuple[str, int, str]]:
        """(path, line, message) for every malformed contract declaration."""
        out = []
        for qualname in sorted(self.facts):
            facts = self.facts[qualname]
            for line, message in facts.errors:
                out.append((facts.info.path, line, message))
        return out

    def reentrant_functions(self) -> List[LocalFacts]:
        """Facts of every ``@reentrant``-contracted function."""
        return [self.facts[q] for q in sorted(self.facts)
                if self.facts[q].reentrant_line is not None]


def _local_origins(facts: LocalFacts) -> Summary:
    """A function's starting summary: its declaration, else its body."""
    if facts.declared is None:
        return dict(facts.origins)
    detail = f"declared by @effects ({facts.declared_reason})"
    return {e: Origin(line=facts.info.line, kind="local", detail=detail)
            for e in facts.declared}


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
