"""Interprocedural concurrency summaries over the project call graph.

Built over the one :class:`~repro.lint.callgraph.CallGraph` a lint run
builds and shares between its verifiers, and over the shared layer in
:mod:`repro.lint.interproc`:

**Entry locksets** — the set of locks *provably held whenever a function
is entered*.  Public functions (and dunders) are entered lock-free by
definition; a private helper's entry set is the intersection, over every
call site, of the locks held there plus the caller's own entry set.
Deferred references (thread targets, executor submissions, lambda
bodies) run on another thread and contribute an empty site.  The
fixpoint only shrinks, so recompute-until-stable terminates.  This is
what lets ``DiskCache._remember`` stay lock-free in source while R11
proves its guarded memory-tier writes safe: every call site sits inside
``DiskCache._lock``.
It is the one must-summary here, so it keeps its own fixpoint.

**May-block and acquired-lock summaries** — two runs of the shared
may-summary propagation (:func:`~repro.lint.interproc.propagate`) over
the non-deferred call sites.  A function may block (R12) when it reaches
a blocking leaf; the leaf's local fact records the locks it releases
while blocked (``Condition.wait`` drops its own lock, so a caller
holding exactly that condition is fine, while any other held lock is a
finding), and a local leaf that releases nothing is preferred
(strictest).  The acquired set holds the locks a function (transitively)
takes; crossed with locks held at call sites it yields the global
lock-*order* graph whose cycles are R13's deadlocks, and re-acquisition
of a non-reentrant lock on a path that already holds it.

**Thread-reachability** — functions reachable from thread targets and
executor submissions (:func:`~repro.lint.interproc.reachable`), the
scope of R14's check on writes to module-level state.

The dedup discipline: *local* checks use locally-held locks only, and
*call-site* checks use site-held locks only — entry-set contributions
are always caught one frame up, at the site that actually holds the
lock, so each violating chain produces exactly one finding.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..callgraph import CallGraph
from ..interproc import (Origin, Summary, format_witness, propagate,
                         reachable, witness)
from .locksets import EMPTY, FunctionFacts, analyze_function
from .model import BLOCKING_INTERNAL, ProjectModel, build_model, short_lock

#: Bounds on entry-lockset rounds / unguarded-path walks and the edge
#: witnesses one lock-order cycle finding lists.
_ROUND_BOUND = 64
WITNESS_BOUND = 16

#: The one atom of a may-block summary.
BLOCKS = "blocks"


@dataclasses.dataclass
class OrderEdge:
    """One lock-order edge a->b with the site that witnessed it."""
    first: str
    second: str
    qualname: str
    line: int
    detail: str


_Site = Tuple[str, int, FrozenSet[str], bool]    # caller, line, held, deferred


class ConcurrencyAnalysis:
    """All concurrency summaries of one linted project, at fixpoint."""

    def __init__(self, graph: CallGraph, model: ProjectModel):
        self.graph = graph
        self.model = model
        self.facts: Dict[str, FunctionFacts] = {}
        self.entry: Dict[str, FrozenSet[str]] = {}
        self.sites_by_callee: Dict[str, List[_Site]] = {}
        #: qualname -> {BLOCKS: origin} when it may block, else {}.
        self.blocks: Dict[str, Summary] = {}
        #: Blocking leaf qualname -> locks its blocking fact releases.
        self.releases: Dict[str, FrozenSet[str]] = {}
        #: qualname -> acquired lock -> first origin.
        self.acquired: Dict[str, Summary] = {}
        self.order_edges: Dict[Tuple[str, str], OrderEdge] = {}
        self.thread_reachable: Set[str] = set()

    # -------------------------------------------------------------- running
    @classmethod
    def run(cls, graph: CallGraph) -> "ConcurrencyAnalysis":
        self = cls(graph, build_model(graph))
        order = sorted(graph.functions)
        for qualname in order:
            self.facts[qualname] = analyze_function(
                self.model, graph.functions[qualname])
        for qualname in order:
            for site in self.facts[qualname].calls:
                self.sites_by_callee.setdefault(site.callee, []).append(
                    (qualname, site.line, site.held, site.deferred))
        self._entry_fixpoint(order)
        edges = {q: self.facts[q].calls for q in order}
        self.blocks = propagate({q: self._local_block(q) for q in order},
                                edges)
        self.acquired = propagate(
            {q: self._local_acquires(q) for q in order}, edges)
        self._order_graph(order)
        self.thread_reachable = reachable(
            (site.callee for q in order for site in self.facts[q].calls
             if site.deferred and site.via in ("thread-target", "executor")),
            edges)
        return self

    # ------------------------------------------------------- entry locksets
    def entered_lock_free(self, qualname: str) -> bool:
        """Functions defined to start from an empty lockset."""
        if qualname in self.model.holds_no_locks:
            return True
        info = self.graph.function_for(qualname)
        if info is None:
            return True
        name = info.name
        return not name.startswith("_") \
            or (name.startswith("__") and name.endswith("__"))

    def _entry_fixpoint(self, order: List[str]) -> None:
        known: Dict[str, Optional[FrozenSet[str]]] = {}
        private: List[str] = []
        for qualname in order:
            if self.entered_lock_free(qualname):
                known[qualname] = EMPTY
            else:
                known[qualname] = None
                private.append(qualname)
        for _ in range(_ROUND_BOUND):
            changed = False
            for qualname in private:
                vals = []
                for caller, _line, held, deferred in \
                        self.sites_by_callee.get(qualname, ()):
                    base = EMPTY if deferred else known.get(caller)
                    if base is None:
                        continue
                    vals.append(held | base)
                if not vals:
                    continue
                new = vals[0]
                for v in vals[1:]:
                    new = new & v
                if known[qualname] != new:
                    known[qualname] = new
                    changed = True
            if not changed:
                break
        self.entry = {q: (v if v is not None else EMPTY)
                      for q, v in known.items()}

    # ------------------------------------------------------ local summaries
    def _local_block(self, qualname: str) -> Summary:
        ops = self.facts[qualname].blocks
        if ops:
            # Prefer a leaf that releases nothing: strictest summary.
            best = min(ops, key=lambda o: (len(o.releases), o.line))
            self.releases[qualname] = best.releases
            return {BLOCKS: Origin(line=best.line, kind="local",
                                   detail=best.detail)}
        decl = self.model.holds_no_locks.get(qualname)
        if decl is not None:
            line, reason = decl
            suffix = f" ({reason})" if reason else ""
            detail = f"declared @holds_no_locks{suffix}"
        elif qualname in BLOCKING_INTERNAL:
            line = self.graph.functions[qualname].line
            detail = "curated blocking entry point (engine evaluation)"
        else:
            return {}
        self.releases[qualname] = EMPTY
        return {BLOCKS: Origin(line=line, kind="local", detail=detail)}

    def _local_acquires(self, qualname: str) -> Summary:
        table: Summary = {}
        for acq in self.facts[qualname].acquires:
            if not acq.deferred and acq.lock not in table:
                table[acq.lock] = Origin(
                    line=acq.line, kind="local",
                    detail=f"acquires {short_lock(acq.lock)}")
        return table

    def block_releases(self, qualname: str) -> FrozenSet[str]:
        """The locks released while blocked by the leaf that ``qualname``'s
        may-block witness chain ends at."""
        leaf, _origin = witness(self.blocks, qualname, BLOCKS)[-1]
        return self.releases[leaf]

    # ----------------------------------------------------------- order graph
    def _order_graph(self, order: List[str]) -> None:
        for qualname in order:
            facts = self.facts[qualname]
            for acq in facts.acquires:
                if acq.deferred:
                    continue
                for held in sorted(acq.held_before):
                    self._add_edge(OrderEdge(
                        first=held, second=acq.lock, qualname=qualname,
                        line=acq.line,
                        detail=f"acquires {short_lock(acq.lock)} while "
                               f"holding {short_lock(held)}"))
            for site in facts.calls:
                if site.deferred or not site.held:
                    continue
                for held in sorted(site.held):
                    for lock in sorted(self.acquired.get(site.callee, ())):
                        if lock == held:
                            continue
                        self._add_edge(OrderEdge(
                            first=held, second=lock, qualname=qualname,
                            line=site.line,
                            detail=f"calls {site.callee}, which acquires "
                                   f"{short_lock(lock)}"))

    def _add_edge(self, edge: OrderEdge) -> None:
        self.order_edges.setdefault((edge.first, edge.second), edge)

    def lock_cycles(self) -> List[List[str]]:
        """A shortest cycle of the lock-order graph through each lock that
        lies on one, each node set reported once.  Every cycle, however
        many locks it spans, puts its locks in some reported cycle."""
        adjacency: Dict[str, List[str]] = {}
        for first, second in self.order_edges:
            adjacency.setdefault(first, []).append(second)
        for targets in adjacency.values():
            targets.sort()
        cycles: List[List[str]] = []
        seen: Set[FrozenSet[str]] = set()
        for start in sorted(adjacency):
            cycle = _shortest_cycle(adjacency, start)
            if cycle and frozenset(cycle) not in seen:
                seen.add(frozenset(cycle))
                cycles.append(cycle)
        return cycles

    def reacquisitions(self) -> List[Tuple[str, int, str, str]]:
        """(qualname, line, lock, witness) for non-reentrant re-acquires."""
        out = []
        for qualname in sorted(self.facts):
            for acq in self.facts[qualname].acquires:
                if acq.deferred \
                        or acq.lock not in acq.held_before \
                        or self.model.is_reentrant_lock(acq.lock):
                    continue
                info = self.facts[qualname].info
                out.append((qualname, acq.line, acq.lock,
                            f"{qualname}:{acq.line} [{info.path}:{acq.line}"
                            f": re-acquires {short_lock(acq.lock)} it "
                            "already holds]"))
            for site in self.facts[qualname].calls:
                if site.deferred:
                    continue
                for lock in sorted(site.held):
                    if lock in self.acquired.get(site.callee, ()) \
                            and not self.model.is_reentrant_lock(lock):
                        chain = format_witness(self.graph, self.acquired,
                                               site.callee, lock)
                        out.append((qualname, site.line, lock,
                                    f"{qualname}:{site.line} -> {chain}"))
        return out

    # ------------------------------------------------------------ witnesses
    def format_unguarded_witness(self, qualname: str, line: int,
                                 lock: str, detail: str) -> str:
        """A lock-free path from a public root down to the access (R11)."""
        chain: List[Tuple[str, int]] = [(qualname, line)]
        current = qualname
        for _ in range(WITNESS_BOUND):
            if self.entered_lock_free(current):
                break
            nxt = None
            for caller, sline, held, deferred in sorted(
                    self.sites_by_callee.get(current, ()),
                    key=lambda s: (s[0], s[1])):
                eff = EMPTY if deferred \
                    else held | self.entry.get(caller, EMPTY)
                if lock not in eff:
                    nxt = (caller, sline)
                    break
            if nxt is None or nxt[0] == current:
                break
            chain.append(nxt)
            current = nxt[0]
        chain.reverse()
        hops = " -> ".join(f"{q}:{ln}" for q, ln in chain)
        info = self.graph.function_for(qualname)
        path = info.path if info is not None else "?"
        return f"{hops} [{path}:{line}: {detail}]"

    # ------------------------------------------------------------- plumbing
    def declaration_errors(self) -> List[Tuple[str, int, str]]:
        """(path, line, message) for malformed @guarded_by declarations."""
        out = []
        for qualname in sorted(self.model.classes):
            cls = self.model.classes[qualname]
            for line, message in cls.errors:
                out.append((cls.info.path, line, message))
        return out


def analyze_concurrency(project) -> ConcurrencyAnalysis:
    """The (cached) concurrency analysis of one linted project, over the
    call graph the project context builds once per run."""
    cached = getattr(project, "_concurrency_analysis", None)
    if cached is None:
        cached = ConcurrencyAnalysis.run(project.call_graph)
        setattr(project, "_concurrency_analysis", cached)
    return cached


def _shortest_cycle(adjacency: Dict[str, List[str]],
                    start: str) -> Optional[List[str]]:
    """The first shortest path from ``start`` back to itself, as the list
    of nodes from ``start`` on (breadth first over sorted successors)."""
    parent: Dict[str, str] = {}
    queue = collections.deque([start])
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt == start:
                cycle = [node]
                while cycle[-1] != start:
                    cycle.append(parent[cycle[-1]])
                return cycle[::-1]
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None
