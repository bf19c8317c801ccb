"""Interprocedural concurrency fixpoints over the project call graph.

Four summaries, all computed over the one :class:`~repro.lint.callgraph.
CallGraph` a lint run builds and shares between its verifiers:

**Entry locksets** — the set of locks *provably held whenever a function
is entered*.  Public functions (and dunders) are entered lock-free by
definition; a private helper's entry set is the intersection, over every
call site, of the locks held there plus the caller's own entry set.
Deferred references (thread targets, executor submissions, lambda
bodies) run on another thread and contribute an empty site.  The
fixpoint only shrinks, so recompute-until-stable terminates.  This is
what lets ``Job._doc`` stay lock-free in source while R11 proves its
guarded reads safe: every call site sits inside ``JobStore._lock``.

**May-block summaries** — which functions can reach a blocking leaf
(R12), each with one representative origin *and the lockset that leaf
releases while blocked*: ``Condition.wait`` drops its own lock, so a
caller holding exactly that condition is fine, while any other held
lock is a finding.  Origins prefer non-releasing leaves (strictest).

**Acquired locksets** — which locks a function (transitively) acquires,
with origin chains; crossed with locks held at call sites this yields
the global lock-*order* graph whose cycles are R13's deadlocks, and
re-acquisition of a non-reentrant lock on a path that already holds it.

**Thread-reachability** — functions reachable from thread targets and
executor submissions, the scope of R14's module-global hygiene check.

The dedup discipline: *local* checks use locally-held locks only, and
*call-site* checks use site-held locks only — entry-set contributions
are always caught one frame up, at the site that actually holds the
lock, so each violating chain produces exactly one finding.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..callgraph import CallGraph, FunctionInfo
from .locksets import EMPTY, FunctionFacts, analyze_function
from .model import BLOCKING_INTERNAL, ProjectModel, build_model, short_lock

#: Bounds on fixpoint rounds / witness reconstruction / cycle DFS depth.
_ROUND_BOUND = 64
_WITNESS_BOUND = 16


@dataclasses.dataclass
class BlockOrigin:
    """Why a function may block: one representative origin."""
    line: int
    kind: str                    # "local" | "call" | "declared"
    detail: str
    callee: Optional[str] = None
    #: Locks the (ultimate) blocking leaf releases while blocked.
    releases: FrozenSet[str] = EMPTY


@dataclasses.dataclass
class AcquireOrigin:
    """How a lock enters a function's acquired set."""
    line: int
    kind: str                    # "local" | "call"
    detail: str
    callee: Optional[str] = None


@dataclasses.dataclass
class OrderEdge:
    """One lock-order edge a->b with the site that witnessed it."""
    first: str
    second: str
    qualname: str
    line: int
    detail: str
    callee: Optional[str] = None


_Site = Tuple[str, int, FrozenSet[str], bool]    # caller, line, held, deferred


class ConcurrencyAnalysis:
    """All concurrency summaries of one linted project, at fixpoint."""

    def __init__(self, graph: CallGraph, model: ProjectModel):
        self.graph = graph
        self.model = model
        self.facts: Dict[str, FunctionFacts] = {}
        self.entry: Dict[str, FrozenSet[str]] = {}
        self.sites_by_callee: Dict[str, List[_Site]] = {}
        self.blocks: Dict[str, Optional[BlockOrigin]] = {}
        self.acquired: Dict[str, Dict[str, AcquireOrigin]] = {}
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
        self._block_fixpoint(order)
        self._acquired_fixpoint(order)
        self._order_graph(order)
        self._reachability()
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

    # ---------------------------------------------------- may-block fixpoint
    def _block_fixpoint(self, order: List[str]) -> None:
        for qualname in order:
            self.blocks[qualname] = self._initial_block(qualname)
        for _ in range(_ROUND_BOUND):
            changed = False
            for qualname in order:
                if self.blocks[qualname] is not None:
                    continue
                for site in self.facts[qualname].calls:
                    if site.deferred:
                        continue
                    origin = self.blocks.get(site.callee)
                    if origin is None:
                        continue
                    self.blocks[qualname] = BlockOrigin(
                        line=site.line, kind="call",
                        detail=f"calls {site.callee}", callee=site.callee,
                        releases=origin.releases)
                    changed = True
                    break
            if not changed:
                break

    def _initial_block(self, qualname: str) -> Optional[BlockOrigin]:
        ops = self.facts[qualname].blocks
        if ops:
            # Prefer a leaf that releases nothing: strictest summary.
            best = min(ops, key=lambda o: (len(o.releases), o.line))
            return BlockOrigin(line=best.line, kind="local",
                               detail=best.detail, releases=best.releases)
        decl = self.model.holds_no_locks.get(qualname)
        if decl is not None:
            line, reason = decl
            suffix = f" ({reason})" if reason else ""
            return BlockOrigin(line=line, kind="declared",
                               detail=f"declared @holds_no_locks{suffix}")
        if qualname in BLOCKING_INTERNAL:
            info = self.graph.function_for(qualname)
            return BlockOrigin(line=info.line if info else 0,
                               kind="declared",
                               detail="curated blocking entry point "
                                      "(engine evaluation)")
        return None

    # ----------------------------------------------------- acquired fixpoint
    def _acquired_fixpoint(self, order: List[str]) -> None:
        for qualname in order:
            table: Dict[str, AcquireOrigin] = {}
            for acq in self.facts[qualname].acquires:
                if acq.deferred or acq.lock in table:
                    continue
                table[acq.lock] = AcquireOrigin(
                    line=acq.line, kind="local",
                    detail=f"acquires {short_lock(acq.lock)}")
            self.acquired[qualname] = table
        for _ in range(_ROUND_BOUND):
            changed = False
            for qualname in order:
                table = self.acquired[qualname]
                for site in self.facts[qualname].calls:
                    if site.deferred:
                        continue
                    for lock in self.acquired.get(site.callee, ()):
                        if lock in table:
                            continue
                        table[lock] = AcquireOrigin(
                            line=site.line, kind="call",
                            detail=f"calls {site.callee}",
                            callee=site.callee)
                        changed = True
            if not changed:
                break

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
                                   f"{short_lock(lock)}",
                            callee=site.callee))

    def _add_edge(self, edge: OrderEdge) -> None:
        self.order_edges.setdefault((edge.first, edge.second), edge)

    def lock_cycles(self) -> List[List[str]]:
        """Simple cycles of the lock-order graph, each reported once."""
        adjacency: Dict[str, List[str]] = {}
        for first, second in self.order_edges:
            adjacency.setdefault(first, []).append(second)
        for targets in adjacency.values():
            targets.sort()
        cycles: List[List[str]] = []
        seen: Set[FrozenSet[str]] = set()

        def dfs(node: str, path: List[str], on_path: Set[str]) -> None:
            if len(path) > _WITNESS_BOUND:
                return
            for nxt in adjacency.get(node, ()):
                if nxt in on_path:
                    cycle = path[path.index(nxt):]
                    key = frozenset(cycle)
                    if key not in seen:
                        seen.add(key)
                        cycles.append(list(cycle))
                else:
                    dfs(nxt, path + [nxt], on_path | {nxt})

        for start in sorted(adjacency):
            dfs(start, [start], {start})
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
                        out.append((
                            qualname, site.line, lock,
                            self.format_acquire_witness(
                                qualname, site, lock)))
        return out

    # --------------------------------------------------------- reachability
    def _reachability(self) -> None:
        roots = []
        for qualname in sorted(self.facts):
            for fact in self.facts[qualname].threads:
                if fact.target:
                    roots.append(fact.target)
            for site in self.facts[qualname].calls:
                if site.deferred and site.via in ("thread-target",
                                                  "executor"):
                    roots.append(site.callee)
        frontier = list(roots)
        while frontier:
            qualname = frontier.pop()
            if qualname in self.thread_reachable \
                    or qualname not in self.facts:
                continue
            self.thread_reachable.add(qualname)
            for site in self.facts[qualname].calls:
                if not site.deferred:
                    frontier.append(site.callee)

    # ------------------------------------------------------------ witnesses
    def format_block_witness(self, qualname: str, line: int) -> str:
        """``caller:line -> ... [path:leaf_line: leaf detail]`` for R12."""
        steps: List[Tuple[str, int]] = [(qualname, line)]
        origin = self.blocks.get(qualname)
        current = qualname
        for _ in range(_WITNESS_BOUND):
            if origin is None:
                break
            if origin.kind != "call" or origin.callee is None:
                break
            steps.append((origin.callee,
                          self.blocks[origin.callee].line
                          if self.blocks.get(origin.callee) else origin.line))
            current = origin.callee
            origin = self.blocks.get(current)
        hops = " -> ".join(f"{q}:{ln}" for q, ln in steps)
        leaf = self.blocks.get(current)
        info = self.graph.function_for(current)
        if leaf is None or info is None:
            return hops
        return f"{hops} [{info.path}:{leaf.line}: {leaf.detail}]"

    def format_acquire_witness(self, qualname: str, site,
                               lock: str) -> str:
        """Call chain from a holding site down to the acquiring line."""
        steps: List[Tuple[str, int]] = [(qualname, site.line)]
        current = site.callee
        for _ in range(_WITNESS_BOUND):
            origin = self.acquired.get(current, {}).get(lock)
            if origin is None:
                break
            steps.append((current, origin.line))
            if origin.kind == "local" or origin.callee is None:
                break
            current = origin.callee
        hops = " -> ".join(f"{q}:{ln}" for q, ln in steps)
        info = self.graph.function_for(current)
        origin = self.acquired.get(current, {}).get(lock)
        if info is None or origin is None:
            return hops
        return (f"{hops} [{info.path}:{origin.line}: acquires "
                f"{short_lock(lock)} while holding it on the same path]")

    def format_unguarded_witness(self, qualname: str, line: int,
                                 lock: str, detail: str) -> str:
        """A lock-free path from a public root down to the access (R11)."""
        chain: List[Tuple[str, int]] = [(qualname, line)]
        current = qualname
        for _ in range(_WITNESS_BOUND):
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

    def info_for(self, qualname: str) -> Optional[FunctionInfo]:
        return self.graph.function_for(qualname)


def analyze_concurrency(project) -> ConcurrencyAnalysis:
    """The (cached) concurrency analysis of one linted project, over the
    call graph the project context builds once per run."""
    cached = getattr(project, "_concurrency_analysis", None)
    if cached is None:
        cached = ConcurrencyAnalysis.run(project.call_graph)
        setattr(project, "_concurrency_analysis", cached)
    return cached
