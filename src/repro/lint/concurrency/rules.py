"""Rules R11 (guarded fields), R12 (no blocking while locked),
R13 (deadlock freedom), R14 (thread hygiene).

All four are project rules and run on every ``python -m repro.lint``;
they share one model, one lockset pass and one set of interprocedural
fixpoints per run (:func:`~.analysis.analyze_concurrency` caches it on
the project context, and the call graph itself is shared with the
effects verifier).

R11 — guarded-field discipline
    Every access to a ``@guarded_by``-declared field must occur with the
    declared lock statically held, counting both locks held at the
    access and the function's *entry lockset* (the intersection of locks
    held at every call site — how a private snapshot builder proves its
    reads safe).  Findings carry a lock-free witness path from a public
    root down to the access.  Malformed declarations are findings too.

R12 — no blocking while locked
    No blocking leaf (engine evaluation, file IO, socket/HTTP surfaces,
    ``Event.wait``, ``Condition.wait``, ``Thread.join``, executor
    hand-offs, ``Future.result``) may be reached while holding a lock
    the leaf does not itself release.  Local origins and call sites are
    deduplicated so each violating chain reports exactly once.

R13 — deadlock freedom
    The global lock-acquisition order graph (locks held x locks
    acquired, interprocedurally) must be acyclic, and no non-reentrant
    lock may be re-acquired on a path that already holds it.

R14 — thread hygiene
    Every ``threading.Thread`` is daemon or provably joined; every
    ``Condition.wait`` sits in a predicate loop; every ``Event.wait``
    passes a timeout; module-level mutable state written from a
    thread-target-reachable function has some lock held.
"""

from __future__ import annotations

from typing import Iterator, List, Set, Tuple

from ..findings import Finding
from ..registry import Rule, register
from .analysis import ConcurrencyAnalysis, analyze_concurrency
from .locksets import EMPTY
from .model import short_lock


def _short_owner(owner: str) -> str:
    return owner.rsplit(".", 1)[-1]


@register
class GuardedFieldRule(Rule):
    code = "R11"
    name = "guarded-field-discipline"
    severity = "error"
    scope = "project"
    description = ("every access to a @guarded_by-declared field must hold "
                   "the declared lock (Eraser-style lockset analysis with "
                   "interprocedural entry locksets and witness paths)")

    def check_project(self, project) -> Iterator[Finding]:
        analysis = analyze_concurrency(project)
        for path, line, message in analysis.declaration_errors():
            yield self.finding(path, line, 0, message)
        for qualname in sorted(analysis.facts):
            facts = analysis.facts[qualname]
            entry = analysis.entry.get(qualname, EMPTY)
            for access in facts.accesses:
                if access.lock in access.held or access.lock in entry:
                    continue
                verb = "write of" if access.write else "read of"
                what = f"{_short_owner(access.owner)}.{access.field}"
                witness = analysis.format_unguarded_witness(
                    qualname, access.line, access.lock,
                    f"{verb} {what} without {short_lock(access.lock)}")
                yield self.finding(
                    facts.info.path, access.line, 0,
                    f"{qualname} {verb} {what} without holding "
                    f"{access.lock} (declared @guarded_by); witness: "
                    f"{witness} — take the lock, or build the snapshot "
                    "inside a method that holds it")


@register
class BlockingWhileLockedRule(Rule):
    code = "R12"
    name = "no-blocking-while-locked"
    severity = "error"
    scope = "project"
    description = ("no blocking leaf (engine evaluation, file IO, "
                   "Event/Condition waits, executor hand-offs, "
                   "socket/HTTP) may be reached while holding a lock it "
                   "does not itself release")

    def check_project(self, project) -> Iterator[Finding]:
        analysis = analyze_concurrency(project)
        for qualname in sorted(analysis.facts):
            facts = analysis.facts[qualname]
            for op in facts.blocks:
                stuck = op.held - op.releases
                if not stuck:
                    continue
                locks = ", ".join(short_lock(x) for x in sorted(stuck))
                yield self.finding(
                    facts.info.path, op.line, 0,
                    f"{qualname} blocks ({op.detail}) while holding "
                    f"{locks}; witness: {qualname}:{op.line} "
                    f"[{facts.info.path}:{op.line}: {op.detail}] — move "
                    "the blocking call outside the critical section")
            for site in facts.calls:
                if site.deferred or not site.held:
                    continue
                origin = analysis.blocks.get(site.callee)
                if origin is None:
                    continue
                stuck = site.held - origin.releases
                if not stuck:
                    continue
                locks = ", ".join(short_lock(x) for x in sorted(stuck))
                tail = analysis.format_block_witness(site.callee,
                                                     origin.line)
                yield self.finding(
                    facts.info.path, site.line, 0,
                    f"{qualname} calls {site.callee} while holding "
                    f"{locks}, and it may block ({origin.detail}); "
                    f"witness: {qualname}:{site.line} -> {tail} — "
                    "release the lock before the call, or hoist the "
                    "blocking work out")


@register
class DeadlockFreedomRule(Rule):
    code = "R13"
    name = "deadlock-freedom"
    severity = "error"
    scope = "project"
    description = ("the global lock-acquisition order graph must be "
                   "acyclic, and non-reentrant locks must not be "
                   "re-acquired on a path that already holds them")

    def check_project(self, project) -> Iterator[Finding]:
        analysis = analyze_concurrency(project)
        for cycle in self._canonical_cycles(analysis):
            yield self._cycle_finding(analysis, cycle)
        for qualname, line, lock, witness in analysis.reacquisitions():
            info = analysis.info_for(qualname)
            if info is None:
                continue
            yield self.finding(
                info.path, line, 0,
                f"{qualname} re-acquires non-reentrant {lock} on a path "
                "that already holds it — threading.Lock does not nest, "
                f"this self-deadlocks; witness: {witness} — restructure "
                "so the lock is taken once (private _locked helpers), or "
                "use RLock only if re-entry is truly intended")

    def _canonical_cycles(self, analysis: ConcurrencyAnalysis
                          ) -> List[List[str]]:
        out = []
        for cycle in analysis.lock_cycles():
            pivot = cycle.index(min(cycle))
            out.append(cycle[pivot:] + cycle[:pivot])
        out.sort()
        return out

    def _cycle_finding(self, analysis: ConcurrencyAnalysis,
                       cycle: List[str]) -> Finding:
        ring = " -> ".join(short_lock(x) for x in cycle + [cycle[0]])
        witnesses = []
        for i, first in enumerate(cycle):
            second = cycle[(i + 1) % len(cycle)]
            edge = analysis.order_edges[(first, second)]
            witnesses.append(f"{edge.qualname}:{edge.line} ({edge.detail})")
        head = analysis.order_edges[(cycle[0], cycle[1 % len(cycle)])]
        info = analysis.info_for(head.qualname)
        return self.finding(
            info.path if info else "?", head.line, 0,
            f"lock-order cycle {ring}: two threads taking these locks in "
            "opposite orders deadlock; witnesses: "
            f"{'; '.join(witnesses)} — pick one global acquisition order "
            "and restructure the callers to follow it")


@register
class ThreadHygieneRule(Rule):
    code = "R14"
    name = "thread-hygiene"
    severity = "error"
    scope = "project"
    description = ("threads must be daemon or provably joined, "
                   "Condition.wait must sit in a predicate loop, "
                   "Event.wait must carry a timeout, and module globals "
                   "written from thread targets need a lock held")

    def check_project(self, project) -> Iterator[Finding]:
        analysis = analyze_concurrency(project)
        joined_attrs = self._joined_attrs(analysis)
        for qualname in sorted(analysis.facts):
            facts = analysis.facts[qualname]
            local_joins = {j.binding[1] for j in facts.joins
                           if j.binding[0] == "local"}
            for fact in facts.threads:
                if fact.daemon is True:
                    continue
                if self._provably_joined(fact, joined_attrs, local_joins):
                    continue
                where = (f"stored as {fact.binding[2]!r}"
                         if fact.binding and fact.binding[0] == "attr"
                         else "never stored for joining"
                         if fact.binding is None
                         else f"bound to local {fact.binding[1]!r}")
                yield self.finding(
                    facts.info.path, fact.line, 0,
                    f"{qualname} creates a non-daemon thread ({where}) "
                    "that is never provably joined — it outlives "
                    "shutdown and blocks interpreter exit; pass "
                    "daemon=True or join it on every path")
            yield from self._wait_findings(facts, qualname)
        yield from self._global_findings(analysis)

    def _joined_attrs(self, analysis: ConcurrencyAnalysis
                      ) -> Set[Tuple[str, str]]:
        out: Set[Tuple[str, str]] = set()
        for facts in analysis.facts.values():
            for join in facts.joins:
                if join.binding[0] == "attr":
                    out.add((join.binding[1], join.binding[2]))
        return out

    def _provably_joined(self, fact, joined_attrs: Set[Tuple[str, str]],
                         local_joins: Set[str]) -> bool:
        if fact.binding is None:
            return False
        if fact.binding[0] == "attr":
            return (fact.binding[1], fact.binding[2]) in joined_attrs
        return fact.binding[1] in local_joins

    def _wait_findings(self, facts, qualname: str) -> Iterator[Finding]:
        for wait in facts.waits:
            if wait.kind == "condition" and not wait.in_loop:
                yield self.finding(
                    facts.info.path, wait.line, 0,
                    f"{qualname} calls Condition.wait on "
                    f"{short_lock(wait.lock)} outside a predicate loop — "
                    "spurious wakeups and missed notifications race "
                    "past a bare wait; use `while not <predicate>: "
                    "cond.wait(...)`")
            elif wait.kind == "event" and not wait.has_timeout:
                yield self.finding(
                    facts.info.path, wait.line, 0,
                    f"{qualname} calls Event.wait() on "
                    f"{short_lock(wait.lock)} without a timeout — if the "
                    "worker that would set it dies, the caller is "
                    "stranded forever; pass a timeout and turn expiry "
                    "into a structured error")

    def _global_findings(self, analysis: ConcurrencyAnalysis
                         ) -> Iterator[Finding]:
        for qualname in sorted(analysis.thread_reachable):
            facts = analysis.facts.get(qualname)
            if facts is None:
                continue
            entry = analysis.entry.get(qualname, EMPTY)
            for write in facts.global_writes:
                if write.held | entry:
                    continue
                yield self.finding(
                    facts.info.path, write.line, 0,
                    f"{qualname} is reachable from a thread target and "
                    f"mutates module-level state ({write.detail}) with "
                    "no lock held — racing writers corrupt it; guard it "
                    "with a lock (and declare the discipline) or "
                    "confine it to one thread")
