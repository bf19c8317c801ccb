"""Per-function lockset transfer: structured walk with held-lock sets.

The dataflow package's CFG flattens ``with`` blocks, which is exactly the
structure a lockset analysis needs, so this walker works on the
structured AST instead: it threads a *must-hold* set of lock identities
through each statement — ``with lock:`` scopes it, branch join is
intersection, ``acquire()``/``release()`` adjust it straight-line — and
records every fact the interprocedural analysis and rules R11-R14
consume, each stamped with the lockset held at that point:

* guarded-field accesses (R11),
* call sites, including *deferred* ones (thread targets, executor
  submissions, lambda bodies) that run later on another thread and
  therefore start from an empty lockset,
* lock acquisitions with the set held just before (R13 order edges),
* blocking operations with the locks they release while blocked (R12 —
  ``Condition.wait`` drops its own lock),
* thread construction/join and wait-discipline facts (R14),
* writes to module-level state, as the shared
  :func:`~repro.lint.interproc.global_write` classifies them (R14's
  "mutable state touched from a thread target needs a lock" check).

Receivers are typed by the shared :class:`~repro.lint.callgraph.
FunctionScope` (annotations, constructor-call locals, ``__init__``
attribute types, return annotations, dict-value and loop-element
typing), so ``self.queue.cache.stats()`` -style chains resolve without
importing the code under analysis; this walker adds only what the scope
does not know: sync objects with their lock identities, and futures.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..astutil import call_keyword
from ..callgraph import CallGraph, FunctionInfo
from ..interproc import CallEdge, global_write
from .model import (BLOCKING_SYNC_METHODS, LOCK_KINDS, ProjectModel,
                    _sync_kind_of_call, is_blocking_external, lock_id,
                    short_lock)

EMPTY: FrozenSet[str] = frozenset()


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FieldAccess:
    """A read or write of a ``@guarded_by``-declared field."""
    line: int
    owner: str                 # class qualname declaring the field
    field: str
    lock: str                  # required lock identity
    write: bool
    held: FrozenSet[str]


@dataclasses.dataclass
class CallSite(CallEdge):
    """A resolved call edge, stamped with the locks held at the site.

    Deferred sites (thread targets, executor submissions, lambda bodies)
    run later on another thread: they seed entry locksets (with an empty
    held set) and R14 reachability, but do not make the *enclosing*
    function block or acquire anything.
    """
    held: FrozenSet[str] = EMPTY
    via: str = "call"


@dataclasses.dataclass
class Acquire:
    """One lock acquisition (``with`` item or ``.acquire()``)."""
    line: int
    lock: str
    kind: str
    held_before: FrozenSet[str]
    deferred: bool = False      # inside a lambda / nested def body


@dataclasses.dataclass
class BlockOp:
    """A blocking leaf: detail + locks released while blocked."""
    line: int
    detail: str
    held: FrozenSet[str]
    releases: FrozenSet[str] = EMPTY


@dataclasses.dataclass
class ThreadFact:
    """A ``threading.Thread(...)`` construction."""
    line: int
    daemon: Optional[bool]      # literal True/False, None when absent/opaque
    target: Optional[str]       # resolved target qualname
    binding: Optional[Tuple]    # ("attr", class_qual, attr) | ("local", name)


@dataclasses.dataclass
class JoinFact:
    """A ``.join()`` on a thread-typed receiver."""
    line: int
    binding: Tuple              # matches ThreadFact.binding


@dataclasses.dataclass
class WaitFact:
    """A ``Condition.wait``/``Event.wait`` discipline fact."""
    line: int
    kind: str                   # "condition" | "event"
    in_loop: bool
    has_timeout: bool
    lock: str                   # the receiver's lock identity


@dataclasses.dataclass
class GlobalWrite:
    """A write to module-level state (:func:`~repro.lint.interproc.
    global_write`)."""
    line: int
    detail: str
    held: FrozenSet[str]


@dataclasses.dataclass
class FunctionFacts:
    info: FunctionInfo
    accesses: List[FieldAccess] = dataclasses.field(default_factory=list)
    calls: List[CallSite] = dataclasses.field(default_factory=list)
    acquires: List[Acquire] = dataclasses.field(default_factory=list)
    blocks: List[BlockOp] = dataclasses.field(default_factory=list)
    threads: List[ThreadFact] = dataclasses.field(default_factory=list)
    joins: List[JoinFact] = dataclasses.field(default_factory=list)
    waits: List[WaitFact] = dataclasses.field(default_factory=list)
    global_writes: List[GlobalWrite] = dataclasses.field(default_factory=list)


# ---------------------------------------------------------------------------
# The walker
# ---------------------------------------------------------------------------

def analyze_function(model: ProjectModel, info: FunctionInfo) -> FunctionFacts:
    walker = _Walker(model, info)
    walker.run()
    return walker.facts


class _Walker:
    def __init__(self, model: ProjectModel, info: FunctionInfo):
        self.model = model
        self.graph: CallGraph = model.graph
        self.info = info
        self.facts = FunctionFacts(info=info)
        self.own_class = info.class_qualname
        self.scope = self.graph.scope(info)
        #: Local sync objects and futures, on top of the scope's types.
        self.env: Dict[str, Tuple] = {}
        self.loop_depth = 0
        self.deferred_depth = 0

    # ----------------------------------------------------------------- run
    def run(self) -> None:
        self._build_env()
        self._walk_body(self.info.node.body, EMPTY)

    # ----------------------------------------------------- local environment
    def _build_env(self) -> None:
        # Two passes so ``lock = self._lock`` typed in pass 1 feeds
        # ``cond = lock`` -style chains in pass 2.
        for _ in range(2):
            for name, sources in sorted(self.scope.sources.items()):
                for kind, value, path in sources:
                    if kind != "value" or path:
                        continue
                    typed = self._expr_type(value)
                    sync = _sync_kind_of_call(self.graph, self.info.module,
                                              value)
                    if sync is not None:
                        # Function-local sync object: lock = threading.Lock().
                        typed = ("sync", sync,
                                 lock_id(self.info.qualname, name))
                    if typed is not None and typed[0] in ("sync", "future"):
                        self.env[name] = typed

    def _expr_type(self, expr: Optional[ast.expr]) -> Optional[Tuple]:
        """The scope's type of ``expr``, with this verifier's own facts on
        top: ``("sync", kind, lock identity)`` and ``("future",)``."""
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return self.env[expr.id]
            if expr.id not in self.scope.locals:
                sync = self._module_sync(self.info.module, expr.id)
                if sync is not None:
                    return sync
        elif isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value)
            if base is None:
                target = self.scope.resolve(expr.value)
                if target is not None and target[0] == "module":
                    sync = self._module_sync(target[1], expr.attr)
                    if sync is not None:
                        return sync
            elif base[0] == "instance":
                owned = self.model.sync_owner(base[1], expr.attr)
                if owned is not None:
                    return ("sync", owned[0], lock_id(owned[1], expr.attr))
            elif base[0] in ("sync", "future"):
                return None
        elif isinstance(expr, ast.Call):
            sync = self._sync_call(expr)
            if sync is not None:
                return ("future",) if sync[::2] == ("executor", "submit") \
                    else None
        return self.scope.type_of(expr)

    def _module_sync(self, module: str, name: str) -> Optional[Tuple]:
        mid = lock_id(module, name)
        kind = self.model.module_sync.get(mid)
        return ("sync", kind, mid) if kind is not None else None

    def _sync_call(self, call: ast.Call) -> Optional[Tuple[str, str, str]]:
        """(kind, lock identity, method) for a method call on a sync
        object."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        receiver = self._expr_type(func.value)
        if receiver is None or receiver[0] != "sync":
            return None
        return receiver[1], receiver[2], func.attr

    # ----------------------------------------------------------- lock exprs
    def _lock_of_expr(self, expr: ast.expr) -> Optional[Tuple[str, str]]:
        """(lock identity, kind) when ``expr`` denotes a mutex."""
        typed = self._expr_type(expr)
        if typed is not None and typed[0] == "sync" \
                and typed[1] in LOCK_KINDS:
            return typed[2], typed[1]
        return None

    # ------------------------------------------------------- statement walk
    def _walk_body(self, body: List[ast.stmt],
                   held: FrozenSet[str]) -> FrozenSet[str]:
        current = held
        for stmt in body:
            current = self._walk_stmt(stmt, current)
        return current

    def _walk_stmt(self, stmt: ast.stmt,
                   held: FrozenSet[str]) -> FrozenSet[str]:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._walk_with(stmt, held)
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held)
            after_body = self._walk_body(stmt.body, held)
            after_else = self._walk_body(stmt.orelse, held)
            return after_body & after_else
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            if isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, held)
            else:
                self._scan_expr(stmt.iter, held)
                self._scan_expr(stmt.target, held)
            self.loop_depth += 1
            try:
                self._walk_body(stmt.body, held)
            finally:
                self.loop_depth -= 1
            self._walk_body(stmt.orelse, held)
            return held
        if isinstance(stmt, ast.Try):
            after_body = self._walk_body(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_body(handler.body, held)
            self._walk_body(stmt.orelse, after_body)
            self._walk_body(stmt.finalbody, held)
            return after_body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_deferred(stmt.body)
            return held
        if isinstance(stmt, ast.ClassDef):
            return held
        if isinstance(stmt, ast.Return):
            self._scan_expr(stmt.value, held)
            return held
        if isinstance(stmt, ast.Raise):
            self._scan_expr(stmt.exc, held)
            self._scan_expr(stmt.cause, held)
            return held
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value, held)
            for target in stmt.targets:
                self._scan_expr(target, held)
            self._note_thread_binding(stmt, held)
            return self._straightline_sync(stmt, held)
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value, held)
            self._scan_expr(stmt.target, held)
            return held
        if isinstance(stmt, ast.AnnAssign):
            self._scan_expr(stmt.value, held)
            if stmt.value is not None:
                self._scan_expr(stmt.target, held)
            return held
        if isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value, held)
            return self._straightline_sync(stmt, held)
        if isinstance(stmt, (ast.Assert,)):
            self._scan_expr(stmt.test, held)
            self._scan_expr(stmt.msg, held)
            return held
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._scan_expr(target, held)
            return held
        for value in ast.iter_child_nodes(stmt):
            if isinstance(value, ast.expr):
                self._scan_expr(value, held)
        return held

    def _walk_with(self, stmt, held: FrozenSet[str]) -> FrozenSet[str]:
        current = held
        acquired_here: List[str] = []
        for item in stmt.items:
            lock = self._lock_of_expr(item.context_expr)
            if lock is not None:
                identity, kind = lock
                self.facts.acquires.append(Acquire(
                    line=item.context_expr.lineno, lock=identity, kind=kind,
                    held_before=current,
                    deferred=self.deferred_depth > 0))
                current = current | {identity}
                acquired_here.append(identity)
            else:
                self._scan_expr(item.context_expr, current)
            self._scan_expr(item.optional_vars, current)
        after = self._walk_body(stmt.body, current)
        return after - frozenset(acquired_here)

    def _straightline_sync(self, stmt: ast.stmt,
                           held: FrozenSet[str]) -> FrozenSet[str]:
        """Track bare ``lock.acquire()`` / ``lock.release()`` statements."""
        value = getattr(stmt, "value", None)
        target = self._sync_call(value) if isinstance(value, ast.Call) \
            else None
        if target is None or target[0] not in LOCK_KINDS:
            return held
        kind, identity, method = target
        if method == "acquire":
            self.facts.acquires.append(Acquire(
                line=value.lineno, lock=identity, kind=kind,
                held_before=held, deferred=self.deferred_depth > 0))
            return held | {identity}
        if method == "release":
            return held - {identity}
        return held

    def _note_thread_binding(self, stmt: ast.Assign,
                             held: FrozenSet[str]) -> None:
        """Attach the storage binding to a just-recorded ThreadFact."""
        if not (self.facts.threads and len(stmt.targets) == 1
                and isinstance(stmt.value, ast.Call)):
            return
        fact = self.facts.threads[-1]
        if fact.line != stmt.value.lineno or fact.binding is not None:
            return
        target = stmt.targets[0]
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self" and self.own_class:
            fact.binding = ("attr", self.own_class, target.attr)
        elif isinstance(target, ast.Name):
            fact.binding = ("local", target.id)

    # ------------------------------------------------------ expression scan
    def _scan_expr(self, expr: Optional[ast.expr],
                   held: FrozenSet[str]) -> None:
        if expr is None:
            return
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                self._walk_deferred([ast.Expr(value=node.body)])
                continue
            if isinstance(node, ast.Call):
                self._record_call(node, held)
            elif isinstance(node, ast.Attribute):
                self._record_access(node, held,
                                    write=isinstance(node.ctx,
                                                     (ast.Store, ast.Del)))
            detail = global_write(self.scope, node)
            if detail is not None:
                self.facts.global_writes.append(GlobalWrite(
                    line=node.lineno, detail=detail, held=held))
            stack.extend(ast.iter_child_nodes(node))

    def _walk_deferred(self, body: List[ast.stmt]) -> None:
        """Walk a later-executed body (lambda / nested def) with held = {}."""
        self.deferred_depth += 1
        try:
            self._walk_body(body, EMPTY)
        finally:
            self.deferred_depth -= 1

    # ------------------------------------------------------------ accesses
    def _record_access(self, node: ast.Attribute, held: FrozenSet[str],
                       write: bool) -> None:
        base_type = self._expr_type(node.value)
        if base_type is None or base_type[0] != "instance":
            return
        owner = base_type[1]
        lock = self.model.guard_for(owner, node.attr)
        if lock is None:
            return
        # Construction is pre-publication: no other thread can see the
        # object while __init__ runs, so R11 exempts constructors.
        if self.info.name in ("__init__", "__post_init__", "__new__") \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return
        self.facts.accesses.append(FieldAccess(
            line=node.lineno, owner=owner, field=node.attr, lock=lock,
            write=write, held=held))

    # --------------------------------------------------------------- calls
    def _record_call(self, call: ast.Call, held: FrozenSet[str]) -> None:
        deferred = self.deferred_depth > 0
        sync = self._sync_call(call)
        if sync is not None:
            self._record_sync_call(call, sync, held)
            return
        if isinstance(call.func, ast.Attribute) \
                and self._expr_type(call.func.value) == ("future",):
            if call.func.attr == "result" and not deferred:
                self.facts.blocks.append(BlockOp(
                    line=call.lineno, held=held,
                    detail="Future.result() blocks until the worker "
                           "finishes"))
            return
        target = self.scope.resolve(call.func)
        if target is not None and target[0] == "external":
            if is_blocking_external(target[1]) and not deferred:
                self.facts.blocks.append(BlockOp(
                    line=call.lineno, held=held,
                    detail=f"blocking call {target[1]}(...)"))
            if target[1].split(".")[-1] == "Thread":
                self._record_thread(call)
            return
        for callee in self.scope.callees(call):
            self.facts.calls.append(CallSite(
                line=call.lineno, callee=callee, held=held,
                deferred=deferred))

    def _record_sync_call(self, call: ast.Call, target: Tuple[str, str, str],
                          held: FrozenSet[str]) -> None:
        kind, identity, method = target
        deferred = self.deferred_depth > 0
        if (kind, method) in BLOCKING_SYNC_METHODS:
            releases = frozenset({identity}) \
                if BLOCKING_SYNC_METHODS[(kind, method)] else EMPTY
            if not deferred:
                self.facts.blocks.append(BlockOp(
                    line=call.lineno, held=held, releases=releases,
                    detail=f"{kind}.{method}() on {short_lock(identity)}"))
        if kind == "condition" and method in ("wait", "wait_for"):
            self.facts.waits.append(WaitFact(
                line=call.lineno, kind="condition",
                in_loop=self.loop_depth > 0 or method == "wait_for",
                has_timeout=self._has_timeout(call, pos=0), lock=identity))
        elif kind == "event" and method == "wait":
            self.facts.waits.append(WaitFact(
                line=call.lineno, kind="event", in_loop=self.loop_depth > 0,
                has_timeout=self._has_timeout(call, pos=0), lock=identity))
        elif kind == "thread" and method == "join":
            binding = self._receiver_binding(call.func)
            if binding is not None:
                self.facts.joins.append(JoinFact(line=call.lineno,
                                                 binding=binding))
        elif kind == "executor" and method == "submit" and call.args:
            self._deferred_target(call.args[0], call.lineno, via="executor")

    def _has_timeout(self, call: ast.Call, pos: int) -> bool:
        if len(call.args) > pos:
            return True
        return call_keyword(call, "timeout") is not None

    def _receiver_binding(self, func: ast.expr) -> Optional[Tuple]:
        """Storage binding of a sync-method receiver, for join matching."""
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        if isinstance(recv, ast.Attribute) \
                and isinstance(recv.value, ast.Name) \
                and recv.value.id == "self" and self.own_class:
            sync = self.model.sync_owner(self.own_class, recv.attr)
            owner = sync[1] if sync is not None else self.own_class
            return ("attr", owner, recv.attr)
        if isinstance(recv, ast.Name):
            return ("local", recv.id)
        return None

    def _record_thread(self, call: ast.Call) -> None:
        """Record a threading.Thread(...) construction and its target."""
        daemon = None
        daemon_expr = call_keyword(call, "daemon")
        if isinstance(daemon_expr, ast.Constant) \
                and isinstance(daemon_expr.value, bool):
            daemon = daemon_expr.value
        target_qual = None
        target_expr = call_keyword(call, "target")
        if target_expr is not None:
            target_qual = self._deferred_target(target_expr, call.lineno,
                                                via="thread-target")
        self.facts.threads.append(ThreadFact(
            line=call.lineno, daemon=daemon, target=target_qual,
            binding=None))

    def _deferred_target(self, expr: ast.expr, line: int,
                         via: str) -> Optional[str]:
        """A function reference handed off for later execution: record a
        deferred call site (entry lockset {} — it runs on another thread)."""
        if isinstance(expr, ast.Lambda):
            self._walk_deferred([ast.Expr(value=expr.body)])
            return None
        targets = self.scope.targets(expr)
        for target in targets:
            self.facts.calls.append(CallSite(line=line, callee=target,
                                             held=EMPTY, deferred=True,
                                             via=via))
        return targets[0] if len(targets) == 1 else None
