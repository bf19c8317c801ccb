"""The lock model: identities, sync tables, contracts, blocking leaves.

Everything the lockset transfer and the interprocedural analysis agree
on lives here:

* **Lock identity** — a lock is named by where it lives, not by which
  expression reached it: ``repro.serve.batching.BatchingQueue._lock``
  for an instance synchronization attribute (one abstract lock per class
  attribute — sound for the registry/service objects this verifier
  targets, which are created once per process), or
  ``repro.obs.tracer._LOCK`` for a module-level lock.
* **Per-class tables** — which attributes hold synchronization objects
  (and of what kind).  Every other attribute type comes from the shared
  call graph (:meth:`repro.lint.callgraph.CallGraph.attr_type`).
* **Contracts** — ``@guarded_by`` field declarations resolved to lock
  identities, and ``@holds_no_locks`` markings on blocking entry points,
  both re-read from the AST (never imported).
* **The blocking-leaf table** — the curated set of operations rule R12
  treats as *may block*: engine evaluation calls, file IO, socket/HTTP
  surfaces, ``Event.wait``/``Condition.wait``, thread joins and executor
  hand-offs.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Tuple

from ..astutil import decorator_tail, dotted_name, keyword_str
from ..callgraph import (CONSTRUCTOR_HOOKS, CallGraph, ClassInfo,
                         self_attr_assignment)

#: Constructor tails that create synchronization objects, by kind.
SYNC_CONSTRUCTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Event": "event",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
    "Barrier": "barrier",
    "Thread": "thread",
    "ThreadPoolExecutor": "executor",
    "ProcessPoolExecutor": "executor",
}

#: Sync kinds that act as mutexes (acquired by ``with``/``acquire``).
LOCK_KINDS = frozenset({"lock", "rlock", "condition"})

#: Mutex kinds that may be re-acquired by the holding thread.
REENTRANT_KINDS = frozenset({"rlock"})

#: Decorator tails the contract extractor recognizes.
GUARDED_BY_DECORATOR = "guarded_by"
HOLDS_NO_LOCKS_DECORATOR = "holds_no_locks"

#: External callables R12 treats as blocking (exact dotted names).
BLOCKING_EXTERNAL_EXACT = frozenset({
    "open", "input", "time.sleep", "os.replace", "select.select",
})

#: External dotted-name prefixes R12 treats as blocking surfaces.
BLOCKING_EXTERNAL_PREFIXES = (
    "socket.", "http.", "urllib.", "requests.", "subprocess.",
)

#: In-package entry points that run multi-second engine work.  They are
#: blocking leaves even without a ``@holds_no_locks`` decoration so a
#: dropped contract cannot silently disarm R12.
BLOCKING_INTERNAL = frozenset({
    "repro.dse.engine.evaluate_batch",
    "repro.dse.engine.run_sweep",
})

#: (sync kind, method) pairs that block the calling thread.  The mapped
#: value tells the transfer whether the call *releases* the receiver
#: while blocked (``Condition.wait`` drops its lock; nothing else does).
BLOCKING_SYNC_METHODS = {
    ("event", "wait"): False,
    ("condition", "wait"): True,
    ("condition", "wait_for"): True,
    ("thread", "join"): False,
    ("executor", "submit"): False,
    ("executor", "shutdown"): False,
    ("executor", "map"): False,
    ("barrier", "wait"): False,
    ("semaphore", "acquire"): False,
}


def lock_id(owner: str, attr: str) -> str:
    """The abstract identity of one lock: ``<owner qualname>.<attr>``."""
    return f"{owner}.{attr}"


def short_lock(lock: str) -> str:
    """Compact human form: last two dotted components
    (``BatchingQueue._lock``)."""
    parts = lock.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else lock


@dataclasses.dataclass
class ClassModel:
    """Sync attributes, attribute types and contracts of one class."""

    info: ClassInfo
    #: Synchronization attributes: name -> kind (see SYNC_CONSTRUCTORS).
    sync: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Guarded fields: field name -> resolved lock identity.
    guarded: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Line of the @guarded_by decoration that declared each field.
    guard_lines: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Malformed-declaration messages, as (line, message).
    errors: List[Tuple[int, str]] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ProjectModel:
    """All class models plus module-level locks of one linted project."""

    graph: CallGraph
    classes: Dict[str, ClassModel] = dataclasses.field(default_factory=dict)
    #: Module-level sync objects: lock identity -> kind.
    module_sync: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: @holds_no_locks functions: qualname -> (decorator line, reason).
    holds_no_locks: Dict[str, Tuple[int, str]] = dataclasses.field(
        default_factory=dict)

    # -------------------------------------------------------------- queries
    def _inherited(self, class_qualname: str, table: str,
                   key: str) -> Optional[Tuple[str, str]]:
        """(value, defining class) of ``key`` in one per-class table,
        searching the first in-package base class chain too."""
        current = class_qualname
        for _ in range(16):
            model = self.classes.get(current)
            if model is None:
                return None
            if key in getattr(model, table):
                return getattr(model, table)[key], current
            bases = self.graph.bases(model.info)
            if not bases:
                return None
            current = bases[0]
        return None

    def guard_for(self, class_qualname: str, field: str) -> Optional[str]:
        """The lock identity guarding ``field`` of ``class_qualname``
        (contracts are inherited)."""
        found = self._inherited(class_qualname, "guarded", field)
        return found[0] if found is not None else None

    def sync_kind(self, class_qualname: str, attr: str) -> Optional[str]:
        """The sync kind of ``class_qualname.attr`` (bases included)."""
        owned = self.sync_owner(class_qualname, attr)
        return owned[0] if owned is not None else None

    def sync_owner(self, class_qualname: str,
                   attr: str) -> Optional[Tuple[str, str]]:
        """(kind, defining class qualname) for a sync attribute.

        The defining class matters for lock identity: ``NullCache``
        inherits ``DiskCache._lock``, and both must map to the *same*
        abstract lock."""
        return self._inherited(class_qualname, "sync", attr)

    def is_reentrant_lock(self, lock: str) -> bool:
        kind = self.kind_of(lock)
        return kind in REENTRANT_KINDS

    def kind_of(self, lock: str) -> Optional[str]:
        if lock in self.module_sync:
            return self.module_sync[lock]
        owner, _, attr = lock.rpartition(".")
        return self.sync_kind(owner, attr)


def is_blocking_external(dotted: str) -> bool:
    if dotted in BLOCKING_EXTERNAL_EXACT:
        return True
    return any(dotted.startswith(p) for p in BLOCKING_EXTERNAL_PREFIXES)


# ---------------------------------------------------------------------------
# Building the model
# ---------------------------------------------------------------------------

def build_model(graph: CallGraph) -> ProjectModel:
    model = ProjectModel(graph=graph)
    for qualname in sorted(graph.classes):
        model.classes[qualname] = _build_class(graph, graph.classes[qualname])
    for name in sorted(graph.modules):
        _collect_module_sync(model, graph.modules[name])
    for qualname in sorted(graph.classes):
        _resolve_contracts(model, model.classes[qualname])
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        decl = _holds_no_locks_decl(info.decorators)
        if decl is not None:
            model.holds_no_locks[qualname] = decl
    return model


def _build_class(graph: CallGraph, info: ClassInfo) -> ClassModel:
    model = ClassModel(info=info)
    for ctor_name in CONSTRUCTOR_HOOKS:
        ctor = info.methods.get(ctor_name)
        if ctor is None:
            continue
        for node in ast.walk(ctor.node):
            target, value, _ = self_attr_assignment(node)
            sync = (_sync_kind_of_call(graph, info.module, value)
                    if target is not None else None)
            if sync is not None:
                model.sync[target] = sync
    return model


def _sync_kind_of_call(graph: CallGraph, module: str,
                       value: ast.expr) -> Optional[str]:
    """The sync kind when ``value`` constructs a synchronization object."""
    if not isinstance(value, ast.Call):
        return None
    dotted = dotted_name(value.func)
    if dotted is None:
        return None
    tail = dotted.split(".")[-1]
    if tail not in SYNC_CONSTRUCTORS:
        return None
    # An in-package class that happens to share a tail name wins.
    resolved = graph.resolve_dotted(module, dotted)
    if resolved is not None and resolved[0] == "class":
        return None
    return SYNC_CONSTRUCTORS[tail]


def _collect_module_sync(model: ProjectModel, mod) -> None:
    for target, (_, value) in mod.values.items():
        kind = _sync_kind_of_call(model.graph, mod.name, value)
        if kind is not None:
            model.module_sync[lock_id(mod.name, target)] = kind


# ---------------------------------------------------------------------------
# Contract extraction
# ---------------------------------------------------------------------------

def _resolve_contracts(model: ProjectModel, cls: ClassModel) -> None:
    for deco in cls.info.node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        if decorator_tail(deco) != GUARDED_BY_DECORATOR:
            continue
        literals: List[str] = []
        ok = True
        for arg in deco.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                literals.append(arg.value)
            else:
                cls.errors.append(
                    (deco.lineno,
                     f"@guarded_by on {cls.info.name!r}: lock and field "
                     "names must be string literals"))
                ok = False
                break
        if not ok:
            continue
        if len(literals) < 2:
            cls.errors.append(
                (deco.lineno,
                 f"@guarded_by on {cls.info.name!r} needs a lock name and "
                 "at least one field name"))
            continue
        lock = _resolve_lock_spec(model, cls, literals[0], deco.lineno)
        if lock is None:
            continue
        for field in literals[1:]:
            cls.guarded[field] = lock
            cls.guard_lines[field] = deco.lineno


def _resolve_lock_spec(model: ProjectModel, cls: ClassModel, spec: str,
                       line: int) -> Optional[str]:
    """A lock spec is ``"_lock"`` (own sync attr) or ``"Other._lock"``."""
    if "." not in spec:
        kind = model.sync_kind(cls.info.qualname, spec)
        if kind is None or kind not in LOCK_KINDS:
            cls.errors.append(
                (line,
                 f"@guarded_by on {cls.info.name!r}: {spec!r} is not a "
                 "mutex attribute of the class (expected a threading.Lock/"
                 "RLock/Condition assigned in __init__)"))
            return None
        return lock_id(cls.info.qualname, spec)
    owner_name, _, attr = spec.rpartition(".")
    resolved = model.graph.resolve_dotted(cls.info.module, owner_name)
    if resolved is None or resolved[0] != "class":
        cls.errors.append(
            (line,
             f"@guarded_by on {cls.info.name!r}: {owner_name!r} does not "
             "resolve to an in-package class"))
        return None
    kind = model.sync_kind(resolved[1], attr)
    if kind is None or kind not in LOCK_KINDS:
        cls.errors.append(
            (line,
             f"@guarded_by on {cls.info.name!r}: {spec!r} is not a mutex "
             f"attribute of {resolved[1]}"))
        return None
    return lock_id(resolved[1], attr)


def _holds_no_locks_decl(decorators) -> Optional[Tuple[int, str]]:
    for deco in decorators:
        if decorator_tail(deco) == HOLDS_NO_LOCKS_DECORATOR:
            reason = (keyword_str(deco, "reason")
                      if isinstance(deco, ast.Call) else None)
            return deco.lineno, reason or ""
    return None
