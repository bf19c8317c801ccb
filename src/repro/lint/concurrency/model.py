"""The lock model: identities, sync tables, contracts, blocking leaves.

Everything the lockset transfer and the interprocedural analysis agree
on lives here:

* **Lock identity** — a lock is named by where it lives, not by which
  expression reached it: ``repro.serve.jobs.JobStore._lock`` for an
  instance synchronization attribute (one abstract lock per class
  attribute — sound for the registry/service objects this verifier
  targets, which are created once per process), or
  ``repro.obs.tracer._LOCK`` for a module-level lock.
* **Per-class tables** — which attributes hold synchronization objects
  (and of what kind), and which attributes hold instances of in-package
  classes (so ``self.jobs.get(...)`` resolves through the attribute's
  type).
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

from ..astutil import dotted_name
from ..effects.callgraph import CallGraph, ClassInfo

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
    """Compact human form: last two dotted components (``JobStore._lock``)."""
    parts = lock.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else lock


@dataclasses.dataclass
class ClassModel:
    """Sync attributes, attribute types and contracts of one class."""

    info: ClassInfo
    #: Synchronization attributes: name -> kind (see SYNC_CONSTRUCTORS).
    sync: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Attribute types: name -> ("instance"|"dict_of"|"list_of", qualname).
    attr_types: Dict[str, Tuple[str, str]] = dataclasses.field(
        default_factory=dict)
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
    def class_model(self, qualname: str) -> Optional[ClassModel]:
        return self.classes.get(qualname)

    def guard_for(self, class_qualname: str, field: str) -> Optional[str]:
        """The lock identity guarding ``field`` of ``class_qualname``,
        searching in-package base classes too (inherited contracts)."""
        seen = 0
        current = class_qualname
        while current is not None and seen < 16:
            seen += 1
            model = self.classes.get(current)
            if model is None:
                return None
            if field in model.guarded:
                return model.guarded[field]
            current = self._single_base(model)
        return None

    def _single_base(self, model: ClassModel) -> Optional[str]:
        for base in model.info.bases:
            resolved = self.graph.resolve_dotted(model.info.module, base)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
        return None

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
        seen = 0
        current = class_qualname
        while current is not None and seen < 16:
            seen += 1
            model = self.classes.get(current)
            if model is None:
                return None
            if attr in model.sync:
                return model.sync[attr], current
            current = self._single_base(model)
        return None

    def attr_type(self, class_qualname: str,
                  attr: str) -> Optional[Tuple[str, str]]:
        seen = 0
        current = class_qualname
        while current is not None and seen < 16:
            seen += 1
            model = self.classes.get(current)
            if model is None:
                return None
            if attr in model.attr_types:
                return model.attr_types[attr]
            current = self._single_base(model)
        return None

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
    for ctor_name in ("__init__", "__post_init__"):
        ctor = info.methods.get(ctor_name)
        if ctor is None:
            continue
        params = _param_types(graph, info.module, ctor.node)
        for node in ast.walk(ctor.node):
            target, value, annotation = _self_attr_assignment(node)
            if target is None:
                continue
            _classify_attr(graph, info.module, model, target, value,
                           annotation, params)
    return model


def _self_attr_assignment(node: ast.AST):
    """(attr, value, annotation) for ``self.X = ...`` statements."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        tgt = node.targets[0]
        if isinstance(tgt, ast.Attribute) and isinstance(tgt.value, ast.Name) \
                and tgt.value.id == "self":
            return tgt.attr, node.value, None
    elif isinstance(node, ast.AnnAssign) \
            and isinstance(node.target, ast.Attribute) \
            and isinstance(node.target.value, ast.Name) \
            and node.target.value.id == "self":
        return node.target.attr, node.value, node.annotation
    return None, None, None


def _classify_attr(graph: CallGraph, module: str, model: ClassModel,
                   attr: str, value: Optional[ast.expr],
                   annotation: Optional[ast.expr],
                   params: Dict[str, Tuple[str, str]]) -> None:
    if annotation is not None:
        typed = resolve_annotation(graph, module, annotation)
        if typed is not None:
            model.attr_types.setdefault(attr, typed)
    if value is None:
        return
    sync = _sync_kind_of_call(graph, module, value)
    if sync is not None:
        model.sync[attr] = sync
        return
    typed = _value_type(graph, module, value, params)
    if typed is not None:
        model.attr_types.setdefault(attr, typed)


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


def _value_type(graph: CallGraph, module: str, value: ast.expr,
                params: Dict[str, Tuple[str, str]]
                ) -> Optional[Tuple[str, str]]:
    if isinstance(value, ast.IfExp):
        return (_value_type(graph, module, value.body, params)
                or _value_type(graph, module, value.orelse, params))
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        resolved = graph.resolve_dotted(module, dotted) if dotted else None
        if resolved is not None and resolved[0] == "class":
            return ("instance", resolved[1])
        return None
    if isinstance(value, ast.Name):
        return params.get(value.id)
    return None


def _param_types(graph: CallGraph, module: str,
                 node) -> Dict[str, Tuple[str, str]]:
    out: Dict[str, Tuple[str, str]] = {}
    args = node.args
    for a in (list(getattr(args, "posonlyargs", [])) + list(args.args)
              + list(args.kwonlyargs)):
        if a.annotation is None:
            continue
        typed = resolve_annotation(graph, module, a.annotation)
        if typed is not None:
            out[a.arg] = typed
    return out


def resolve_annotation(graph: CallGraph, module: str,
                       annotation: ast.expr) -> Optional[Tuple[str, str]]:
    """Type info from an annotation: plain classes, ``Optional[C]``,
    ``Dict[_, C]`` and ``List[C]``/``Sequence[C]``/``Iterable[C]``."""
    if isinstance(annotation, ast.Constant) \
            and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.Subscript):
        head = dotted_name(annotation.value)
        tail = head.split(".")[-1] if head else None
        inner = annotation.slice
        if tail == "Optional":
            return resolve_annotation(graph, module, inner)
        if tail in ("Dict", "dict", "Mapping", "MutableMapping") \
                and isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
            value = resolve_annotation(graph, module, inner.elts[1])
            if value is not None and value[0] == "instance":
                return ("dict_of", value[1])
            return None
        if tail in ("List", "list", "Sequence", "Iterable", "Iterator",
                    "FrozenSet", "Set", "Tuple"):
            elt = inner.elts[0] if isinstance(inner, ast.Tuple) \
                and inner.elts else inner
            value = resolve_annotation(graph, module, elt)
            if value is not None and value[0] == "instance":
                return ("list_of", value[1])
            return None
        return None
    dotted = dotted_name(annotation)
    if dotted is None:
        return None
    resolved = graph.resolve_dotted(module, dotted)
    if resolved is not None and resolved[0] == "class":
        return ("instance", resolved[1])
    return None


def _collect_module_sync(model: ProjectModel, mod) -> None:
    for stmt in mod.tree.body:
        target = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            target, value = stmt.targets[0].id, stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            target, value = stmt.target.id, stmt.value
        if target is None:
            continue
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
        name = dotted_name(deco.func)
        tail = name.split(".")[-1] if name else None
        if tail != GUARDED_BY_DECORATOR:
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
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        tail = name.split(".")[-1] if name else None
        if tail != HOLDS_NO_LOCKS_DECORATOR:
            continue
        reason = ""
        if isinstance(deco, ast.Call):
            for kw in deco.keywords:
                if kw.arg == "reason" and isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    reason = kw.value.value
        return deco.lineno, reason
    return None
