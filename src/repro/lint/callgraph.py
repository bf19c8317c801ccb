"""Package-wide call graph over the lint engine's ASTs.

The one place in :mod:`repro.lint` that types a function's locals and
resolves a call to the qualnames it reaches; the dataflow, effects and
concurrency verifiers all read it.  Built from the linted files alone (no
imports of the code under analysis), it binds every module's top-level
names (functions, classes, imports followed through re-exports and
aliases, module globals, and *registries*: dict literals of functions,
so ``REGISTRY[name](...)`` reaches every registered implementation) and
types values: annotations (``Optional``, ``Union``, ``List``, ``Dict``,
``Tuple``), dataclass fields and ``self.x = ...`` in constructors,
module-level instances and return annotations.  :class:`FunctionScope`
types one function's locals flow-insensitively (parameters, constructor
calls, ``dataclasses.replace`` overlays, loop targets over typed
containers including tuple unpacking, function-local imports) and
resolves its calls; ``x.m(...)`` on a ``Union`` receiver reaches every
member's ``m``.

Resolution is deliberately bounded: a local assigned a value the scope
cannot type has no type, and a call it cannot resolve reaches nothing.
Each verifier states what that means for it (effect-free for the effects
trust boundary, unbounded ⊤ for the dataflow verifier).
"""

from __future__ import annotations

import ast
import dataclasses
import weakref
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .astutil import dotted_name, iter_nodes, module_assignments

#: Maximum alias/re-export chain length followed during resolution.
_CHAIN_BOUND = 16

#: Passes of the flow-insensitive local typing before giving up.
_TYPE_PASSES = 4

#: Methods that run when a class is called.
CONSTRUCTOR_HOOKS = ("__init__", "__post_init__")

#: Annotation heads typing a mapping of their last argument, or a
#: container of their first.
_MAPPING_HEADS = frozenset({"Dict", "dict", "Mapping", "MutableMapping",
                            "DefaultDict", "OrderedDict"})
_SEQUENCE_HEADS = frozenset({"List", "list", "Sequence", "Iterable",
                             "Iterator", "FrozenSet", "frozenset", "Set",
                             "set", "Deque", "deque", "Tuple", "tuple"})

#: The AST nodes that bind a function-local name.
_BINDING_NODES = frozenset({
    ast.Import, ast.ImportFrom, ast.Assign, ast.AnnAssign, ast.AugAssign,
    ast.NamedExpr, ast.For, ast.AsyncFor, ast.comprehension, ast.withitem,
    ast.ExceptHandler, ast.Global, ast.FunctionDef,
    ast.AsyncFunctionDef, ast.Lambda})

#: Dict methods returning one value.
_DICT_VALUE_METHODS = frozenset({"get", "pop", "setdefault"})


# ---------------------------------------------------------------------------
# Module identity
# ---------------------------------------------------------------------------

def module_name_for(path: str) -> str:
    """Dotted module name for a linted path (posix separators).

    Uses the path tail from the *last* ``repro`` segment so both
    ``src/repro/dse/cache.py`` and a fixture named
    ``repro/dse/cache.py`` map to ``repro.dse.cache``; paths without a
    ``repro`` segment fall back to their stem (single-file fixtures).
    """
    parts = path.split("/")
    name = parts[-1]
    stem = name[:-3] if name.endswith(".py") else name
    anchor = None
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            anchor = i
            break
    if anchor is None:
        return stem
    dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
    return ".".join(dotted)


# ---------------------------------------------------------------------------
# Graph data model
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FunctionInfo:
    """One function or method definition in the linted tree."""

    qualname: str                   # module.fn or module.Class.fn
    name: str                       # bare name
    module: str                     # defining module's dotted name
    class_name: Optional[str]
    node: ast.AST                   # FunctionDef / AsyncFunctionDef
    path: str
    line: int
    decorators: List[ast.expr]

    @property
    def class_qualname(self) -> Optional[str]:
        return f"{self.module}.{self.class_name}" if self.class_name else None


@dataclasses.dataclass
class ClassInfo:
    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    path: str
    bases: List[str]                # dotted names as written
    methods: Dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)


# Binding targets are small tagged tuples:
#   ("func", qualname)                      in-package function/method
#   ("funcs", (qualname, ...))              any of several (a scope's Union
#                                           receiver or registry subscript)
#   ("class", qualname)                     in-package class
#   ("module", dotted)                      a module object (any origin)
#   ("external", dotted)                    external name (summary lookup)
#   ("import", module_name, original_name)  lazy from-import link
#   ("alias", dotted_text)                  top-level `f = g` / `f = a.b`
#   ("registry", (qualname, ...), line)     dict-of-functions dispatch table
#   ("global", kind, line)                  module-level variable;
#       kind in {"mutable", "object", "const"} — "object" is a constructor
#       call result (mutable instance), "mutable" a container literal.
Binding = Tuple

# Types are small tagged tuples too:
#   ("instance", class_qualname)      an object of an in-package class
#   ("union", (Type, ...))            any one of several types
#   ("list_of", Type)                 a container iterating to Type
#   ("dict_of", Type)                 a mapping whose values are Type
#   ("tuple_of", (Type | None, ...))  a fixed-length tuple
Type = Tuple


#: A local whose type a :class:`FunctionScope` is still computing: what
#: is derived from it is pending too, and joins skip it, so ``x = x or
#: C()`` and ``x = x.join(y)`` settle on the other sources' type.
_PENDING: Type = ("pending",)


def union(types: Iterable[Optional[Type]]) -> Optional[Type]:
    """The join of ``types``: None (unknown) if any member is unknown."""
    members: List[Type] = []
    for typ in types:
        if typ is None:
            return None
        if typ is _PENDING:
            continue
        for member in (typ[1] if typ[0] == "union" else (typ,)):
            if member not in members:
                members.append(member)
    if not members:
        return None
    return members[0] if len(members) == 1 else ("union", tuple(members))


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@dataclasses.dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    is_package: bool
    bindings: Dict[str, Binding] = dataclasses.field(default_factory=dict)
    #: Module-level globals: name -> (annotation, value) as written.
    values: Dict[str, Tuple[Optional[ast.expr], ast.expr]] = \
        dataclasses.field(default_factory=dict)

    @property
    def package(self) -> str:
        """The package this module's relative imports anchor at."""
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0]


class CallGraph:
    """All modules, functions and classes of one linted project."""

    def __init__(self):
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._scopes: Dict[int, FunctionScope] = {}
        #: class qualname -> {attribute: type}; built on first use.
        self._attr_tables: Optional[Dict[str, dict]] = None
        self._module_types: Dict[Tuple[str, str], Optional[Type]] = {}

    # ------------------------------------------------------------ building
    @classmethod
    def build(cls, project) -> "CallGraph":
        graph = cls()
        for ctx in project.files:
            graph._add_module(ctx)
        for mod in graph.modules.values():
            graph._bind_module(mod)
        return graph

    def _add_module(self, ctx) -> None:
        name = module_name_for(ctx.path)
        mod = ModuleInfo(name=name, path=ctx.path, tree=ctx.tree,
                         is_package=ctx.path.split("/")[-1] == "__init__.py")
        # Last writer wins on duplicate names (shouldn't happen in a repo).
        self.modules[name] = mod

    def _bind_module(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            self._bind_statement(mod, stmt)

    def _bind_statement(self, mod: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = self._register_function(mod, stmt, class_name=None)
            mod.bindings[stmt.name] = ("func", info.qualname)
        elif isinstance(stmt, ast.ClassDef):
            self._register_class(mod, stmt)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    mod.bindings[alias.asname] = ("module", alias.name)
                else:
                    root = alias.name.split(".")[0]
                    mod.bindings[root] = ("module", root)
        elif isinstance(stmt, ast.ImportFrom):
            target = self.resolve_import_from(mod, stmt)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.bindings[local] = ("import", target, alias.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for name, value, _ in module_assignments([stmt]):
                self._bind_assignment(mod, name, value, stmt.lineno,
                                      getattr(stmt, "annotation", None))
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING / try-import guards: bind both arms.
            for body in _nested_bodies(stmt):
                for sub in body:
                    self._bind_statement(mod, sub)

    def _register_function(self, mod: ModuleInfo, node,
                           class_name: Optional[str]) -> FunctionInfo:
        qual = (f"{mod.name}.{class_name}.{node.name}" if class_name
                else f"{mod.name}.{node.name}")
        info = FunctionInfo(qualname=qual, name=node.name, module=mod.name,
                            class_name=class_name, node=node, path=mod.path,
                            line=node.lineno,
                            decorators=list(node.decorator_list))
        self.functions[qual] = info
        return info

    def _register_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.name}.{node.name}"
        bases = [d for d in (dotted_name(b) for b in node.bases)
                 if d is not None]
        cls_info = ClassInfo(qualname=qual, name=node.name, module=mod.name,
                             node=node, path=mod.path, bases=bases)
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._register_function(mod, sub,
                                               class_name=node.name)
                cls_info.methods[sub.name] = info
        self.classes[qual] = cls_info
        mod.bindings[node.name] = ("class", qual)

    def resolve_import_from(self, mod: ModuleInfo,
                            stmt: ast.ImportFrom) -> str:
        """Absolute dotted module a ``from ... import`` targets."""
        if stmt.level == 0:
            return stmt.module or ""
        anchor = mod.package.split(".") if mod.package else []
        hops = stmt.level - 1
        base = anchor[:len(anchor) - hops] if hops else anchor
        parts = base + (stmt.module.split(".") if stmt.module else [])
        return ".".join(p for p in parts if p)

    def _bind_assignment(self, mod: ModuleInfo, name: str, value: ast.expr,
                         line: int, annotation: Optional[ast.expr]) -> None:
        dotted = dotted_name(value)
        if dotted is not None:
            mod.bindings[name] = ("alias", dotted)
            return
        registry = self._registry_values(value)
        if registry is not None:
            mod.bindings[name] = ("registry", tuple(registry), line)
            return
        mod.values[name] = (annotation, value)
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            mod.bindings[name] = ("global", "mutable", line)
            return
        if isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee in ("dict", "list", "set", "frozenset", "defaultdict",
                          "deque", "OrderedDict", "Counter"):
                mod.bindings[name] = ("global", "mutable", line)
            else:
                # Constructor-call result: a module-level object instance.
                mod.bindings[name] = ("global", "object", line)
            return
        mod.bindings[name] = ("global", "const", line)

    def _registry_values(self, value: ast.expr) -> Optional[List[str]]:
        """Bare-Name values of a dict literal, as written (resolved later)."""
        if not isinstance(value, ast.Dict) or not value.values:
            return None
        names = []
        for v in value.values:
            if not isinstance(v, ast.Name):
                return None
            names.append(v.id)
        return names

    # ----------------------------------------------------------- resolution
    def resolve_name(self, module: str, name: str,
                     _depth: int = 0) -> Optional[Binding]:
        """Resolve one local name in ``module`` through alias/import chains.

        Terminal bindings are ``func``/``class``/``module``/``external``/
        ``registry``/``global``; None means the name is unknown there.
        """
        if _depth > _CHAIN_BOUND:
            return None
        mod = self.modules.get(module)
        if mod is None:
            return None
        binding = mod.bindings.get(name)
        if binding is None:
            return None
        return self.follow(mod, binding, _depth)

    def follow(self, mod: ModuleInfo, binding: Binding,
               depth: int = 0) -> Optional[Binding]:
        """Resolve a binding written in ``mod`` to its terminal target."""
        if depth > _CHAIN_BOUND:
            return None
        tag = binding[0]
        if tag == "import":
            _, target_module, original = binding
            if target_module in self.modules:
                inner = self.resolve_name(target_module, original,
                                          depth + 1)
                if inner is not None:
                    return inner
                # The target module exists but doesn't bind the name —
                # maybe the name is itself a submodule (from pkg import m).
                sub = f"{target_module}.{original}"
                if sub in self.modules:
                    return ("module", sub)
                return ("external", f"{target_module}.{original}")
            return ("external", f"{target_module}.{original}"
                    if target_module else original)
        if tag == "alias":
            return self.resolve_dotted(mod.name, binding[1], depth + 1)
        if tag == "registry":
            # Resolve the written value names into function qualnames now.
            _, value_names, line = binding
            funcs = []
            for value_name in value_names:
                inner = self.resolve_name(mod.name, value_name, depth + 1)
                if inner is not None and inner[0] == "func":
                    funcs.append(inner[1])
            return ("registry", tuple(funcs), line)
        return binding

    def resolve_dotted(self, module: str, dotted: str,
                       _depth: int = 0) -> Optional[Binding]:
        """Resolve ``a.b.c`` from ``module``'s namespace.

        Walks the head binding, then descends: module attributes through
        that module's bindings, class attributes to methods (including
        in-package base classes), external heads to external dotted
        names.
        """
        if _depth > _CHAIN_BOUND:
            return None
        parts = dotted.split(".")
        head = self.resolve_name(module, parts[0], _depth + 1)
        if head is None:
            return None
        return self.descend(head, parts[1:], _depth + 1)

    def descend(self, binding: Binding, attrs: List[str],
                _depth: int = 0) -> Optional[Binding]:
        """Follow attribute accesses from a resolved binding."""
        if _depth > _CHAIN_BOUND:
            return None
        if not attrs:
            return binding
        tag = binding[0]
        head, rest = attrs[0], attrs[1:]
        if tag == "module":
            target = binding[1]
            sub = f"{target}.{head}"
            if target in self.modules:
                inner = self.resolve_name(target, head, _depth + 1)
                if inner is not None:
                    return self.descend(inner, rest, _depth + 1)
                if sub in self.modules:
                    return self.descend(("module", sub), rest, _depth + 1)
                return None
            if sub in self.modules:   # dotted import of an internal module
                return self.descend(("module", sub), rest, _depth + 1)
            return ("external", ".".join([target] + attrs))
        if tag == "external":
            return ("external", ".".join([binding[1]] + attrs))
        if tag == "class":
            method = self.lookup_method(binding[1], head)
            if method is not None and not rest:
                return ("func", method.qualname)
        return None

    def lookup_method(self, class_qualname: str, method: str,
                      _depth: int = 0) -> Optional[FunctionInfo]:
        """A method on a class or its in-package bases (MRO-ish, bounded)."""
        if _depth > _CHAIN_BOUND:
            return None
        cls = self.classes.get(class_qualname)
        if cls is None:
            return None
        if method in cls.methods:
            return cls.methods[method]
        for base in self.bases(cls):
            found = self.lookup_method(base, method, _depth + 1)
            if found is not None:
                return found
        return None

    def bases(self, cls: ClassInfo) -> List[str]:
        """Qualnames of the in-package base classes of ``cls``."""
        out = []
        for base in cls.bases:
            resolved = self.resolve_dotted(cls.module, base)
            if resolved is not None and resolved[0] == "class":
                out.append(resolved[1])
        return out

    def function_for(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    # ---------------------------------------------------------------- types
    def annotation_type(self, module: str,
                        annotation: Optional[ast.expr]) -> Optional[Type]:
        """The type an annotation written in ``module`` declares."""
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        members = None
        if isinstance(annotation, ast.BinOp) \
                and isinstance(annotation.op, ast.BitOr):
            members = [annotation.left, annotation.right]
        if isinstance(annotation, ast.Subscript):
            head = dotted_name(annotation.value)
            tail = head.split(".")[-1] if head else None
            args = (list(annotation.slice.elts)
                    if isinstance(annotation.slice, ast.Tuple)
                    else [annotation.slice])
            if not args:                      # Tuple[()]
                return None
            if tail in ("Optional", "Union"):
                members = args
            if tail in ("Tuple", "tuple") and not (
                    isinstance(args[-1], ast.Constant)
                    and args[-1].value is Ellipsis):
                elts = tuple(self.annotation_type(module, a) for a in args)
                return ("tuple_of", elts) if any(elts) else None
            if tail in _MAPPING_HEADS or tail in _SEQUENCE_HEADS:
                mapping = tail in _MAPPING_HEADS
                inner = self.annotation_type(module,
                                             args[-1] if mapping else args[0])
                if inner is not None:
                    return ("dict_of" if mapping else "list_of", inner)
                return None
        if members is not None:
            return union(self.annotation_type(module, a) for a in members
                         if not _is_none(a))
        dotted = dotted_name(annotation) if annotation is not None else None
        if dotted is None:
            return None
        resolved = self.resolve_dotted(module, dotted)
        if resolved is not None and resolved[0] == "class":
            return ("instance", resolved[1])
        return None

    def attr_type(self, class_qualname: str, attr: str,
                  _depth: int = 0) -> Optional[Type]:
        """Type of ``attr`` on instances of a class, bases searched too.

        From the class body's annotated fields and the ``self.attr``
        assignments of its constructor hooks.
        """
        if self._attr_tables is None:
            # All at once, in sorted order, so a table built while another
            # is in progress comes out the same whichever verifier asks.
            self._attr_tables = {}
            for qualname in sorted(self.classes):
                self._attr_table(qualname)
        table = self._attr_table(class_qualname)
        if attr in table:
            return table[attr]
        cls = self.classes.get(class_qualname)
        if cls is None or _depth > _CHAIN_BOUND:
            return None
        for base in self.bases(cls):
            found = self.attr_type(base, attr, _depth + 1)
            if found is not None:
                return found
        return None

    def _attr_table(self, class_qualname: str) -> Dict[str, Optional[Type]]:
        if class_qualname in self._attr_tables:
            return self._attr_tables[class_qualname]
        table: Dict[str, Optional[Type]] = {}
        self._attr_tables[class_qualname] = table   # in progress: empty
        cls = self.classes.get(class_qualname)
        if cls is None:
            return table
        declared = {s.target.id: self.annotation_type(cls.module, s.annotation)
                    for s in cls.node.body if isinstance(s, ast.AnnAssign)
                    and isinstance(s.target, ast.Name)}
        assigned: Dict[str, List[Optional[Type]]] = {}
        for hook in CONSTRUCTOR_HOOKS:
            ctor = cls.methods.get(hook)
            if ctor is None:
                continue
            scope = FunctionScope(self, ctor)
            for node in ast.walk(ctor.node):
                target, value, annotation = self_attr_assignment(node)
                if target is None:
                    continue
                if annotation is not None:
                    declared[target] = self.annotation_type(cls.module,
                                                            annotation)
                elif not _is_none(value):
                    assigned.setdefault(target, []).append(
                        scope.type_of(value))
        table.update((attr, union(ts)) for attr, ts in assigned.items())
        table.update(declared)
        return table

    def module_value_type(self, module: str, name: str,
                          _depth: int = 0) -> Optional[Type]:
        """Type of a module-level global (``X = C()`` or annotated)."""
        key = (module, name)
        if key in self._module_types:
            return self._module_types[key]
        mod = self.modules.get(module)
        binding = mod.bindings.get(name, ("",)) if mod is not None else ("",)
        typ = None
        if binding[0] == "import" and _depth < _CHAIN_BOUND:
            typ = self.module_value_type(binding[1], binding[2], _depth + 1)
        elif binding[0] == "global":
            annotation, value = mod.values[name]
            callee = (dotted_name(value.func)
                      if isinstance(value, ast.Call) else None)
            resolved = self.resolve_dotted(module, callee) if callee else None
            typ = self.annotation_type(module, annotation) or (
                ("instance", resolved[1])
                if resolved is not None and resolved[0] == "class" else None)
        self._module_types[key] = typ
        return typ

    def member_type(self, typ: Type, attr: str) -> Optional[Type]:
        """Type of ``value.attr`` for a value of type ``typ``."""
        if typ is _PENDING:
            return typ
        if typ[0] == "instance":
            return self.attr_type(typ[1], attr)
        if typ[0] == "union":
            return union(self.member_type(m, attr) for m in typ[1])
        return None

    def methods(self, typ: Type, name: str) -> Tuple[str, ...]:
        """Qualnames ``value.name`` may be; empty unless every member of
        ``typ`` is an in-package instance with that method."""
        out: List[str] = []
        for member in (typ[1] if typ[0] == "union" else (typ,)):
            method = (self.lookup_method(member[1], name)
                      if member[0] == "instance" else None)
            if method is None:
                return ()
            if method.qualname not in out:
                out.append(method.qualname)
        return tuple(out)

    def element_type(self, typ: Type) -> Optional[Type]:
        """Type of the values iterating a ``typ`` yields."""
        if typ is _PENDING:
            return typ
        if typ[0] == "list_of":
            return typ[1]
        if typ[0] == "tuple_of":
            return union(typ[1])
        if typ[0] == "union":
            return union(self.element_type(m) for m in typ[1])
        return None

    # --------------------------------------------------------------- scopes
    def scope(self, info: FunctionInfo) -> "FunctionScope":
        """The (memoised) typed scope of one function."""
        scope = self._scopes.get(id(info.node))
        if scope is None:
            scope = self._scopes[id(info.node)] = FunctionScope(self, info)
        return scope


class FunctionScope:
    """Flow-insensitive types of one function's locals, and its calls.

    A local's type is the join of every value assigned to it (``None``
    literals aside); one value the scope cannot type leaves the local
    untyped.  An annotated local takes its annotation.
    """

    def __init__(self, graph: CallGraph, info: FunctionInfo):
        # A proxy: the graph memoises its scopes, and a cycle back to it
        # would keep every run's ASTs alive until a full collection.
        self.graph = weakref.proxy(graph)
        self.info = info
        self.module = info.module
        #: Every name the function binds, minus its ``global`` names.
        self.locals: Set[str] = set()
        self.imports: Dict[str, Binding] = {}    # function-local imports
        self.globals: Set[str] = set()
        #: What each local is bound to: ``("value", expr, path)``,
        #: ``("iter", expr, path)`` for a loop target, or ``("type", Type
        #: or None, path)``; ``path`` indexes into tuple unpacking.
        self.sources: Dict[str, List[Tuple]] = {}
        self.types: Dict[str, Type] = {}
        #: Per-node answers, kept once the local types have settled.
        self._settled = False
        self._types_memo: Dict[int, object] = {}
        self._resolve_memo: Dict[int, object] = {}
        self._bind()
        self._settled = True

    # ------------------------------------------------------------- binding
    def _bind(self) -> None:
        fn = self.info.node
        mod = self.graph.modules[self.module]
        sources = self.sources
        declared: Dict[str, Optional[Type]] = {}

        args = fn.args
        for i, a in enumerate(args.posonlyargs + args.args + args.kwonlyargs):
            typ = self.graph.annotation_type(self.module, a.annotation)
            if i == 0 and self.info.class_name and a.arg in ("self", "cls"):
                # A method's receiver; a classmethod's ``cls`` constructs.
                typ = ("instance" if a.arg == "self" else "class",
                       self.info.class_qualname)
            sources[a.arg] = [("type", typ, ())]
        for extra in filter(None, (args.vararg, args.kwarg)):
            sources[extra.arg] = [("type", None, ())]
        for node in iter_nodes(fn):
            kind = type(node)
            if kind not in _BINDING_NODES or node is fn:
                continue
            if kind is ast.Import:
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self.imports[alias.asname or root] = (
                        "module", alias.name if alias.asname else root)
            elif kind is ast.ImportFrom:
                target = self.graph.resolve_import_from(mod, node)
                for alias in node.names:
                    if alias.name != "*":
                        self.imports[alias.asname or alias.name] = (
                            "import", target, alias.name)
            elif kind is ast.Assign:
                for tgt in node.targets:
                    self._add(tgt, "value", node.value)
            elif kind is ast.AnnAssign:
                if node.value is not None:
                    self._add(node.target, "value", node.value)
                if isinstance(node.target, ast.Name):
                    declared[node.target.id] = self.graph.annotation_type(
                        self.module, node.annotation)
            elif kind in (ast.AugAssign, ast.NamedExpr):
                self._add(node.target, "type", None)
            elif kind in (ast.For, ast.AsyncFor, ast.comprehension):
                self._add(node.target, "iter", node.iter)
            elif kind is ast.withitem:
                if node.optional_vars is not None:
                    self._add(node.optional_vars, "value", node.context_expr)
            elif kind is ast.ExceptHandler:
                if node.name:
                    self._add(ast.Name(id=node.name), "type", None)
            elif kind is ast.Global:
                self.globals.update(node.names)
            else:                       # a nested def or lambda
                if kind is not ast.Lambda:
                    self._add(ast.Name(id=node.name), "type", None)
                inner = node.args
                for a in (inner.posonlyargs + inner.args + inner.kwonlyargs
                          + list(filter(None, (inner.vararg, inner.kwarg)))):
                    self._add(ast.Name(id=a.arg), "type", None)
        self.locals = (set(sources) | set(declared)
                       | set(self.imports)) - self.globals
        inferred = sorted(n for n in sources
                          if n in self.locals and n not in declared)
        self.types = dict(declared)
        self.types.update((n, _PENDING) for n in inferred)
        for _ in range(_TYPE_PASSES):
            changed = set()
            for name in inferred:
                typ = union(self._source_type(s) for s in sources[name]
                            if not (s[0] == "value" and _is_none(s[1])))
                if self.types[name] != typ:
                    self.types[name] = typ
                    changed.add(name)
            if not changed:
                break
        # Unsettled after the last pass: unknown.
        self.types = {n: t for n, t in self.types.items()
                      if t is not None and t is not _PENDING
                      and n not in changed}

    def _add(self, target: ast.expr, kind: str, payload, path=()) -> None:
        if isinstance(target, ast.Name):
            self.sources.setdefault(target.id, []).append(
                (kind, payload, path))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for i, elt in enumerate(target.elts):
                if isinstance(elt, ast.Starred):
                    self._add(elt.value, "type", None)
                else:
                    self._add(elt, kind, payload, path + (i,))

    def _source_type(self, source: Tuple) -> Optional[Type]:
        kind, payload, path = source
        if kind == "type":
            typ = payload
        elif kind == "value":
            typ = self.type_of(payload)
        else:
            typ = self.type_of(payload)
            typ = self.graph.element_type(typ) if typ is not None else None
        for index in path:
            if typ is None:
                return None
            typ = _position(typ, index)
        return typ

    # --------------------------------------------------------------- typing
    def _memoised(self, memo: Dict[int, object], expr: ast.expr, compute):
        if not self._settled:
            return compute(expr)
        key = id(expr)
        if key not in memo:
            memo[key] = compute(expr)
        return memo[key]

    def type_of(self, expr: ast.expr) -> Optional[Type]:
        """The type of an expression inside this function, or None."""
        return self._memoised(self._types_memo, expr, self._type_of)

    def _type_of(self, expr: ast.expr) -> Optional[Type]:
        if isinstance(expr, ast.Name):
            binding = self.imports.get(expr.id)
            if binding is not None:
                return (self.graph.module_value_type(binding[1], binding[2])
                        if binding[0] == "import" else None)
            if expr.id in self.locals:
                typ = self.types.get(expr.id)
                return None if typ is not None and typ[0] == "class" else typ
            return self.graph.module_value_type(self.module, expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is not None:
                return self.graph.member_type(base, expr.attr)
            target = self.resolve(expr.value)
            if target is not None and target[0] == "module":
                return self.graph.module_value_type(target[1], expr.attr)
            return None
        if isinstance(expr, ast.Call):
            return self._call_type(expr)
        if isinstance(expr, ast.IfExp):
            return union(self.type_of(e) for e in (expr.body, expr.orelse)
                         if not _is_none(e))
        if isinstance(expr, ast.BoolOp):
            return union(self.type_of(e) for e in expr.values
                         if not _is_none(e))
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            elt = self.type_of(expr.elt)
            return elt if elt in (None, _PENDING) else ("list_of", elt)
        return None

    def _call_type(self, call: ast.Call) -> Optional[Type]:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = self.type_of(func.value)
            if receiver is _PENDING:
                return receiver
            if receiver is not None and receiver[0] == "dict_of":
                if func.attr in _DICT_VALUE_METHODS:
                    return receiver[1]
                if func.attr == "values":
                    return ("list_of", receiver[1])
                if func.attr == "items":
                    return ("list_of", ("tuple_of", (None, receiver[1])))
                return None
        target = self.resolve(func)
        if target is None:
            return None
        if target[0] == "class":
            return ("instance", target[1])
        if target == ("external", "dataclasses.replace") and call.args:
            # The overlay has its template's type.
            return self.type_of(call.args[0])
        if target in (("external", "zip"), ("external", "enumerate")):
            elts = [self.type_of(a) for a in call.args]
            elts = [e and self.graph.element_type(e) for e in elts]
            if target[1] == "enumerate":
                elts = [None] + elts[:1]
            return (("list_of", ("tuple_of", tuple(elts)))
                    if any(elts) else None)
        fns = [self.graph.functions[q] for q in self.targets(func)]
        return union(self.graph.annotation_type(f.module, f.node.returns)
                     for f in fns) if fns else None

    # ----------------------------------------------------------- resolution
    def resolve(self, expr: ast.expr) -> Optional[Binding]:
        """The binding an expression names from inside this function.

        A method on a typed receiver is ``("funcs", ...)`` (several for a
        ``Union``), as is ``REGISTRY[key]``; an untyped local is None; an
        unbound head (a builtin) is ``("external", dotted)``.
        """
        return self._memoised(self._resolve_memo, expr, self._resolve)

    def _resolve(self, expr: ast.expr) -> Optional[Binding]:
        if isinstance(expr, ast.Subscript):
            base = self.resolve(expr.value)
            if base is not None and base[0] == "registry":
                return ("funcs", base[1])
            return None
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is not None:
                quals = self.graph.methods(base, expr.attr)
                return ("funcs", quals) if quals else None
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        head, *attrs = dotted.split(".")
        if head in self.imports:
            followed = self.graph.follow(self.graph.modules[self.module],
                                         self.imports[head])
            return (self.graph.descend(followed, attrs)
                    if followed is not None else None)
        if head in self.locals:
            typ = self.types.get(head)
            if typ is not None and typ[0] == "class":   # cls(...), cls.m
                return self.graph.descend(typ, attrs)
            return None
        resolved = self.graph.resolve_dotted(self.module, dotted)
        if resolved is not None:
            return resolved
        if self.graph.resolve_name(self.module, head) is None:
            return ("external", dotted)    # unbound head: a builtin
        return None

    def module_global(self, name: str) -> Optional[Binding]:
        """The ``("global", kind, line)`` binding ``name`` reads, unless a
        local shadows it."""
        if name in self.locals:
            return None
        resolved = self.graph.resolve_name(self.module, name)
        return resolved if resolved and resolved[0] == "global" else None

    def targets(self, func: ast.expr) -> Tuple[str, ...]:
        """Qualnames of the in-package functions a callee expression may
        be: a function, the methods of a typed receiver, every function
        of a registry, or a called instance's ``__call__``."""
        target = self.resolve(func)
        if target is None:
            typ = self.type_of(func)
            return self.graph.methods(typ, "__call__") if typ else ()
        if target[0] == "func":
            return (target[1],)
        return target[1] if target[0] == "funcs" else ()

    def callees(self, call: ast.Call) -> Tuple[str, ...]:
        """Every in-package function ``call`` may enter: its
        :meth:`targets`, or a constructed class's constructor hooks."""
        target = self.resolve(call.func)
        if target is not None and target[0] == "class":
            hooks = (self.graph.lookup_method(target[1], h)
                     for h in CONSTRUCTOR_HOOKS)
            return tuple(h.qualname for h in hooks if h is not None)
        return self.targets(call.func)


def _position(typ: Type, index: int) -> Optional[Type]:
    """Type of element ``index`` when unpacking a value of ``typ``."""
    if typ is _PENDING:
        return typ
    if typ[0] == "tuple_of":
        return typ[1][index] if index < len(typ[1]) else None
    if typ[0] == "list_of":
        return typ[1]
    if typ[0] == "union":
        return union(_position(m, index) for m in typ[1])
    return None


def self_attr_assignment(node: ast.AST):
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


def _nested_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    bodies = [getattr(stmt, "body", [])]
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    bodies.append(getattr(stmt, "orelse", []))
    bodies.append(getattr(stmt, "finalbody", []))
    return [b for b in bodies if b]
