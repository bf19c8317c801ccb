"""Shared AST helpers for the rule implementations.

The rules care about a handful of recurring questions — "is this expression
``np.<something>``?", "which names in this module are bound to numpy?",
"what function am I inside?" — answered here once so each rule stays a
short, readable visitor.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple


def numpy_aliases(tree: ast.AST) -> Set[str]:
    """Names bound to the ``numpy`` module itself (``import numpy as np``)."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    out.add(alias.asname or "numpy")
    return out


def module_aliases(tree: ast.AST, module: str) -> Set[str]:
    """Names bound to module ``module`` itself (``import time as t``)."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    out.add(alias.asname or module)
    return out


def numpy_random_aliases(tree: ast.AST) -> Set[str]:
    """Names bound to the ``numpy.random`` module.

    Covers ``import numpy.random as nr`` and ``from numpy import random``.
    """
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.random" and alias.asname:
                    out.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy" and node.level == 0:
                for alias in node.names:
                    if alias.name == "random":
                        out.add(alias.asname or "random")
    return out


def names_imported_from(tree: ast.AST, module: str) -> Set[str]:
    """Local names introduced by ``from <module> import x [as y]``."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == module and node.level == 0:
                for alias in node.names:
                    out.add(alias.asname or alias.name)
    return out


def iter_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``node``, itself included, in source order.

    Like :func:`ast.walk` but depth-first and without the ``ctx``
    (Load/Store/Del) markers, which makes it about twice as fast.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        fields = node._fields
        for i in range(len(fields) - 1, -1, -1):
            value = getattr(node, fields[i], None)
            if type(value) is list:
                for j in range(len(value) - 1, -1, -1):
                    if isinstance(value[j], ast.AST):
                        stack.append(value[j])
            elif isinstance(value, ast.AST) and fields[i] != "ctx":
                stack.append(value)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_assignments(body: List[ast.stmt]
                       ) -> Iterator[Tuple[str, ast.AST, ast.stmt]]:
    """``(name, value, statement)`` for each ``NAME = value`` or
    ``NAME: T = value`` statement in ``body``."""
    for stmt in body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            yield stmt.targets[0].id, stmt.value, stmt
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and stmt.value is not None:
            yield stmt.target.id, stmt.value, stmt


def call_keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
    """The value of keyword argument ``name`` on a call, if present."""
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def keyword_str(node: ast.Call, name: str) -> Optional[str]:
    """A string-literal keyword argument of a call, if present."""
    value = call_keyword(node, name)
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    return None


def decorator_tail(deco: ast.expr) -> Optional[str]:
    """The last name a decorator spells (``@a.b(...)`` -> ``"b"``)."""
    name = dotted_name(deco.func if isinstance(deco, ast.Call) else deco)
    return name.split(".")[-1] if name else None


def walk_with_function_stack(tree: ast.AST
                             ) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
    """Yield ``(node, enclosing_function_names)`` over the whole tree.

    The stack is the chain of ``FunctionDef``/``AsyncFunctionDef`` names the
    node sits inside, outermost first — what R3 needs to recognise the
    designated ``_charge_*`` methods.
    """

    def visit(node: ast.AST, stack: Tuple[str, ...]):
        yield node, stack
        child_stack = stack
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_stack = stack + (node.name,)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, child_stack)

    yield from visit(tree, ())


def module_constant_nodes(tree: ast.Module) -> Set[int]:
    """ids of AST nodes inside named-constant definitions.

    Numeric literals are exempt from the magnitude check (R2) when they form
    part of a *named* constant — an UPPER_CASE module-level assignment or a
    class-level annotated default (dataclass field) — because the name plus
    its comment/docstring is exactly the declaration the rule wants.
    """
    allowed: Set[int] = set()

    def mark(node: ast.AST) -> None:
        for sub in ast.walk(node):
            allowed.add(id(sub))

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            if all(isinstance(t, ast.Name) and t.id.isupper()
                   for t in targets):
                mark(stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name) and stmt.target.id.isupper():
                mark(stmt.value)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    mark(sub.value)
                elif isinstance(sub, ast.Assign):
                    mark(sub.value)
    return allowed


def is_numeric_constant(node: ast.AST) -> bool:
    """True for int/float literals (bools excluded)."""
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))
