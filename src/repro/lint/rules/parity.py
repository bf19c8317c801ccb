"""R5 — kernel parity: every kernel has reference+fast and differential tests.

The kernel layer's safety story (PR 1) is that the readable ``reference``
implementation and the vectorized ``fast`` one are interchangeable and
bit-identical, enforced by ``tests/test_kernels_differential.py``.  That
story silently rots if someone adds a kernel with only one implementation,
or forgets to wire it into the differential suite.  R5 re-derives the
kernel registry from ``core/kernels.py``'s AST — the
``KERNEL_IMPLEMENTATIONS`` tuple and the ``_<FAMILY>_IMPLS`` dispatch
dicts — and checks:

* each dispatch dict provides every implementation named in
  ``KERNEL_IMPLEMENTATIONS`` (no reference-less fast paths and vice versa);
* the public kernel function each dict serves exists in the module;
* that public function appears in the differential test suite.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..findings import Finding
from ..registry import Rule, register

KERNELS_MODULE = "repro/core/kernels.py"
IMPLS_SUFFIX = "_IMPLS"
IMPLEMENTATIONS_NAME = "KERNEL_IMPLEMENTATIONS"
DIFFERENTIAL_TEST = "tests/test_kernels_differential.py"

#: How many directory levels above kernels.py to search for the test suite.
_SEARCH_DEPTH = 6


def _str_tuple(node: ast.expr) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                return None
            out.append(elt.value)
        return tuple(out)
    return None


def _public_kernel_name(dict_name: str,
                        entries: Dict[str, str]) -> Optional[str]:
    """Derive the public function a ``_X_IMPLS`` dict dispatches for.

    The convention is ``{"impl": _<public>_<impl>}``; the public name is
    whatever is left after stripping the leading underscore and the
    trailing ``_<impl>`` — and it must agree across every entry.
    """
    candidates = set()
    for impl, value_name in entries.items():
        name = value_name.lstrip("_")
        suffix = "_" + impl
        if not name.endswith(suffix):
            return None
        candidates.add(name[: -len(suffix)])
    if len(candidates) == 1:
        return candidates.pop()
    return None


@register
class KernelParityRule(Rule):
    code = "R5"
    name = "kernel-parity"
    severity = "error"
    scope = "project"
    description = ("every registered kernel exposes reference+fast impls "
                   "and appears in the differential test suite")

    def check_project(self, project) -> Iterator[Finding]:
        ctx = project.find(KERNELS_MODULE)
        if ctx is None:
            return  # kernels module not part of this lint run

        impls: Optional[Tuple[str, ...]] = None
        dispatch: List[Tuple[str, ast.Dict, int, int]] = []
        functions = {n.name for n in ctx.tree.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}

        for stmt in ctx.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if len(stmt.targets) != 1 \
                    or not isinstance(stmt.targets[0], ast.Name):
                continue
            target = stmt.targets[0].id
            if target == IMPLEMENTATIONS_NAME:
                impls = _str_tuple(stmt.value)
            elif target.endswith(IMPLS_SUFFIX) \
                    and isinstance(stmt.value, ast.Dict):
                dispatch.append((target, stmt.value,
                                 stmt.lineno, stmt.col_offset))

        if impls is None:
            yield self.finding(
                ctx.path, 1, 0,
                f"`{IMPLEMENTATIONS_NAME}` tuple of implementation names "
                f"not found in {KERNELS_MODULE}")
            return
        if not dispatch:
            yield self.finding(
                ctx.path, 1, 0,
                f"no `*{IMPLS_SUFFIX}` dispatch dicts found in "
                f"{KERNELS_MODULE}")
            return

        test_text = self._differential_test_text(project)
        for dict_name, node, lineno, col in dispatch:
            entries: Dict[str, str] = {}
            parsable = True
            for key, value in zip(node.keys, node.values):
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(value, ast.Name)):
                    parsable = False
                    break
                entries[key.value] = value.id
            if not parsable:
                yield self.finding(
                    ctx.path, lineno, col,
                    f"`{dict_name}` must literally map implementation-name "
                    f"strings to module functions so parity is checkable")
                continue

            for impl in impls:
                if impl not in entries:
                    yield self.finding(
                        ctx.path, lineno, col,
                        f"kernel family `{dict_name}` has no `{impl}` "
                        f"implementation — every kernel ships "
                        f"{'+'.join(impls)}")
            for impl in entries:
                if impl not in impls:
                    yield self.finding(
                        ctx.path, lineno, col,
                        f"`{dict_name}` registers unknown implementation "
                        f"`{impl}` (not in {IMPLEMENTATIONS_NAME})")

            public = _public_kernel_name(dict_name, entries)
            if public is None:
                yield self.finding(
                    ctx.path, lineno, col,
                    f"`{dict_name}` entries do not follow the "
                    f"`_<kernel>_<impl>` naming convention — the public "
                    f"kernel cannot be derived")
                continue
            if public not in functions:
                yield self.finding(
                    ctx.path, lineno, col,
                    f"dispatch dict `{dict_name}` serves `{public}` but no "
                    f"such public function is defined in {KERNELS_MODULE}")
            if test_text is None:
                yield self.finding(
                    ctx.path, lineno, col,
                    f"differential suite {DIFFERENTIAL_TEST} not found — "
                    f"kernel `{public}` has no bit-exactness coverage")
            elif public not in test_text:
                yield self.finding(
                    ctx.path, lineno, col,
                    f"kernel `{public}` never appears in "
                    f"{DIFFERENTIAL_TEST} — add it to the differential "
                    f"bit-exactness suite")

    # ------------------------------------------------------------------ util
    def _differential_test_text(self, project) -> Optional[str]:
        """The differential suite's source: linted file or on-disk sibling."""
        in_project = project.find(DIFFERENTIAL_TEST)
        if in_project is not None:
            return in_project.source
        kernels = project.find(KERNELS_MODULE)
        if kernels is None or kernels.real_path is None:
            return None
        node = kernels.real_path.resolve().parent
        for _ in range(_SEARCH_DEPTH):
            candidate = node / DIFFERENTIAL_TEST
            if candidate.is_file():
                return candidate.read_text(encoding="utf-8")
            if node.parent == node:
                break
            node = node.parent
        return None
