"""R5 — kernel parity: every kernel has an oracle and differential tests.

The kernel layer's safety story is that each production ``spmm_*`` kernel
in ``core/kernels.py`` is held bit for bit to a readable
``<kernel>_reference`` oracle by ``tests/test_kernels_differential.py``.
That story silently rots if someone adds a kernel without an oracle, or
forgets to wire either into the differential suite.  R5 reads the
module's top-level functions from its AST and checks, for each public
``spmm_*`` kernel:

* ``<kernel>_reference`` is defined in the same module;
* both names appear in the differential test suite.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..findings import Finding
from ..registry import Rule, register

KERNELS_MODULE = "repro/core/kernels.py"
KERNEL_PREFIX = "spmm_"
ORACLE_SUFFIX = "_reference"
DIFFERENTIAL_TEST = "tests/test_kernels_differential.py"

#: How many directory levels above kernels.py to search for the test suite.
_SEARCH_DEPTH = 6


@register
class KernelParityRule(Rule):
    code = "R5"
    name = "kernel-parity"
    severity = "error"
    scope = "project"
    description = ("every public spmm_* kernel has a <kernel>_reference "
                   "oracle, and both appear in the differential test suite")

    def check_project(self, project) -> Iterator[Finding]:
        ctx = project.find(KERNELS_MODULE)
        if ctx is None:
            return  # kernels module not part of this lint run

        functions = {n.name: n for n in ctx.tree.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        kernels = [node for name, node in functions.items()
                   if name.startswith(KERNEL_PREFIX)
                   and not name.endswith(ORACLE_SUFFIX)]
        if not kernels:
            yield self.finding(
                ctx.path, 1, 0,
                f"no public `{KERNEL_PREFIX}*` kernel found in "
                f"{KERNELS_MODULE}")
            return

        test_text = self._differential_test_text(project)
        for node in kernels:
            oracle = node.name + ORACLE_SUFFIX
            if oracle not in functions:
                yield self.finding(
                    ctx.path, node.lineno, node.col_offset,
                    f"kernel `{node.name}` has no `{oracle}` oracle in "
                    f"{KERNELS_MODULE}")
            if test_text is None:
                yield self.finding(
                    ctx.path, node.lineno, node.col_offset,
                    f"differential suite {DIFFERENTIAL_TEST} not found — "
                    f"kernel `{node.name}` has no bit-exactness coverage")
                continue
            for name in (node.name, oracle):
                if not re.search(rf"\b{name}\b", test_text):
                    yield self.finding(
                        ctx.path, node.lineno, node.col_offset,
                        f"`{name}` never appears in {DIFFERENTIAL_TEST} — "
                        f"add it to the differential bit-exactness suite")

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
