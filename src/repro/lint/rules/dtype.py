"""R1 — dtype discipline: the PE datapath modules stay integer-only.

Both PE functional models and the kernel layer are bit-exact integer
simulations (int64 end to end; runtime guards reject float activations).
A float sneaking into these modules — a true division, a default-dtype
allocation, a float ``astype`` — silently breaks bit-exactness with the
hardware's two's-complement arithmetic long before any test notices.
R1 flags the float-producing constructs inside the kernel/PE modules;
a deliberate float utility belongs in a module outside that surface.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from ..astutil import (call_keyword, dotted_name, names_imported_from,
                       numpy_aliases)
from ..findings import Finding
from ..registry import Rule, register

#: The integer-datapath surface R1 polices (suffix match on posix paths).
KERNEL_MODULES: Tuple[str, ...] = (
    "repro/core/kernels.py",
    "repro/core/mram_pe.py",
    "repro/core/sram_pe.py",
    "repro/core/bitserial.py",
)

#: numpy attributes that name float dtypes.
NUMPY_FLOAT_ATTRS = frozenset({
    "float16", "float32", "float64", "float128", "float_", "half", "single",
    "double", "longdouble",
})

#: Allocation functions whose dtype defaults to float64 when omitted.
#: (``np.full``/``np.arange`` infer from their value arguments, so omitting
#: dtype there does not imply float — they are not listed.)
DEFAULT_FLOAT_ALLOCATORS = frozenset({
    "zeros", "ones", "empty", "eye", "identity",
})


@register
class DtypeDisciplineRule(Rule):
    code = "R1"
    name = "dtype-discipline"
    severity = "error"
    scope = "file"
    description = ("no float-producing numpy ops inside the integer "
                   "kernel/PE modules")

    def applies_to(self, path: str) -> bool:
        return any(path == mod or path.endswith("/" + mod)
                   for mod in KERNEL_MODULES)

    def check_file(self, ctx) -> Iterator[Finding]:
        np_names = numpy_aliases(ctx.tree)
        float_names = names_imported_from(ctx.tree, "numpy") \
            & NUMPY_FLOAT_ATTRS

        def is_float_dtype_expr(node: ast.expr) -> bool:
            if isinstance(node, ast.Name):
                return node.id == "float" or node.id in float_names
            if isinstance(node, ast.Attribute):
                dn = dotted_name(node)
                if dn is None:
                    return False
                head, _, attr = dn.rpartition(".")
                return head in np_names and attr in NUMPY_FLOAT_ATTRS
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                return node.value.startswith("float") or node.value in (
                    "f2", "f4", "f8", "f16", "single", "double", "half")
            return False

        for node in ast.walk(ctx.tree):
            # float dtype attributes / names used anywhere
            if isinstance(node, ast.Attribute):
                dn = dotted_name(node)
                if dn is not None:
                    head, _, attr = dn.rpartition(".")
                    if head in np_names and attr in NUMPY_FLOAT_ATTRS:
                        yield self.finding(
                            ctx.path, node.lineno, node.col_offset,
                            f"float dtype `{dn}` in an integer-only "
                            f"datapath module")
            elif isinstance(node, ast.Name) and node.id in float_names:
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    yield self.finding(
                        ctx.path, node.lineno, node.col_offset,
                        f"float dtype `{node.id}` in an integer-only "
                        f"datapath module")

            # true division
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                yield self.finding(
                    ctx.path, node.lineno, node.col_offset,
                    "true division `/` produces float64 — use `//` "
                    "(a float ratio belongs outside the integer datapath "
                    "modules)")
            if isinstance(node, ast.AugAssign) \
                    and isinstance(node.op, ast.Div):
                yield self.finding(
                    ctx.path, node.lineno, node.col_offset,
                    "augmented true division `/=` produces float64")

            if not isinstance(node, ast.Call):
                continue

            # .astype(float-ish)
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "astype":
                target = node.args[0] if node.args \
                    else call_keyword(node, "dtype")
                if target is not None and is_float_dtype_expr(target):
                    yield self.finding(
                        ctx.path, node.lineno, node.col_offset,
                        "`.astype(<float>)` silently truncates on the "
                        "way back — keep the datapath integer")

            # default-dtype allocators: np.zeros(...) with no dtype=
            dn = dotted_name(node.func)
            if dn is not None:
                head, _, attr = dn.rpartition(".")
                if head in np_names and attr in DEFAULT_FLOAT_ALLOCATORS:
                    dtype = call_keyword(node, "dtype")
                    if dtype is None:
                        yield self.finding(
                            ctx.path, node.lineno, node.col_offset,
                            f"`{dn}(...)` without dtype= allocates "
                            f"float64 — pass an integer dtype")
                    elif is_float_dtype_expr(dtype):
                        yield self.finding(
                            ctx.path, node.lineno, node.col_offset,
                            f"`{dn}(...)` with a float dtype in an "
                            f"integer-only datapath module")
