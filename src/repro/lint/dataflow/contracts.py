"""Reading ``@width_contract`` declarations back out of source ASTs.

The runtime decorator (:func:`repro.core.widths.width_contract`) only
attaches metadata; this module re-parses the same declaration from the
AST so the verifier needs no imports of the code under analysis.  It also
owns *constant resolution*: names inside contract expressions (``depth=
"MAX_REDUCTION_DEPTH"``) resolve against the ``repro.core.widths``
constant table — rebuilt here by folding the module's own UPPER_CASE
assignments — merged with the contracted module's UPPER_CASE constants.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..astutil import decorator_tail, module_assignments
from ..callgraph import module_name_for

#: The decorator name the extractor recognises (bare or dotted tail).
DECORATOR_NAME = "width_contract"

#: Path suffix of the single-source-of-truth constants module.
WIDTHS_SUFFIX = "core/widths.py"

#: How far up the directory tree the disk fallback searches (mirrors the
#: kernel-parity rule's project-root discovery).
_SEARCH_DEPTH = 6


@dataclasses.dataclass
class ContractError:
    """A declaration the extractor could not make sense of."""

    path: str
    line: int
    message: str


@dataclasses.dataclass
class WidthContract:
    """One extracted declaration, bound to its function definition."""

    name: str                      # bare function name
    qualname: str                  # Class.method / plain function name
    module: str                    # defining module's dotted name
    path: str
    line: int
    arg_names: Tuple[str, ...]     # positional args, self/cls dropped
    node: ast.AST                  # the FunctionDef (body to analyse)
    inputs: Optional[str] = None
    weights: Optional[str] = None
    accum: Optional[str] = None
    depth: Optional[str] = None
    returns: Optional[str] = None
    bounds: Dict[str, int] = dataclasses.field(default_factory=dict)
    params: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def function(self) -> str:
        """The decorated function's call-graph qualname (summary-DB key)."""
        return f"{self.module}.{self.qualname}"

    def role_spec(self, role: str) -> Optional[str]:
        """The width spec declared for ``"inputs"`` / ``"weights"``."""
        if role == "inputs":
            return self.inputs
        if role == "weights":
            return self.weights
        return None


# ---------------------------------------------------------------------------
# Integer constant folding (module-level tables, bounds values)
# ---------------------------------------------------------------------------

_FOLD_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.FloorDiv: lambda a, b: a // b if b else None,
    ast.Mod: lambda a, b: a % b if b else None,
    ast.LShift: lambda a, b: a << b if 0 <= b <= 256 else None,
    ast.RShift: lambda a, b: a >> b if b >= 0 else None,
    ast.Pow: lambda a, b: a ** b if 0 <= b <= 256 else None,
}


def fold_int(node: ast.AST, env: Dict[str, int]) -> Optional[int]:
    """Evaluate an integer expression over named constants, or None."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int) and not isinstance(node.value, bool):
            return node.value
        return None
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = fold_int(node.operand, env)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp):
        op = _FOLD_BINOPS.get(type(node.op))
        if op is None:
            return None
        left = fold_int(node.left, env)
        right = fold_int(node.right, env)
        if left is None or right is None:
            return None
        return op(left, right)
    return None


def module_int_constants(tree: ast.Module) -> Dict[str, int]:
    """UPPER_CASE module-level integer constants, folded in order."""
    env: Dict[str, int] = {}
    for target, value, _ in module_assignments(tree.body):
        folded = fold_int(value, env) if target.isupper() else None
        if folded is not None:
            env[target] = folded
    return env


def widths_constants(project, fallback_from: Optional[Path] = None
                     ) -> Optional[Dict[str, int]]:
    """The ``repro.core.widths`` constant table, or None if unavailable.

    Prefers the linted copy (so fixtures can supply their own), falling
    back to the on-disk module found by walking up from any real path —
    the same two-step lookup the kernel-parity rule uses for the
    differential test suite.
    """
    text = load_project_text(project, WIDTHS_SUFFIX,
                             fallback_from=fallback_from)
    if text is None:
        return None
    try:
        tree = ast.parse(text)
    except SyntaxError:
        return None
    return module_int_constants(tree)


def load_project_text(project, suffix: str,
                      fallback_from: Optional[Path] = None) -> Optional[str]:
    """Text of the linted file ending in ``suffix``, else the disk copy."""
    ctx = project.find(suffix) if project is not None else None
    if ctx is not None:
        return ctx.source
    anchors: List[Path] = []
    if fallback_from is not None:
        anchors.append(fallback_from)
    if project is not None:
        anchors.extend(c.real_path for c in project.files
                       if c.real_path is not None)
    for anchor in anchors[:1] or []:
        base = anchor if anchor.is_dir() else anchor.parent
        for _ in range(_SEARCH_DEPTH):
            for rel in (suffix, "src/repro/" + suffix, "repro/" + suffix):
                candidate = base / rel
                if candidate.is_file():
                    return candidate.read_text(encoding="utf-8")
            base = base.parent
    return None


# ---------------------------------------------------------------------------
# Decorator extraction
# ---------------------------------------------------------------------------

def extract_contracts(tree: ast.Module, path: str,
                      const_env: Dict[str, int]
                      ) -> Tuple[List[WidthContract], List[ContractError]]:
    """All ``@width_contract`` declarations in one module.

    ``const_env`` resolves names used as ``bounds=`` values (the widths
    table merged with the module's own UPPER constants).
    """
    contracts: List[WidthContract] = []
    errors: List[ContractError] = []

    def visit(node: ast.AST, class_name: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deco = _contract_decorator(child)
                if deco is not None:
                    built = _build(child, deco, class_name, path,
                                   const_env, errors)
                    if built is not None:
                        contracts.append(built)
                visit(child, None)

    visit(tree, None)
    return contracts, errors


def _contract_decorator(fn: ast.AST) -> Optional[ast.Call]:
    for deco in fn.decorator_list:
        if isinstance(deco, ast.Call) \
                and decorator_tail(deco) == DECORATOR_NAME:
            return deco
    return None


def _build(fn, deco: ast.Call, class_name: Optional[str], path: str,
           const_env: Dict[str, int],
           errors: List[ContractError]) -> Optional[WidthContract]:
    line = deco.lineno
    fields: Dict[str, object] = {}
    for kw in deco.keywords:
        if kw.arg is None:
            errors.append(ContractError(
                path, line, f"width contract on {fn.name!r} uses **kwargs; "
                "declare fields literally"))
            return None
        fields[kw.arg] = kw.value

    def text_field(key: str) -> Optional[str]:
        node = fields.get(key)
        if node is None:
            return None
        value = _string_value(node)
        if value is None:
            errors.append(ContractError(
                path, getattr(node, "lineno", line),
                f"width contract {key}= on {fn.name!r} must be a string "
                "literal"))
        return value

    bounds: Dict[str, int] = {}
    node = fields.get("bounds")
    if node is not None:
        parsed = _dict_items(node)
        if parsed is None:
            errors.append(ContractError(
                path, line, f"width contract bounds= on {fn.name!r} must "
                "be a dict literal"))
        else:
            for key, value_node in parsed:
                folded = fold_int(value_node, const_env)
                if folded is None:
                    errors.append(ContractError(
                        path, getattr(value_node, "lineno", line),
                        f"width contract bound {key!r} on {fn.name!r} "
                        "does not fold to an integer constant"))
                else:
                    bounds[key] = folded

    params: Dict[str, str] = {}
    node = fields.get("params")
    if node is not None:
        parsed = _dict_items(node)
        if parsed is None:
            errors.append(ContractError(
                path, line, f"width contract params= on {fn.name!r} must "
                "be a dict literal"))
        else:
            for key, value_node in parsed:
                value = _string_value(value_node)
                if value is None:
                    errors.append(ContractError(
                        path, getattr(value_node, "lineno", line),
                        f"width contract param {key!r} on {fn.name!r} "
                        "must map to a string"))
                else:
                    params[key] = value

    arg_names = tuple(a.arg for a in fn.args.args)
    if arg_names and arg_names[0] in ("self", "cls"):
        arg_names = arg_names[1:]
    qualname = f"{class_name}.{fn.name}" if class_name else fn.name
    return WidthContract(
        name=fn.name, qualname=qualname, module=module_name_for(path),
        path=path, line=line,
        arg_names=arg_names, node=fn,
        inputs=text_field("inputs"), weights=text_field("weights"),
        accum=text_field("accum"), depth=text_field("depth"),
        returns=text_field("returns"), bounds=bounds, params=params)


def _string_value(node: ast.AST) -> Optional[str]:
    """A string literal, including implicitly concatenated adjacent parts."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _string_value(node.left)
        right = _string_value(node.right)
        if left is not None and right is not None:
            return left + right
    return None


def _dict_items(node: ast.AST
                ) -> Optional[List[Tuple[str, ast.AST]]]:
    if not isinstance(node, ast.Dict):
        return None
    items: List[Tuple[str, ast.AST]] = []
    for key_node, value_node in zip(node.keys, node.values):
        if not (isinstance(key_node, ast.Constant)
                and isinstance(key_node.value, str)):
            return None
        items.append((key_node.value, value_node))
    return items
