"""Function summaries: how contracted kernels compose.

A contract's ``returns=`` declaration is one of three things —

* a width spec (``"i8"``): the return range is that spec's range;
* a reference to another contracted function (``"spmm_gather"``,
  ``"SRAMSparsePE.matmul"``): the return range is *inherited* from that
  function's resolved summary, so PE wrappers stay in sync with the
  kernels they delegate to;
* an expression over roles, bounds, widths constants and references,
  ``|`` joining two (``"MAX_ROW_TILES * (A.matmul | B.matmul)"``):
  evaluated in interval arithmetic, then symmetrised to ``[-m, +m]`` of
  its magnitude — a declared worst case is a magnitude, not a direction.

A reference resolves as in the decorator's own scope: a method of the
decorated method's class, else a name of its module.  Calls are matched
to contracts by the qualnames :mod:`repro.lint.callgraph` resolves.

Resolution is memoised per contract; recursion through a cycle of
summaries degrades to TOP (unknown) rather than looping.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..astutil import dotted_name
from ..callgraph import CallGraph, FunctionInfo, FunctionScope
from .contracts import ContractError, WidthContract
from .intervals import BOTTOM, TOP, Interval, const, from_width_spec


class SummaryDB:
    """All extracted contracts, keyed by their function's qualname."""

    def __init__(self, contracts: List[WidthContract],
                 consts: Dict[str, int], graph: CallGraph):
        self.contracts = list(contracts)
        self.consts = dict(consts)
        self.graph = graph
        self.by_function = {c.function: c for c in contracts}
        self.errors: List[ContractError] = []
        self._returns_cache: Dict[int, Interval] = {}
        self._resolving: Set[int] = set()

    # ------------------------------------------------------------- lookups
    def contracts_for(self, qualnames: Iterable[str]
                      ) -> Optional[List[WidthContract]]:
        """The contracts of ``qualnames``; None unless each has one."""
        found = [self.by_function.get(q) for q in qualnames]
        if not found or None in found:
            return None
        return found

    def scope(self, contract: WidthContract) -> FunctionScope:
        """The call-graph scope of a contracted function's body."""
        info = self.graph.function_for(contract.function)
        if info is None or info.node is not contract.node:   # a nested def
            info = FunctionInfo(
                qualname=contract.function, name=contract.name,
                module=contract.module, class_name=None, node=contract.node,
                path=contract.path, line=contract.line, decorators=[])
        return self.graph.scope(info)

    def _reference(self, node: ast.AST, contract: WidthContract
                   ) -> Optional[WidthContract]:
        """The contract a name in ``contract``'s expressions refers to."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        owner = contract.qualname.rpartition(".")[0]
        method = (self.graph.lookup_method(f"{contract.module}.{owner}",
                                           dotted)
                  if owner and "." not in dotted else None)
        if method is not None:
            return self.by_function.get(method.qualname)
        target = self.graph.resolve_dotted(contract.module, dotted)
        if target is None or target[0] != "func":
            return None
        return self.by_function.get(target[1])

    # ----------------------------------------------------------- resolution
    def resolve_returns(self, contract: WidthContract) -> Interval:
        key = id(contract)
        cached = self._returns_cache.get(key)
        if cached is not None:
            return cached
        if key in self._resolving:
            return TOP   # summary cycle: give up, stay sound
        self._resolving.add(key)
        try:
            result = self._resolve_returns(contract)
        finally:
            self._resolving.discard(key)
        self._returns_cache[key] = result
        return result

    def _resolve_returns(self, contract: WidthContract) -> Interval:
        text = contract.returns
        if text is None:
            return TOP
        text = text.strip()
        spec = from_width_spec(text)
        if spec is not None:
            return spec
        try:
            inherited = self._reference(ast.parse(text, mode="eval").body,
                                        contract)
        except SyntaxError:
            inherited = None
        if inherited is not None:   # a bare reference: inherit exactly
            return self.resolve_returns(inherited)
        value = self.eval_expr_text(text, contract)
        if value is None:
            return TOP
        return value.symmetric()

    def depth_interval(self, contract: WidthContract) -> Interval:
        """``[0, depth]`` for the declared worst-case reduction fan-in.

        No declaration (or an unresolvable one) means the fan-in is
        unbounded — ``[0, +inf)`` — which keeps downstream checks sound:
        a missing depth can never *hide* an overflow, it makes every
        reduction range infinite and therefore unprovable either way.
        """
        if contract.depth is None:
            return Interval(0, None)
        value = self.eval_expr_text(contract.depth, contract,
                                    allow_roles=False)
        if value is None or value.hi is None:
            return Interval(0, None)
        if value.hi < 0:
            return BOTTOM
        return Interval(0, value.hi)

    # ---------------------------------------------------------- expressions
    def eval_expr_text(self, text: str, contract: WidthContract,
                       allow_roles: bool = True) -> Optional[Interval]:
        """Evaluate a contract expression to an interval; None on error."""
        try:
            node = ast.parse(text, mode="eval").body
        except SyntaxError:
            self.errors.append(ContractError(
                contract.path, contract.line,
                f"width contract on {contract.qualname!r}: expression "
                f"{text!r} does not parse"))
            return None
        missing: List[str] = []
        value = self._eval(node, contract, allow_roles, missing)
        if missing:
            self.errors.append(ContractError(
                contract.path, contract.line,
                f"width contract on {contract.qualname!r}: expression "
                f"{text!r} references unresolvable name(s) "
                f"{sorted(set(missing))} (not a widths constant, bound, "
                "role, or contracted function)"))
            return None
        return value

    def _eval(self, node: ast.AST, contract: WidthContract,
              allow_roles: bool, missing: List[str]) -> Interval:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value,
                                                              bool):
                return const(node.value)
            missing.append(repr(node.value))
            return TOP
        if isinstance(node, (ast.Name, ast.Attribute)):
            return self._name(node, contract, allow_roles, missing)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return self._eval(node.operand, contract, allow_roles,
                              missing).neg()
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, contract, allow_roles, missing)
            right = self._eval(node.right, contract, allow_roles, missing)
            if isinstance(node.op, ast.Add):
                return left.add(right)
            if isinstance(node.op, ast.Sub):
                return left.sub(right)
            if isinstance(node.op, ast.Mult):
                return left.mul(right)
            if isinstance(node.op, ast.FloorDiv):
                return left.floordiv(right)
            if isinstance(node.op, ast.LShift):
                return left.lshift(right)
            if isinstance(node.op, ast.RShift):
                return left.rshift(right)
            if isinstance(node.op, ast.BitOr):
                return left.join(right)
            missing.append(f"<operator {type(node.op).__name__}>")
            return TOP
        missing.append(f"<{type(node).__name__}>")
        return TOP

    def _name(self, node: ast.expr, contract: WidthContract,
              allow_roles: bool, missing: List[str]) -> Interval:
        name = dotted_name(node) or f"<{type(node).__name__}>"
        if allow_roles and name in ("inputs", "weights"):
            spec = contract.role_spec(name)
            if spec is None:
                missing.append(name)
                return TOP
            iv = from_width_spec(spec)
            if iv is None:
                missing.append(f"{name}={spec!r}")
                return TOP
            return iv
        if allow_roles and name == "depth":
            return self.depth_interval(contract)
        if name in contract.bounds:
            # A bound is a worst case; inside expressions it stands for
            # its maximal value.
            return const(contract.bounds[name])
        if name in self.consts:
            return const(self.consts[name])
        referenced = self._reference(node, contract) if allow_roles else None
        if referenced is not None:
            return self.resolve_returns(referenced)
        missing.append(name)
        return TOP


def resolve_param_interval(spec: str, contract: WidthContract
                           ) -> Optional[Tuple[Interval, str]]:
    """A ``params=`` value to (interval, description).

    The value is either a role (``"inputs"``/``"weights"`` — resolved via
    the contract's own role specs) or a direct width spec.
    """
    if spec in ("inputs", "weights"):
        role_spec = contract.role_spec(spec)
        if role_spec is None:
            return None
        iv = from_width_spec(role_spec)
        if iv is None:
            return None
        return iv, f"{spec}={role_spec!r}"
    iv = from_width_spec(spec)
    if iv is None:
        return None
    return iv, repr(spec)
