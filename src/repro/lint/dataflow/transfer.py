"""Abstract transfer functions over the numpy idioms the datapath uses.

One :class:`Transfer` instance analyses one contracted function.  It
evaluates expressions to :class:`~repro.lint.dataflow.intervals.Interval`
element ranges (arrays are abstracted to the range of their elements),
executes statements against a mutable environment, and *records* — for
the post-fixpoint checks — every reduction site, every call-site operand
handed to a contracted callee, and the joined return range.

Soundness posture: anything not modelled evaluates to TOP, and the rules
only fire on *finite* proven violations, so an unmodelled construct can
cause a missed check but never a false positive.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Tuple

from ..astutil import dotted_name, numpy_aliases
from .contracts import WidthContract
from .intervals import (BOTTOM, TOP, Interval, const, from_width_spec,
                        join_all)
from .summaries import SummaryDB, resolve_param_interval

#: Environment: variable (possibly dotted) -> element range.
Env = Dict[str, Interval]

#: numpy dtype names -> width specs (the integer storage classes the
#: datapath uses; anything else is unmodelled).
DTYPE_SPECS = {
    "int8": "i8", "int16": "i16", "int32": "i32", "int64": "i64",
    "uint8": "u8", "uint16": "u16", "uint32": "u32", "uint64": "u64",
    "intp": "i64", "int_": "i64", "longlong": "i64",
    "bool_": "u1",
}

#: Array methods that preserve the element range.
_PASSTHROUGH_METHODS = {
    "reshape", "copy", "ravel", "flatten", "transpose", "squeeze",
    "item", "tolist", "repeat", "clip", "take", "swapaxes",
}

#: numpy functions that preserve the first argument's element range.
_PASSTHROUGH_NUMPY = {
    "asarray", "ascontiguousarray", "atleast_1d", "atleast_2d",
    "atleast_3d", "copy", "ravel", "squeeze", "reshape", "transpose",
    "repeat", "tile", "broadcast_to", "expand_dims", "stack",
    "concatenate", "vstack", "hstack", "flip", "roll", "sort", "unique",
    "diff_sign_preserving",
}


@dataclasses.dataclass
class ReductionSite:
    """One reduction expression, joined across fixpoint visits."""

    node: ast.AST
    result: Interval
    operands: Tuple[Interval, ...]


@dataclasses.dataclass
class CallCheck:
    """One operand handed to a contracted callee, joined across visits."""

    node: ast.AST
    callee: WidthContract
    param: str
    declared: Interval
    declared_text: str
    observed: Interval


class Transfer:
    """Statement/expression transfer for one contracted function."""

    def __init__(self, contract: WidthContract, db: SummaryDB,
                 module_consts: Dict[str, int], tree: ast.Module):
        self.contract = contract
        self.db = db
        self.scope = db.scope(contract)
        self.consts = module_consts
        self.np_names = numpy_aliases(tree)
        self.depth_iv = db.depth_interval(contract)
        self.accum_iv = (from_width_spec(contract.accum)
                         if contract.accum else None)
        self.pinned: Dict[str, Interval] = {}
        self.pin_problems: List[str] = []
        for name, spec in contract.params.items():
            resolved = resolve_param_interval(spec, contract)
            if resolved is None:
                self.pin_problems.append(
                    f"param {name!r} pins unresolvable spec {spec!r}")
            else:
                self.pinned[name] = resolved[0]
        self.reductions: Dict[int, ReductionSite] = {}
        self.call_checks: Dict[Tuple[int, str, str], CallCheck] = {}
        self.returns: Interval = BOTTOM

    # ------------------------------------------------------------ entry env
    def entry_env(self) -> Env:
        env: Env = {}
        for name, bound in self.contract.bounds.items():
            # Bounds declare "at least 1, at most N" — loop/shift counts.
            env[name] = Interval(1, bound) if bound >= 1 else const(bound)
        for name, iv in self.pinned.items():
            env[name] = iv
        return env

    # ------------------------------------------------------------ statements
    def exec_stmt(self, stmt: ast.stmt, env: Env, loop_depth: int = 0
                  ) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._store(target, value, stmt.value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._store(stmt.target, self.eval(stmt.value, env),
                            stmt.value, env)
        elif isinstance(stmt, ast.AugAssign):
            self._exec_augassign(stmt, env, loop_depth)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns = self.returns.join(self.eval(stmt.value, env))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # imports, pass, nested defs, global/nonlocal: no dataflow effect

    def _exec_augassign(self, stmt: ast.AugAssign, env: Env,
                        loop_depth: int) -> None:
        in_loop = loop_depth > 0
        target_key = self._target_key(stmt.target)
        old = env.get(target_key, BOTTOM) if target_key else BOTTOM
        if in_loop and isinstance(stmt.op, ast.Add):
            # Loop-nested accumulation: the declared depth bounds the whole
            # reduction, so the accumulated range is the per-iteration
            # increment times [0, depth], joined with the initial value
            # (zeros-initialised accumulators make this exact).
            inc = self.eval(stmt.value, env)
            contribution = inc.mul(self.depth_iv)
            self._record_reduction(stmt, contribution,
                                   (inc, self.depth_iv))
            new = old.join(contribution)
        else:
            new = self._binop_interval(
                stmt.op, old if target_key else TOP,
                self.eval(stmt.value, env), stmt, env)
        if target_key:
            if isinstance(stmt.target, ast.Name):
                env[target_key] = new
            else:
                env[target_key] = env.get(target_key, BOTTOM).join(new)

    def _store(self, target: ast.expr, value: Interval,
               value_node: Optional[ast.expr], env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, ast.Subscript):
            key = self._target_key(target)
            if key:
                # Partial store: the element range grows by the stored value.
                env[key] = env.get(key, BOTTOM).join(value)
        elif isinstance(target, ast.Attribute):
            key = dotted_name(target)
            if key:
                env[key] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements = None
            if isinstance(value_node, (ast.Tuple, ast.List)) \
                    and len(value_node.elts) == len(target.elts):
                elements = [self.eval(e, env) for e in value_node.elts]
            for i, sub in enumerate(target.elts):
                sub_value = elements[i] if elements is not None else TOP
                self._store(sub, sub_value, None, env)
        elif isinstance(target, ast.Starred):
            self._store(target.value, TOP, None, env)

    def _target_key(self, target: ast.expr) -> Optional[str]:
        while isinstance(target, ast.Subscript):
            target = target.value
        return dotted_name(target)

    # ------------------------------------------------------------- for loops
    def exec_loop_bind(self, binding: Tuple[ast.expr, ast.expr],
                       env: Env) -> None:
        target, iter_node = binding
        if isinstance(target, (ast.Tuple, ast.List)) \
                and isinstance(iter_node, ast.Call) \
                and isinstance(iter_node.func, ast.Name) \
                and iter_node.func.id == "zip" \
                and len(iter_node.args) == len(target.elts):
            for sub, arg in zip(target.elts, iter_node.args):
                self._store(sub, self.eval(arg, env), None, env)
            return
        if isinstance(target, (ast.Tuple, ast.List)) \
                and isinstance(iter_node, ast.Call) \
                and isinstance(iter_node.func, ast.Name) \
                and iter_node.func.id == "enumerate" \
                and len(target.elts) == 2 and iter_node.args:
            self._store(target.elts[0], Interval(0, None), None, env)
            self._store(target.elts[1], self.eval(iter_node.args[0], env),
                        None, env)
            return
        self._store(target, self._iter_element(iter_node, env), None, env)

    def _iter_element(self, iter_node: ast.expr, env: Env) -> Interval:
        if isinstance(iter_node, ast.Call) \
                and isinstance(iter_node.func, ast.Name) \
                and iter_node.func.id == "range":
            return self._range_interval(iter_node, env)
        if isinstance(iter_node, ast.Call) \
                and isinstance(iter_node.func, ast.Name) \
                and iter_node.func.id in ("zip", "enumerate"):
            return TOP
        return self.eval(iter_node, env)

    def _range_interval(self, call: ast.Call, env: Env) -> Interval:
        args = [self.eval(a, env) for a in call.args]
        if len(args) == 1:
            stop = args[0]
            if stop.hi is None:
                return Interval(0, None)
            if stop.hi <= 0:
                return BOTTOM   # never iterates
            return Interval(0, stop.hi - 1)
        if len(args) in (2, 3):
            return args[0].join(args[1])   # hull covers any step direction
        return TOP

    # ------------------------------------------------------------ expressions
    def eval(self, node: ast.expr, env: Env) -> Interval:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool):
                return const(int(v))
            if isinstance(v, int):
                return const(v)
            return TOP
        if isinstance(node, ast.Name):
            return self._lookup(node.id, env)
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                if dotted in self.pinned:
                    return self.pinned[dotted]
                if dotted in env:
                    return env[dotted]
            return TOP
        if isinstance(node, ast.Subscript):
            return self.eval(node.value, env)   # element-range abstraction
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                return operand.neg()
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.Invert):
                return operand.neg().sub(const(1))
            return Interval(0, 1)   # `not`
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.MatMult):
                left = self.eval(node.left, env)
                right = self.eval(node.right, env)
                return self._reduction(node, (left, right))
            return self._binop_interval(node.op, self.eval(node.left, env),
                                        self.eval(node.right, env),
                                        node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            return self.eval(node.body, env).join(self.eval(node.orelse,
                                                            env))
        if isinstance(node, ast.BoolOp):
            return join_all(self.eval(v, env) for v in node.values)
        if isinstance(node, ast.Compare):
            return Interval(0, 1)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            if not node.elts:
                return BOTTOM
            return join_all(self.eval(e, env) for e in node.elts)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, env)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        return TOP

    def _lookup(self, name: str, env: Env) -> Interval:
        if name in self.pinned:
            return self.pinned[name]
        if name in env:
            return env[name]
        if name in self.consts:
            return const(self.consts[name])
        return TOP

    def _eval_comprehension(self, node, env: Env) -> Interval:
        inner = dict(env)
        for gen in node.generators:
            self._store(gen.target, self._iter_element(gen.iter, inner),
                        None, inner)
        return self.eval(node.elt, inner)

    _BINOPS = {
        ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul",
        ast.FloorDiv: "floordiv", ast.Mod: "mod",
        ast.LShift: "lshift", ast.RShift: "rshift",
        ast.BitAnd: "bitand", ast.BitOr: "bitor",
    }

    def _binop_interval(self, op: ast.operator, left: Interval,
                        right: Interval, node: ast.AST, env: Env
                        ) -> Interval:
        if isinstance(op, ast.MatMult):
            return self._reduction(node, (left, right))
        method = self._BINOPS.get(type(op))
        if method is None:
            return TOP   # true division, xor, power with unknowns, ...
        return getattr(left, method)(right)

    # ------------------------------------------------------------------ calls
    def _eval_call(self, node: ast.Call, env: Env) -> Interval:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in self.np_names:
                return self._numpy_call(func.attr, node, env)
            return self._method_call(func.attr, base, node, env)
        if isinstance(func, ast.Name):
            return self._name_call(func.id, node, env)
        return self._summary_call(node, env)

    def _numpy_call(self, name: str, node: ast.Call, env: Env) -> Interval:
        args = node.args
        if name in ("zeros", "zeros_like"):
            return const(0)
        if name in ("ones", "ones_like"):
            return const(1)
        if name in ("empty", "empty_like"):
            return BOTTOM   # no element exists until a store joins one in
        if name == "full":
            return self.eval(args[1], env) if len(args) > 1 else TOP
        if name in ("array",) or name in _PASSTHROUGH_NUMPY:
            if not args:
                return TOP
            value = self.eval(args[0], env)
            dtype = self._call_keyword(node, "dtype")
            if dtype is not None:
                return self._astype(value, dtype)
            return value
        if name == "arange":
            return self._range_interval(node, env)
        if name in ("abs", "absolute"):
            return self.eval(args[0], env).abs() if args else TOP
        if name == "sign":
            return Interval(-1, 1)
        if name in ("minimum", "maximum"):
            return join_all(self.eval(a, env) for a in args)
        if name == "where":
            if len(args) == 3:
                return self.eval(args[1], env).join(self.eval(args[2], env))
            return TOP
        if name in ("sum", "cumsum", "nansum"):
            operand = self.eval(args[0], env) if args else TOP
            return self._reduction(node, (operand,))
        if name in ("dot", "matmul", "inner", "vdot"):
            if len(args) >= 2:
                return self._reduction(
                    node, (self.eval(args[0], env),
                           self.eval(args[1], env)))
            return TOP
        if name == "tensordot":
            if len(args) >= 2:
                return self._reduction(
                    node, (self.eval(args[0], env),
                           self.eval(args[1], env)))
            return TOP
        if name == "einsum":
            operands = tuple(
                self.eval(a, env) for a in args
                if not (isinstance(a, ast.Constant)
                        and isinstance(a.value, str)))
            if operands:
                return self._reduction(node, operands)
            return TOP
        if name in ("min", "max", "amin", "amax"):
            return self.eval(args[0], env) if args else TOP
        return TOP

    def _method_call(self, name: str, base: ast.expr, node: ast.Call,
                     env: Env) -> Interval:
        if name in ("reduce", "reduceat"):
            # ``np.add.reduce(at)`` is a (segmented) sum: model it like
            # ``sum`` over the operand so accumulator contracts stay
            # live.  Only the add ufunc folds into the depth model —
            # other ufuncs' reductions fall through to the summary DB.
            if (isinstance(base, ast.Attribute) and base.attr == "add"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in self.np_names and node.args):
                return self._reduction(node, (self.eval(node.args[0], env),))
            return TOP
        if name == "astype":
            value = self.eval(base, env)
            dtype = (node.args[0] if node.args
                     else self._call_keyword(node, "dtype"))
            return self._astype(value, dtype)
        if name == "sum":
            return self._reduction(node, (self.eval(base, env),))
        if name in ("min", "max"):
            value = self.eval(base, env)
            initial = self._call_keyword(node, "initial")
            if initial is not None:
                value = value.join(self.eval(initial, env))
            return value
        if name in _PASSTHROUGH_METHODS:
            return self.eval(base, env)
        return self._summary_call(node, env)

    def _name_call(self, name: str, node: ast.Call, env: Env) -> Interval:
        args = node.args
        if name == "abs":
            return self.eval(args[0], env).abs() if args else TOP
        if name in ("int", "round"):
            return self.eval(args[0], env) if args else TOP
        if name in ("min", "max"):
            if len(args) == 1:
                return self.eval(args[0], env)
            return join_all(self.eval(a, env) for a in args)
        if name == "sum":
            return self._reduction(
                node, (self.eval(args[0], env) if args else TOP,))
        if name == "len":
            return Interval(0, None)
        if name == "range":
            return self._range_interval(node, env)
        if name == "bool":
            return Interval(0, 1)
        return self._summary_call(node, env)

    def _summary_call(self, node: ast.Call, env: Env) -> Interval:
        """A call to contracted functions: the join of their summaries,
        each checking its arguments.  TOP unless the scope resolves the
        callee and every function it may be carries a contract."""
        callees = self.db.contracts_for(self.scope.targets(node.func))
        if callees is None:
            return TOP
        for callee in callees:
            self._check_call_args(callee, node, env)
        return join_all(self.db.resolve_returns(c) for c in callees)

    def _check_call_args(self, callee: WidthContract, node: ast.Call,
                         env: Env) -> None:
        if not callee.params:
            return
        bindings: List[Tuple[str, ast.expr]] = []
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            if i < len(callee.arg_names):
                bindings.append((callee.arg_names[i], arg))
        for kw in node.keywords:
            if kw.arg is not None:
                bindings.append((kw.arg, kw.value))
        for pname, arg in bindings:
            spec = callee.params.get(pname)
            if spec is None:
                continue
            resolved = resolve_param_interval(spec, callee)
            if resolved is None:
                continue
            declared, declared_text = resolved
            observed = self.eval(arg, env)
            key = (id(node), callee.function, pname)
            existing = self.call_checks.get(key)
            if existing is None:
                self.call_checks[key] = CallCheck(
                    node=node, callee=callee, param=pname,
                    declared=declared, declared_text=declared_text,
                    observed=observed)
            else:
                existing.observed = existing.observed.join(observed)

    # ------------------------------------------------------------ reductions
    def _reduction(self, node: ast.AST,
                   operands: Tuple[Interval, ...]) -> Interval:
        product = operands[0]
        for iv in operands[1:]:
            product = product.mul(iv)
        result = product.mul(self.depth_iv)
        self._record_reduction(node, result, operands + (self.depth_iv,))
        return result

    def _record_reduction(self, node: ast.AST, result: Interval,
                          operands: Tuple[Interval, ...]) -> None:
        existing = self.reductions.get(id(node))
        if existing is None:
            self.reductions[id(node)] = ReductionSite(
                node=node, result=result, operands=operands)
        else:
            existing.result = existing.result.join(result)

    # --------------------------------------------------------------- helpers
    def _astype(self, value: Interval, dtype: Optional[ast.expr]
                ) -> Interval:
        rng = self._dtype_interval(dtype)
        if rng is None:
            return value if value.bounded else TOP
        if rng.contains(value):
            return value
        # Out-of-range (or unknown) values wrap/clamp into the storage
        # class; the representable range is the sound post-cast bound.
        return rng

    def _dtype_interval(self, dtype: Optional[ast.expr]
                        ) -> Optional[Interval]:
        if dtype is None:
            return None
        name: Optional[str] = None
        if isinstance(dtype, ast.Attribute):
            name = dtype.attr
        elif isinstance(dtype, ast.Name):
            name = dtype.id
        elif isinstance(dtype, ast.Constant) and isinstance(dtype.value,
                                                            str):
            name = dtype.value
        spec = DTYPE_SPECS.get(name) if name else None
        return from_width_spec(spec) if spec else None

    @staticmethod
    def _call_keyword(node: ast.Call, name: str) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg == name:
                return kw.value
        return None


def join_env(left: Env, right: Env) -> Env:
    """Pointwise join; a name missing on one side is unbound (BOTTOM)."""
    out = dict(left)
    for name, iv in right.items():
        prev = out.get(name)
        out[name] = iv if prev is None else prev.join(iv)
    return out


def widen_env(old: Env, new: Env) -> Env:
    out = dict(old)
    for name, iv in new.items():
        prev = out.get(name)
        out[name] = iv if prev is None else prev.widen(iv)
    return out


def env_le(smaller: Env, larger: Env) -> bool:
    """Whether ``smaller`` is subsumed by ``larger`` (fixpoint test)."""
    for name, iv in smaller.items():
        other = larger.get(name)
        if other is None:
            if not iv.is_bottom:
                return False
        elif not other.contains(iv):
            return False
    return True
