"""Unit tests for the dataflow verifier's building blocks.

Covers the interval lattice (exact integer arithmetic, join/widen),
``@width_contract`` extraction from ASTs, CFG construction (loop heads,
branch joins), and the summary database (returns resolution, depth
intervals, cycle handling).
"""

import ast

from repro.lint.dataflow.cfg import build_cfg
from repro.lint.dataflow.contracts import (extract_contracts, fold_int,
                                           module_int_constants)
from repro.lint.dataflow.intervals import (BOTTOM, TOP, Interval, const,
                                           from_width_spec, join_all,
                                           spec_bits)
from repro.lint.dataflow.summaries import SummaryDB
from repro.lint.engine import FileContext, ProjectContext


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

class TestInterval:
    def test_width_specs(self):
        assert from_width_spec("i8") == Interval(-128, 127)
        assert from_width_spec("u1") == Interval(0, 1)
        assert from_width_spec("i64") == Interval(-(1 << 63), (1 << 63) - 1)
        assert from_width_spec("u8") == Interval(0, 255)
        assert from_width_spec("not-a-spec") is None
        assert spec_bits("i16") == 16
        assert spec_bits("u4") == 4
        assert spec_bits("garbage") is None

    def test_exact_large_arithmetic(self):
        # Near 2**63 the math must stay exact — floats would round.
        a = const((1 << 62) + 1)
        b = a.add(const(1))
        assert b == Interval((1 << 62) + 2, (1 << 62) + 2)
        sq = a.mul(a)
        assert sq.lo == ((1 << 62) + 1) ** 2

    def test_mul_signs(self):
        assert Interval(-3, 2).mul(Interval(-5, 4)) == Interval(-12, 15)
        assert Interval(2, 3).mul(Interval(-4, -2)) == Interval(-12, -4)
        assert Interval(0, 0).mul(TOP) == Interval(0, 0)

    def test_join_and_widen(self):
        a, b = Interval(0, 10), Interval(-5, 3)
        assert a.join(b) == Interval(-5, 10)
        assert a.join(BOTTOM) == a
        w = Interval(0, 10).widen(Interval(0, 11))
        assert w.hi is None and w.lo == 0
        w2 = Interval(0, 10).widen(Interval(-1, 10))
        assert w2.lo is None and w2.hi == 10
        assert Interval(0, 10).widen(Interval(0, 10)) == Interval(0, 10)

    def test_contains(self):
        assert from_width_spec("i64").contains(Interval(-100, 100))
        assert not from_width_spec("i16").contains(Interval(0, 1 << 20))
        assert TOP.contains(Interval(-1, 1))
        assert not Interval(0, 10).contains(TOP)
        assert Interval(0, 10).contains(BOTTOM)

    def test_shift_and_mask(self):
        assert const(1).lshift(Interval(0, 15)) == Interval(1, 1 << 15)
        assert Interval(0, 255).bitand(const(7)) == Interval(0, 7)
        assert Interval(-100, 100).rshift(const(2)) == Interval(-25, 25)
        # Negative shift counts are unmodelled, not wrong answers.
        assert const(1).lshift(Interval(-1, 3)).is_top

    def test_symmetric_and_magnitude(self):
        assert Interval(3, 100).symmetric() == Interval(-100, 100)
        assert Interval(-7, 2).magnitude() == 7
        assert TOP.magnitude() is None

    def test_bottom_propagates(self):
        assert BOTTOM.add(const(1)).is_bottom
        assert BOTTOM.mul(TOP).is_bottom
        assert join_all([]) == BOTTOM

    def test_str(self):
        assert str(Interval(-8, 7)) == "[-8, 7]"
        assert str(TOP) == "[-inf, +inf]"
        assert "empty" in str(BOTTOM)


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------

CONTRACT_SRC = '''
BITS = 8
DEPTH = 1 << 10

@width_contract(inputs="i8", weights="i8", accum="i64", depth="DEPTH",
                returns="depth * inputs * weights",
                bounds={"k": DEPTH}, params={"a": "inputs"})
def kernel(a, w):
    return a @ w

class PE:
    @width_contract(inputs="i8", accum="i64", returns="kernel")
    def matmul(self, activations):
        return kernel(activations, self.weight)
'''


class TestContracts:
    def _extract(self, src=CONTRACT_SRC):
        tree = ast.parse(src)
        env = module_int_constants(tree)
        return extract_contracts(tree, "src/repro/core/x.py", env), env

    def test_module_constants_fold(self):
        (_, _), env = self._extract()
        assert env == {"BITS": 8, "DEPTH": 1024}

    def test_extraction(self):
        (contracts, errors), _ = self._extract()
        assert errors == []
        assert [c.qualname for c in contracts] == ["kernel", "PE.matmul"]
        kernel = contracts[0]
        assert kernel.inputs == "i8" and kernel.accum == "i64"
        assert kernel.depth == "DEPTH"
        assert kernel.bounds == {"k": 1024}
        assert kernel.params == {"a": "inputs"}
        assert tuple(kernel.arg_names) == ("a", "w")
        # self is dropped from methods' positional arg names.
        assert tuple(contracts[1].arg_names) == ("activations",)

    def test_bad_field_reports_error(self):
        src = ('@width_contract(inputs=3)\n'
               'def f(x):\n    return x\n')
        (contracts, errors), _ = self._extract(src)
        assert contracts == [] or contracts[0].inputs is None
        assert errors, "non-string contract field must be reported"

    def test_fold_int(self):
        env = {"N": 12}
        node = ast.parse("1 << (N - 4)", mode="eval").body
        assert fold_int(node, env) == 256
        assert fold_int(ast.parse("N * x", mode="eval").body, env) is None


# ---------------------------------------------------------------------------
# cfg
# ---------------------------------------------------------------------------

class TestCFG:
    def _cfg(self, body):
        fn = ast.parse(f"def f(x):\n{body}").body[0]
        return build_cfg(fn)

    def test_straight_line(self):
        cfg = self._cfg("    y = x + 1\n    return y\n")
        entry = cfg.block(cfg.entry)
        assert len(entry.stmts) == 2 and not entry.is_loop_head

    def test_loop_head_marked(self):
        cfg = self._cfg("    acc = 0\n"
                        "    for i in range(10):\n"
                        "        acc += i\n"
                        "    return acc\n")
        heads = [b for b in cfg.blocks if b.is_loop_head]
        assert len(heads) == 1
        assert heads[0].loop_binding is not None
        body_blocks = [b for b in cfg.blocks if b.loop_depth == 1]
        assert body_blocks, "loop body must carry loop_depth 1"

    def test_branch_join(self):
        cfg = self._cfg("    if x > 0:\n        y = 1\n"
                        "    else:\n        y = -1\n    return y\n")
        # Both arms must reach a common join block holding the return.
        succ_sets = [tuple(b.succs) for b in cfg.blocks]
        assert any(len(s) == 2 for s in succ_sets)

    def test_while_and_nested_depth(self):
        cfg = self._cfg("    while x:\n"
                        "        for i in range(3):\n"
                        "            x -= 1\n")
        depths = {b.loop_depth for b in cfg.blocks}
        assert 2 in depths


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def _summaries_for(src):
    """The contracts of a one-module fixture and their summary database,
    whose names resolve through the fixture's call graph."""
    path = "src/repro/core/m.py"
    project = ProjectContext(files=[FileContext.from_source(src, path)])
    tree = project.files[0].tree
    env = module_int_constants(tree)
    (contracts, errors) = extract_contracts(tree, path, env)
    assert not errors
    return contracts, SummaryDB(contracts, env, project.call_graph)


class TestSummaries:
    def test_spec_returns(self):
        contracts, db = _summaries_for(
            '@width_contract(returns="i16")\ndef f(x):\n    return x\n')
        assert db.resolve_returns(contracts[0]) == Interval(-32768, 32767)

    def test_expression_returns_symmetric(self):
        contracts, db = _summaries_for(
            'D = 16\n'
            '@width_contract(inputs="i8", weights="i8", depth="D",\n'
            '                returns="depth * inputs * weights")\n'
            'def f(a, w):\n    return a @ w\n')
        iv = db.resolve_returns(contracts[0])
        assert iv == Interval(-16 * 128 * 128, 16 * 128 * 128)

    def test_summary_name_inherits(self):
        contracts, db = _summaries_for(
            '@width_contract(returns="i8")\ndef inner(x):\n    return x\n'
            '@width_contract(returns="inner")\ndef outer(x):\n'
            '    return inner(x)\n')
        outer = [c for c in contracts if c.name == "outer"][0]
        assert db.resolve_returns(outer) == Interval(-128, 127)

    def test_references_resolve_in_the_decorator_scope(self):
        # A bare name in a method's contract is first a method of its own
        # class; ``Class.method`` names one class's method; ``|`` joins.
        contracts, db = _summaries_for(
            'class A:\n'
            '    @width_contract(returns="i8")\n'
            '    def m(self, x):\n        return x\n'
            'class B:\n'
            '    @width_contract(returns="i16")\n'
            '    def m(self, x):\n        return x\n'
            '    @width_contract(returns="m")\n'
            '    def own(self, x):\n        return self.m(x)\n'
            '@width_contract(returns="4 * (A.m | B.m)")\n'
            'def f(x):\n    return x\n')
        by_name = {c.qualname: c for c in contracts}
        assert db.resolve_returns(by_name["B.own"]) == Interval(-32768, 32767)
        assert db.resolve_returns(by_name["f"]) == Interval(-131072, 131072)

    def test_cycle_resolves_to_top(self):
        contracts, db = _summaries_for(
            '@width_contract(returns="b")\ndef a(x):\n    return b(x)\n'
            '@width_contract(returns="a")\ndef b(x):\n    return a(x)\n')
        assert db.resolve_returns(contracts[0]).is_top

    def test_depth_interval(self):
        contracts, db = _summaries_for(
            'D = 1 << 6\n'
            '@width_contract(depth="D")\ndef f(x):\n    return x\n'
            '@width_contract()\ndef g(x):\n    return x\n')
        assert db.depth_interval(contracts[0]) == Interval(0, 64)
        # Missing depth is unbounded fan-in, not zero.
        assert db.depth_interval(contracts[1]) == Interval(0, None)

    def test_unresolvable_returns_records_error(self):
        contracts, db = _summaries_for(
            '@width_contract(returns="NO_SUCH * inputs", inputs="i8")\n'
            'def f(x):\n    return x\n')
        assert db.resolve_returns(contracts[0]).is_top
        assert any("unresolvable" in e.message for e in db.errors)
