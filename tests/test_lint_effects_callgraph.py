"""Adversarial call-graph tests for the effects verifier's binder.

Each fixture is an in-memory mini-package routed through
:func:`repro.lint.engine.lint_sources` exactly like the real tree, so the
module-identity mapping, import resolution and method lookup run the same
code paths CI runs.  The adversarial shapes are the ones a Python package
commonly contains: ``dataclasses.replace`` overlays, a registry dict of
functions called by key, decorated functions, package ``__init__``
re-exports, aliases, relative imports, and function-local imports.
"""

from pathlib import Path

from repro.lint.effects import (AMBIENT_RNG, IO, READS_GLOBAL, WRITES_GLOBAL,
                                CallGraph, EffectAnalysis, module_name_for)
from repro.lint.engine import FileContext, ProjectContext

TENSOR_PY = Path(__file__).resolve().parent.parent / "src/repro/nn/tensor.py"


def _analyze(sources):
    files = [FileContext.from_source(src, path)
             for path, src in sources.items()]
    return EffectAnalysis.run(CallGraph.build(ProjectContext(files=files)))


def effects_of(analysis, qualname):
    """The fixpoint effect set of ``qualname`` (empty if unknown)."""
    summary = analysis.summaries.get(qualname)
    return summary.effects if summary is not None else frozenset()


class TestModuleIdentity:
    def test_src_layout_and_fixture_layout_agree(self):
        assert module_name_for("src/repro/dse/cache.py") == "repro.dse.cache"
        assert module_name_for("repro/dse/cache.py") == "repro.dse.cache"

    def test_package_init_maps_to_package(self):
        assert module_name_for("src/repro/dse/__init__.py") == "repro.dse"

    def test_pathless_fixture_falls_back_to_stem(self):
        assert module_name_for("solo.py") == "solo"


class TestDirectCalls:
    def test_same_module_call_propagates(self):
        a = _analyze({"repro/m.py": (
            "import numpy as np\n"
            "def leaf():\n"
            "    return np.random.rand()\n"
            "def top():\n"
            "    return leaf()\n")})
        assert AMBIENT_RNG in effects_of(a, "repro.m.top")

    def test_cross_module_import_propagates(self):
        a = _analyze({
            "repro/a.py": ("def noisy():\n"
                           "    print('x')\n"),
            "repro/b.py": ("from repro.a import noisy\n"
                           "def caller():\n"
                           "    noisy()\n"),
        })
        assert IO in effects_of(a, "repro.b.caller")

    def test_relative_import_resolves(self):
        a = _analyze({
            "repro/pkg/__init__.py": "",
            "repro/pkg/a.py": ("import random\n"
                               "def draw():\n"
                               "    return random.random()\n"),
            "repro/pkg/b.py": ("from .a import draw\n"
                               "def caller():\n"
                               "    return draw()\n"),
        })
        assert AMBIENT_RNG in effects_of(a, "repro.pkg.b.caller")

    def test_function_local_import_resolves(self):
        a = _analyze({
            "repro/a.py": ("def noisy():\n"
                           "    print('x')\n"),
            "repro/b.py": ("def caller():\n"
                           "    from repro.a import noisy\n"
                           "    noisy()\n"),
        })
        assert IO in effects_of(a, "repro.b.caller")


class TestReexportsAndAliases:
    def test_package_init_reexport_resolves(self):
        a = _analyze({
            "repro/pkg/__init__.py": "from .impl import work\n",
            "repro/pkg/impl.py": ("STATE = {}\n"
                                  "def work():\n"
                                  "    STATE['k'] = 1\n"),
            "repro/use.py": ("from repro.pkg import work\n"
                             "def caller():\n"
                             "    work()\n"),
        })
        assert WRITES_GLOBAL in effects_of(a, "repro.use.caller")

    def test_toplevel_alias_resolves(self):
        a = _analyze({"repro/m.py": (
            "def original():\n"
            "    print('x')\n"
            "renamed = original\n"
            "def caller():\n"
            "    renamed()\n")})
        assert IO in effects_of(a, "repro.m.caller")

    def test_import_as_alias_resolves(self):
        a = _analyze({
            "repro/a.py": ("def noisy():\n"
                           "    print('x')\n"),
            "repro/b.py": ("from repro.a import noisy as quiet\n"
                           "def caller():\n"
                           "    quiet()\n"),
        })
        assert IO in effects_of(a, "repro.b.caller")


class TestRegistryDispatch:
    SOURCES = {"repro/kernels.py": (
        "def _impl_a(plan, acts):\n"
        "    return plan\n"
        "def _impl_b(plan, acts):\n"
        "    import numpy as np\n"
        "    return np.random.rand()\n"
        "_IMPLS = {'a': _impl_a, 'b': _impl_b}\n"
        "def dispatch(name, plan, acts):\n"
        "    return _IMPLS[name](plan, acts)\n")}

    def test_dispatch_fans_out_to_every_impl(self):
        a = _analyze(self.SOURCES)
        # The dispatcher inherits the join over all registered impls.
        assert AMBIENT_RNG in effects_of(a, "repro.kernels.dispatch")

    def test_witness_names_the_effectful_impl(self):
        a = _analyze(self.SOURCES)
        chain = a.format_witness("repro.kernels.dispatch", AMBIENT_RNG)
        assert "_impl_b" in chain


class TestMethodResolution:
    def test_self_method_call_resolves(self):
        a = _analyze({"repro/m.py": (
            "class C:\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "    def top(self):\n"
            "        return self.leaf()\n")})
        assert IO in effects_of(a, "repro.m.C.top")

    def test_constructor_typed_local_resolves_methods(self):
        a = _analyze({"repro/m.py": (
            "class C:\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "def caller():\n"
            "    c = C()\n"
            "    c.leaf()\n")})
        assert IO in effects_of(a, "repro.m.caller")

    def test_dataclasses_replace_preserves_receiver_type(self):
        a = _analyze({"repro/m.py": (
            "import dataclasses\n"
            "@dataclasses.dataclass\n"
            "class C:\n"
            "    x: int = 0\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "def caller(c: C):\n"
            "    d = dataclasses.replace(c, x=1)\n"
            "    d.leaf()\n")})
        assert IO in effects_of(a, "repro.m.caller")

    def test_annotation_typed_param_resolves_methods(self):
        a = _analyze({"repro/m.py": (
            "class C:\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "def caller(c: C):\n"
            "    c.leaf()\n")})
        assert IO in effects_of(a, "repro.m.caller")

    def test_attribute_typed_in_init_resolves_methods(self):
        a = _analyze({"repro/m.py": (
            "class C:\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "class Owner:\n"
            "    def __init__(self):\n"
            "        self.c = C()\n"
            "    def top(self):\n"
            "        return self.c.leaf()\n")})
        assert IO in effects_of(a, "repro.m.Owner.top")

    def test_loop_over_typed_list_resolves_methods(self):
        a = _analyze({"repro/m.py": (
            "from typing import List\n"
            "class C:\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "def caller(xs: List[C]):\n"
            "    for x in xs:\n"
            "        x.leaf()\n")})
        assert IO in effects_of(a, "repro.m.caller")

    def test_tuple_unpacked_loop_resolves_methods(self):
        a = _analyze({"repro/m.py": (
            "from typing import List, Tuple\n"
            "class C:\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "def caller(pairs: List[Tuple[int, C]]):\n"
            "    for i, c in pairs:\n"
            "        c.leaf()\n")})
        assert IO in effects_of(a, "repro.m.caller")

    def test_union_receiver_reaches_every_member(self):
        a = _analyze({"repro/m.py": (
            "import random\n"
            "from typing import Union\n"
            "class A:\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "class B:\n"
            "    def leaf(self):\n"
            "        return random.random()\n"
            "def caller(x: Union[A, B]):\n"
            "    x.leaf()\n")})
        assert {IO, AMBIENT_RNG} <= effects_of(a, "repro.m.caller")

    def test_base_class_method_resolves_through_inheritance(self):
        a = _analyze({"repro/m.py": (
            "class Base:\n"
            "    def leaf(self):\n"
            "        print('x')\n"
            "class Child(Base):\n"
            "    def top(self):\n"
            "        return self.leaf()\n")})
        assert IO in effects_of(a, "repro.m.Child.top")


class TestRealTree:
    def test_tensor_operators_accumulate_into_both_operands(self):
        """Each binary operator's backward accumulates into ``self`` and
        into the converted right operand: two edges to ``_accumulate``."""
        a = _analyze({"src/repro/nn/tensor.py": TENSOR_PY.read_text()})
        target = "repro.nn.tensor.Tensor._accumulate"
        for op in ("__add__", "__mul__", "__truediv__", "__matmul__"):
            edges = a.summaries[f"repro.nn.tensor.Tensor.{op}"].facts.edges
            assert len({e.line for e in edges if e.callee == target}) == 2, op


class TestDecoratedFunctions:
    def test_decorated_callee_still_resolves(self):
        a = _analyze({"repro/m.py": (
            "import functools\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def leaf():\n"
            "    print('x')\n"
            "def caller():\n"
            "    leaf()\n")})
        assert IO in effects_of(a, "repro.m.caller")


class TestLocalFacts:
    def test_global_rebinding_is_a_write(self):
        a = _analyze({"repro/m.py": (
            "COUNT = 0\n"
            "def bump():\n"
            "    global COUNT\n"
            "    COUNT += 1\n")})
        assert WRITES_GLOBAL in effects_of(a, "repro.m.bump")

    def test_mutating_method_on_module_global_is_a_write(self):
        a = _analyze({"repro/m.py": (
            "ITEMS = []\n"
            "def push(x):\n"
            "    ITEMS.append(x)\n")})
        assert WRITES_GLOBAL in effects_of(a, "repro.m.push")

    def test_read_of_module_mutable_is_a_read_not_a_write(self):
        a = _analyze({"repro/m.py": (
            "TABLE = {'a': 1}\n"
            "def peek(k):\n"
            "    return TABLE[k]\n")})
        effects = effects_of(a, "repro.m.peek")
        assert READS_GLOBAL in effects
        assert WRITES_GLOBAL not in effects

    def test_local_mutation_is_not_a_global_write(self):
        a = _analyze({"repro/m.py": (
            "def build():\n"
            "    out = []\n"
            "    out.append(1)\n"
            "    return out\n")})
        assert effects_of(a, "repro.m.build") == frozenset()

    def test_seeded_default_rng_is_pure(self):
        a = _analyze({"repro/m.py": (
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.default_rng(0).normal()\n")})
        assert AMBIENT_RNG not in effects_of(a, "repro.m.draw")

    def test_argless_default_rng_is_ambient(self):
        a = _analyze({"repro/m.py": (
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.default_rng().normal()\n")})
        assert AMBIENT_RNG in effects_of(a, "repro.m.draw")

    def test_set_iteration_is_nondeterministic_order(self):
        from repro.lint.effects import NONDETERMINISTIC_ORDER
        a = _analyze({"repro/m.py": (
            "def collect(items):\n"
            "    seen = set(items)\n"
            "    return [x for x in seen]\n")})
        assert NONDETERMINISTIC_ORDER in effects_of(a, "repro.m.collect")

    def test_sorted_set_iteration_is_clean(self):
        from repro.lint.effects import NONDETERMINISTIC_ORDER
        a = _analyze({"repro/m.py": (
            "def collect(items):\n"
            "    seen = set(items)\n"
            "    return [x for x in sorted(seen)]\n")})
        assert NONDETERMINISTIC_ORDER not in effects_of(a, "repro.m.collect")


class TestEffectsOverride:
    def test_declared_summary_replaces_inference(self):
        a = _analyze({"repro/m.py": (
            "from repro.core.effects import effects\n"
            "_MEMO = {}\n"
            "@effects('READS_GLOBAL', reason='idempotent memo')\n"
            "def cached(k):\n"
            "    if k not in _MEMO:\n"
            "        _MEMO[k] = k * 2\n"
            "    return _MEMO[k]\n")})
        effects_set = effects_of(a, "repro.m.cached")
        assert effects_set == frozenset({READS_GLOBAL})

    def test_missing_reason_is_a_declaration_error(self):
        a = _analyze({"repro/m.py": (
            "from repro.core.effects import effects\n"
            "@effects('READS_GLOBAL')\n"
            "def cached(k):\n"
            "    return k\n")})
        assert any("reason" in msg for _, _, msg in a.declaration_errors())
