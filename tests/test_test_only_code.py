"""Regrowth guard: no public name in ``src/repro`` is reached only by tests.

The guard collects every public top-level function and class, and every
public method of a top-level class, in ``src/repro``.  It then scans the ``.py`` files of ``src/``, ``examples/`` and ``perfbench/``
for references, outside the definition itself: every ``Name``, every
``Attribute``, every imported name, and every component of a dotted-name
string such as ``"repro.nn.functional.max_pool2d"`` or
``"repro.core.sram_pe:SRAMSparsePE"`` (perfbench wraps layers it names by
string).  Words in docstrings and comments are not references.  Imports in
``__init__.py`` files are skipped, since a re-export is not a caller.  A
definition decorated with a registrar (``@register``, which instantiates
each lint rule class) has the registry as its caller.

A name with no reference fails the test unless ``ALLOWED`` lists it with
its reason.  There are five accepted reasons: an oracle that a test holds a
production path to, a method a framework dispatches by name, a checker CI
runs, an analytical quantity that the planned cross-check of the
analytical and bit-true hardware models names, and the linter's in-memory
entry point that every rule fixture runs through.
"""

import ast
import functools
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_ROOTS = ("src", "examples", "perfbench")

ORACLE = "oracle"
DISPATCH = "framework dispatch"
CI_CHECK = "checker CI runs"
CROSS_CHECK = "analytical-vs-bit-true cross-check"
FIXTURE_DOOR = "lint fixtures' entry point"

#: Decorators that call what they decorate, so the decorated name has a
#: caller: ``repro.lint.registry.register`` instantiates each rule class.
REGISTRARS = frozenset({"register"})

#: ``qualname -> (reason, why)``: the names allowed to have no caller.
ALLOWED: Dict[str, Tuple[str, str]] = {
    "BitLevelSparsePE": (
        ORACLE, "test_bitcell_array.py::TestCrossValidation holds "
                "SRAMSparsePE.matmul to it bit for bit"),
    "DenseDigitalPE": (
        ORACLE, "test_sram_pe.py::TestSparseVsDense measures the sparse "
                "SRAM PE's MAC savings against it"),
    "MRAMDensePE": (
        ORACLE, "test_mram_pe.py::TestDenseMRAM measures the sparse MRAM "
                "PE's read, MAC and cycle savings against it"),
    "spmm_gather_reference": (
        ORACLE, "test_kernels_differential.py holds spmm_gather and, "
                "through the oracle_kernels fixture, the MRAM PE to it"),
    "spmm_bitserial_reference": (
        ORACLE, "test_kernels_differential.py holds spmm_bitserial and, "
                "through the oracle_kernels fixture, the SRAM PEs to it"),
    "_Handler.do_GET": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.do_POST": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.do_PUT": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.do_DELETE": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.do_PATCH": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.log_message": (
        DISPATCH, "http.server calls it to log each request"),
    "Interval.bitand": (
        DISPATCH, "lint/dataflow/transfer.py's _BINOPS maps ast.BitAnd to "
                  "it by name"),
    "Interval.bitor": (
        DISPATCH, "lint/dataflow/transfer.py's _BINOPS maps ast.BitOr to "
                  "it by name"),
    "validate_trace_events": (
        CI_CHECK, "CI's dse-check job validates the sweep trace with it"),
    "HybridSparseDesign.mram_array_count": (
        CROSS_CHECK, "the MRAM array count both hardware models claim"),
    "Workload.compressed_bits": (
        CROSS_CHECK, "the compressed (weight, index) storage both hardware "
                     "models claim"),
    "lint_sources": (
        FIXTURE_DOOR, "every rule's fixture tests lint in-memory sources "
                      "through it; it shares _run_rules with lint_paths"),
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)+")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    """One parse per file for the whole session; the trees are only read."""
    return ast.parse(path.read_text(encoding="utf-8"))


def public_definitions() -> Iterator[Tuple[Path, str, ast.AST]]:
    """``(path, qualname, node)`` for every public name the guard covers."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, _DEFS):
                continue
            if not node.name.startswith("_"):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _FUNCS) and not sub.name.startswith("_"):
                        yield path, f"{node.name}.{sub.name}", sub


def referenced_names(node: ast.AST) -> Tuple[str, ...]:
    """The names one AST node refers to (see the module docstring)."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return tuple(part for alias in node.names
                     for part in alias.name.split("."))
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and _DOTTED.fullmatch(node.value):
        return tuple(re.split(r"[.:]", node.value))
    return ()


def references() -> Dict[str, List[Tuple[Path, int]]]:
    """Every name the caller roots refer to, with where."""
    uses: Dict[str, List[Tuple[Path, int]]] = {}
    for root in CALLER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            reexports = path.name == "__init__.py"
            for node in ast.walk(parse(path)):
                if reexports and isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                for name in referenced_names(node):
                    uses.setdefault(name, []).append((path, node.lineno))
    return uses


def registered(node: ast.AST) -> bool:
    """Whether a registrar decorates ``node`` (see ``REGISTRARS``)."""
    return any(isinstance(d, ast.Name) and d.id in REGISTRARS
               for d in getattr(node, "decorator_list", ()))


def uncalled_names() -> Dict[str, Tuple[Path, ast.AST]]:
    """Public names with no reference outside their definition."""
    uses = references()
    found: Dict[str, Tuple[Path, ast.AST]] = {}
    for path, qualname, node in public_definitions():
        if registered(node):
            continue
        lo, hi = node.lineno, node.end_lineno
        if not any(not (where == path and lo <= line <= hi)
                   for where, line in uses.get(node.name, ())):
            found[qualname] = (path, node)
    return found


def test_no_public_name_is_reached_only_by_tests():
    unexpected = sorted(
        f"{path.relative_to(REPO_ROOT)}:{node.lineno} {qualname}"
        for qualname, (path, node) in uncalled_names().items()
        if qualname not in ALLOWED)
    assert unexpected == [], (
        "public names with no caller in src/, examples/ or perfbench/; "
        "delete them, or move a helper a test still needs into tests/:\n"
        + "\n".join(unexpected))


def test_every_allowed_name_exists():
    defined = {qualname for _, qualname, _ in public_definitions()}
    assert sorted(set(ALLOWED) - defined) == []


def test_oracles_say_so_in_their_docstrings():
    """An oracle's docstring names the test that compares against it."""
    nodes = {qualname: node for _, qualname, node in public_definitions()}
    for qualname, (reason, _) in ALLOWED.items():
        if reason == ORACLE:
            doc = ast.get_docstring(nodes[qualname]) or ""
            assert "tests/" in doc and "::" in doc, qualname


@pytest.mark.parametrize("qualname", sorted(
    q for q, (reason, _) in ALLOWED.items() if reason == ORACLE))
def test_oracle_docstring_names_a_real_test(qualname):
    """The ``tests/<file>::<Class>`` an oracle's docstring names exists."""
    nodes = {q: node for _, q, node in public_definitions()}
    doc = ast.get_docstring(nodes[qualname]) or ""
    named = re.findall(r"tests/(\w+\.py)::(\w+)", doc)
    assert named, qualname
    for filename, test in named:
        tree = parse(REPO_ROOT / "tests" / filename)
        assert any(isinstance(n, _DEFS) and n.name == test
                   for n in ast.walk(tree)), f"{filename}::{test}"


# ---------------------------------------------------------------------------
# the scan itself, on single statements and on a toy repository
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source,names", [
    ("spmm_gather(plan, x)", ("spmm_gather", "plan", "x")),
    ("pe.stats.macs", ("pe", "stats", "macs")),
    ("import repro.core.kernels", ("repro", "core", "kernels")),
    ("from repro.core import kernels as k", ("kernels",)),
    ("patch('repro.nn.functional.max_pool2d')",
     ("patch", "repro", "nn", "functional", "max_pool2d")),
    ("wrap('repro.core.sram_pe:SRAMSparsePE')",
     ("wrap", "repro", "core", "sram_pe", "SRAMSparsePE")),
    ('"""Calls occupancy once. See repro.core for more."""', ()),
    ("label = 'occupancy'", ("label",)),
], ids=["call", "attribute", "import", "import-from", "dotted-string",
        "colon-string", "prose-string", "bare-word-string"])
def test_referenced_names(source, names):
    found = [name for node in ast.walk(ast.parse(source))
             for name in referenced_names(node)]
    assert sorted(found) == sorted(names)


@pytest.fixture
def toy_tree(tmp_path, monkeypatch):
    """A repository with one package module and a caller in each root."""
    files = {
        "src/repro/__init__.py": "from .toy import exported\n",
        "src/repro/toy.py": (
            "def called():\n    pass\n\n\n"
            "def exported():\n    pass\n\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
            "def _private():\n    pass\n\n\n"
            "class Named:\n"
            "    def used(self):\n        pass\n\n"
            "    def unused(self):\n        pass\n"),
        "src/repro/lint/rules.py": (
            "from .registry import register\n\n\n"
            "def lint_only():\n    pass\n\n\n"
            "@register\n"
            "class Rule:\n    pass\n"),
        "examples/demo.py": "from repro.toy import called\ncalled()\n",
        "perfbench/run.py": ("SPANS = ['repro.toy:Named']\n\n\n"
                             "def go(obj):\n    obj.used()\n"),
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(module, "PACKAGE", tmp_path / "src" / "repro")
    return tmp_path


def test_scan_finds_exactly_the_uncalled_names(toy_tree):
    """A re-export and a self-call are not callers; a plain call, a method
    call on any object, a dotted-name string and a registrar are."""
    assert sorted(uncalled_names()) == ["Named.unused", "exported",
                                        "lint_only", "recursive"]


def test_private_names_are_not_covered(toy_tree):
    covered = {qualname for _, qualname, _ in public_definitions()}
    assert covered == {"called", "exported", "recursive", "Named",
                       "Named.used", "Named.unused", "lint_only", "Rule"}
