"""Regrowth guard: no public name in ``src/repro`` is reached only by tests.

The scan pairs an AST walk with a word search.  The AST walk collects every
public top-level function and class, and every public method of a top-level
class, in ``src/repro`` outside ``lint/``.  The word search then looks for
each name anywhere in the ``.py`` files of ``src/``, ``examples/`` and
``perfbench/``, outside the definition itself.  Import and ``__all__`` lines
in ``__init__.py`` files are skipped, since a re-export is not a caller.

A name with no caller fails the test unless ``ALLOWED`` lists it with its
reason.  There are three accepted reasons: an oracle that a test holds a
production path to, a method a framework dispatches by name, and an
analytical quantity that the planned cross-check of the analytical and
bit-true hardware models names.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_ROOTS = ("src", "examples", "perfbench")

ORACLE = "oracle"
DISPATCH = "framework dispatch"
CROSS_CHECK = "analytical-vs-bit-true cross-check"

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
    "_Handler.do_GET": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.do_POST": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.do_PUT": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.do_DELETE": (DISPATCH, "http.server calls do_<VERB>"),
    "_Handler.do_PATCH": (DISPATCH, "http.server calls do_<VERB>"),
    "HybridSparseDesign.mram_array_count": (
        CROSS_CHECK, "the MRAM array count both hardware models claim"),
    "Workload.compressed_bits": (
        CROSS_CHECK, "the compressed (weight, index) storage both hardware "
                     "models claim"),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions() -> Iterator[Tuple[Path, str, ast.AST]]:
    """``(path, qualname, node)`` for every public name the guard covers."""
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] == "lint":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, _DEFS):
                continue
            if not node.name.startswith("_"):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _FUNCS) and not sub.name.startswith("_"):
                        yield path, f"{node.name}.{sub.name}", sub


def _reexport_lines(tree: ast.Module) -> set:
    lines = set()
    for node in tree.body:
        reexport = isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets))
        if reexport:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def word_uses() -> Dict[str, List[Tuple[Path, int]]]:
    """Every word in the caller roots, with where it occurs."""
    uses: Dict[str, List[Tuple[Path, int]]] = {}
    for root in CALLER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            skip = (_reexport_lines(ast.parse(text))
                    if path.name == "__init__.py" else set())
            for lineno, line in enumerate(text.splitlines(), start=1):
                if lineno in skip:
                    continue
                for word in _WORD.findall(line):
                    uses.setdefault(word, []).append((path, lineno))
    return uses


def uncalled_names() -> Dict[str, Tuple[Path, ast.AST]]:
    """Public names with no word-level caller outside their definition."""
    uses = word_uses()
    found: Dict[str, Tuple[Path, ast.AST]] = {}
    for path, qualname, node in public_definitions():
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
