"""Lint engine: file discovery, parsing, rule driving.

The engine walks the requested paths, parses each ``.py`` file once into a
:class:`FileContext` (source + AST), runs every file-scoped rule whose
``applies_to`` matches, then runs the project-scoped rules over the whole
:class:`ProjectContext`.  Every finding is reported: there is no way to
suppress one.  A false positive is fixed in the rule, or stated with the
typed contract decorators (``@effects(reason=)``, ``@holds_no_locks(reason=)``,
``@width_contract``) that the verifiers read.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph
from .findings import Finding
from .registry import Rule, all_rules


@dataclasses.dataclass
class FileContext:
    """One parsed source file, as handed to file-scoped rules."""

    path: str                 # as reported in findings (posix separators)
    source: str
    tree: ast.Module
    real_path: Optional[Path] = None   # on-disk location, if any

    @classmethod
    def from_source(cls, source: str, path: str,
                    real_path: Optional[Path] = None) -> "FileContext":
        return cls(path=str(path).replace("\\", "/"), source=source,
                   tree=ast.parse(source), real_path=real_path)


@dataclasses.dataclass
class ProjectContext:
    """The whole linted file set, as handed to project-scoped rules."""

    files: List[FileContext]

    @functools.cached_property
    def call_graph(self) -> CallGraph:
        """The project's call graph, built once per lint run and shared
        by the dataflow, effects and concurrency verifiers."""
        return CallGraph.build(self)

    def find(self, suffix: str) -> Optional[FileContext]:
        """The linted file whose path ends with ``suffix`` (posix match)."""
        for ctx in self.files:
            if ctx.path == suffix or ctx.path.endswith("/" + suffix):
                return ctx
        return None


@dataclasses.dataclass
class LintResult:
    """Engine output: the findings plus bookkeeping for reports."""

    findings: List[Finding]
    files_checked: int
    parse_errors: List[Finding] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.all_findings():
            out[f.severity] = out.get(f.severity, 0) + 1
        return out

    def all_findings(self) -> List[Finding]:
        return sorted(self.parse_errors + self.findings,
                      key=lambda f: f.sort_key)


def discover_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            candidates = [p]
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")
        for c in candidates:
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def _run_rules(contexts: List[FileContext], rules: Sequence[Rule],
               parse_errors: Sequence[Finding] = ()) -> LintResult:
    findings: List[Finding] = []
    for ctx in contexts:
        for rule in rules:
            if rule.scope == "file" and rule.applies_to(ctx.path):
                findings.extend(rule.check_file(ctx))
    project = ProjectContext(files=contexts)
    for rule in rules:
        if rule.scope == "project":
            findings.extend(rule.check_project(project))
    return LintResult(findings=sorted(findings, key=lambda f: f.sort_key),
                      files_checked=len(contexts),
                      parse_errors=list(parse_errors))


def _parse_paths(paths: Sequence[str]
                 ) -> Tuple[List[FileContext], List[Finding]]:
    contexts: List[FileContext] = []
    parse_errors: List[Finding] = []
    for path in discover_files(paths):
        text = path.read_text(encoding="utf-8")
        posix = path.as_posix()
        try:
            contexts.append(FileContext.from_source(text, posix,
                                                    real_path=path))
        except SyntaxError as exc:
            parse_errors.append(Finding(
                code="E0", rule="parse", severity="error", path=posix,
                line=exc.lineno or 1, col=exc.offset or 0,
                message=f"syntax error: {exc.msg}"))
    return contexts, parse_errors


def lint_paths(paths: Sequence[str],
               codes: Optional[Sequence[str]] = None) -> LintResult:
    """Lint files/directories on disk with every rule; the CLI's entry
    point.  ``codes`` restricts the run to those rules (tests isolate one
    rule this way; the CLI never passes it)."""
    contexts, parse_errors = _parse_paths(paths)
    return _run_rules(contexts, all_rules(codes), parse_errors)


def lint_sources(sources: Dict[str, str],
                 codes: Optional[Sequence[str]] = None) -> LintResult:
    """Lint in-memory ``{path: source}`` pairs — the test fixtures' door.

    Paths are virtual but flow through ``applies_to`` exactly like real
    ones, so a fixture named ``src/repro/core/kernels.py`` exercises the
    same rule routing as the real module.
    """
    contexts = [FileContext.from_source(src, path)
                for path, src in sources.items()]
    return _run_rules(contexts, all_rules(codes))
