"""Lint engine: file discovery, parsing, suppression handling, rule driving.

The engine walks the requested paths, parses each ``.py`` file once into a
:class:`FileContext` (source + AST + suppression tables), runs every
file-scoped rule whose ``applies_to`` matches, then runs the project-scoped
rules over the whole :class:`ProjectContext`.  Findings that a suppression
comment covers are dropped before reporting.

Suppression syntax (documented in docs/METHODOLOGY.md):

``# repro-lint: disable=R1,R3``
    Anywhere in a file, on its own line or trailing code: disables those
    rule codes for the *entire file*.  ``disable=all`` disables every rule.

``# repro-lint: disable-line=R1``
    Trailing a statement: disables the codes for that line only — the
    surgical form used when a single expression is deliberately exempt
    (e.g. an occupancy ratio that is a float on purpose).
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from pathlib import Path
from typing import (Dict, Iterable, List, Optional, Sequence, Set, Tuple,
                    Union)

#: ``all_rules`` opt-in selector: False, True, or a set of group names.
OptinSelector = Union[bool, Sequence[str]]

from .callgraph import CallGraph
from .findings import Finding
from .registry import Rule, all_rules

#: Matches one suppression pragma; multiple pragmas per line are honoured.
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-line)?)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]+?)(?=\s*(?:#|$))")

#: The wildcard accepted in a suppression code list.
SUPPRESS_ALL = "all"


@dataclasses.dataclass(frozen=True)
class Pragma:
    """One suppression comment, as written in the source."""

    line: int
    kind: str                 # "disable" or "disable-line"
    codes: Tuple[str, ...]    # sorted rule codes (may contain "all")

    def covers(self, finding: Finding) -> bool:
        """Whether this specific pragma suppresses ``finding``."""
        if self.kind == "disable-line" and finding.line != self.line:
            return False
        return SUPPRESS_ALL in self.codes or finding.code in self.codes


@dataclasses.dataclass
class Suppressions:
    """Parsed suppression pragmas of one file."""

    file_codes: Set[str] = dataclasses.field(default_factory=set)
    line_codes: Dict[int, Set[str]] = dataclasses.field(default_factory=dict)
    pragmas: List[Pragma] = dataclasses.field(default_factory=list)

    @classmethod
    def from_source(cls, source: str) -> "Suppressions":
        supp = cls()
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "repro-lint" not in text:
                continue
            for match in _PRAGMA_RE.finditer(text):
                codes = {c.strip() for c in match.group("codes").split(",")}
                codes.discard("")
                if not codes:
                    continue
                kind = match.group("kind")
                supp.pragmas.append(Pragma(line=lineno, kind=kind,
                                           codes=tuple(sorted(codes))))
                if kind == "disable":
                    supp.file_codes |= codes
                else:
                    supp.line_codes.setdefault(lineno, set()).update(codes)
        return supp

    def covers(self, finding: Finding) -> bool:
        if SUPPRESS_ALL in self.file_codes or finding.code in self.file_codes:
            return True
        line = self.line_codes.get(finding.line, ())
        return SUPPRESS_ALL in line or finding.code in line


@dataclasses.dataclass
class FileContext:
    """One parsed source file, as handed to file-scoped rules."""

    path: str                 # as reported in findings (posix separators)
    source: str
    tree: ast.Module
    suppressions: Suppressions
    real_path: Optional[Path] = None   # on-disk location, if any

    @classmethod
    def from_source(cls, source: str, path: str,
                    real_path: Optional[Path] = None) -> "FileContext":
        return cls(path=str(path).replace("\\", "/"), source=source,
                   tree=ast.parse(source),
                   suppressions=Suppressions.from_source(source),
                   real_path=real_path)


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
    """Engine output: surviving findings plus bookkeeping for reports."""

    findings: List[Finding]
    files_checked: int
    parse_errors: List[Finding] = dataclasses.field(default_factory=list)
    #: Findings a pragma removed — kept for the suppression audit.
    suppressed: List[Finding] = dataclasses.field(default_factory=list)
    #: The pragmas this run can judge (every code they name ran), each
    #: with the number of findings it covered; ``--strict`` reads these.
    pragmas: List[SuppressionEntry] = dataclasses.field(default_factory=list)

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


def _collect_findings(contexts: List[FileContext],
                      rules: Sequence[Rule]) -> List[Finding]:
    """Every rule's raw findings, before suppression filtering."""
    findings: List[Finding] = []
    file_rules = [r for r in rules if r.scope == "file"]
    project_rules = [r for r in rules if r.scope == "project"]

    for ctx in contexts:
        for rule in file_rules:
            if rule.applies_to(ctx.path):
                findings.extend(rule.check_file(ctx))
    project = ProjectContext(files=contexts)
    for rule in project_rules:
        findings.extend(rule.check_project(project))
    return findings


def _run_rules(contexts: List[FileContext], rules: Sequence[Rule],
               files_checked: int, parse_errors: Sequence[Finding] = ()
               ) -> LintResult:
    findings = _collect_findings(contexts, rules)
    by_path = {ctx.path: ctx for ctx in contexts}

    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for f in findings:
        ctx = by_path.get(f.path)
        if ctx is not None and ctx.suppressions.covers(f):
            suppressed.append(f)
            continue
        kept.append(f)
    ran = {rule.code for rule in rules}
    if len(ran) == len(all_rules(include_optin=True)):
        ran.add(SUPPRESS_ALL)
    return LintResult(
        findings=sorted(kept, key=lambda f: f.sort_key),
        files_checked=files_checked, parse_errors=list(parse_errors),
        suppressed=sorted(suppressed, key=lambda f: f.sort_key),
        pragmas=[e for e in _suppression_entries(contexts, suppressed)
                 if ran.issuperset(e.codes)])


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
               codes: Optional[Sequence[str]] = None,
               include_optin: OptinSelector = False) -> LintResult:
    """Lint files/directories on disk; the CLI's entry point."""
    rules = all_rules(codes, include_optin=include_optin)
    contexts, parse_errors = _parse_paths(paths)
    return _run_rules(contexts, rules, len(contexts), parse_errors)


def lint_sources(sources: Dict[str, str],
                 codes: Optional[Sequence[str]] = None,
                 include_optin: OptinSelector = False) -> LintResult:
    """Lint in-memory ``{path: source}`` pairs — the test fixtures' door.

    Paths are virtual but flow through ``applies_to`` exactly like real
    ones, so a fixture named ``src/repro/core/kernels.py`` exercises the
    same rule routing as the real module.
    """
    rules = all_rules(codes, include_optin=include_optin)
    contexts = [FileContext.from_source(src, path)
                for path, src in sources.items()]
    return _run_rules(contexts, rules, len(contexts))


# ---------------------------------------------------------------------------
# Suppression audit (``--list-suppressions``)
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SuppressionEntry:
    """One pragma plus how many findings it actually suppresses."""

    path: str
    line: int
    kind: str
    codes: Tuple[str, ...]
    matches: int

    @property
    def stale(self) -> bool:
        """A pragma that suppresses nothing should be deleted."""
        return self.matches == 0

    def format(self) -> str:
        codes = ",".join(self.codes)
        count = (f"{self.matches} finding"
                 f"{'s' if self.matches != 1 else ''} suppressed")
        status = "STALE: suppresses nothing" if self.stale else count
        return f"{self.path}:{self.line}: {self.kind}={codes} ({status})"

    def as_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "kind": self.kind,
                "codes": list(self.codes), "matches": self.matches,
                "stale": self.stale}


def audit_suppressions(paths: Sequence[str],
                       codes: Optional[Sequence[str]] = None,
                       include_optin: OptinSelector = True
                       ) -> List[SuppressionEntry]:
    """Every pragma under ``paths`` with its suppression count.

    Runs the rules *without* filtering and counts, per pragma, the raw
    findings it covers.  By default all registered rules (including the
    opt-in dataflow family) contribute, so a pragma is only reported
    stale when no rule at all would fire behind it.
    """
    rules = all_rules(codes, include_optin=include_optin)
    contexts, _ = _parse_paths(paths)
    return _suppression_entries(contexts, _collect_findings(contexts, rules))


def _suppression_entries(contexts: List[FileContext],
                         findings: Sequence[Finding]
                         ) -> List[SuppressionEntry]:
    """Every pragma in ``contexts``, counting the ``findings`` it covers."""
    by_path: Dict[str, List[Finding]] = {}
    for f in findings:
        by_path.setdefault(f.path, []).append(f)

    entries: List[SuppressionEntry] = []
    for ctx in contexts:
        covered = by_path.get(ctx.path, [])
        for pragma in ctx.suppressions.pragmas:
            matches = sum(1 for f in covered if pragma.covers(f))
            entries.append(SuppressionEntry(
                path=ctx.path, line=pragma.line, kind=pragma.kind,
                codes=pragma.codes, matches=matches))
    return sorted(entries, key=lambda e: (e.path, e.line))


def lint_source(source: str, path: str,
                codes: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one in-memory file; returns the findings list directly."""
    return lint_sources({path: source}, codes).findings
