"""Rule base class and the process-wide rule registry.

A rule is a small object with a stable ``code`` (``R1`` … ``R14``), a
kebab-case ``name``, a ``severity``, and one of two scopes:

``file``
    ``check_file(ctx)`` is called once per linted file whose path passes
    ``applies_to`` — the common case (dtype, units, stats, determinism).

``project``
    ``check_project(project)`` is called once with the whole file set —
    for cross-file invariants like kernel parity (R5), which must relate
    ``core/kernels.py`` to the differential test suite.

Rules self-register at import time via the :func:`register` decorator;
:func:`all_rules` is what the engine iterates.  Every registered rule runs
on every lint; only tests narrow a run to named codes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional

from .findings import SEVERITIES, Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import FileContext, ProjectContext


class Rule:
    """Base class for lint rules; subclasses override one ``check_*``."""

    code: str = ""
    name: str = ""
    severity: str = "error"
    scope: str = "file"           # "file" or "project"
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this (file-scoped) rule runs on ``path`` (posix-style)."""
        return True

    def check_file(self, ctx: "FileContext") -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        return iter(())

    # ------------------------------------------------------------- helpers
    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        """A :class:`Finding` stamped with this rule's code/name/severity."""
        return Finding(code=self.code, rule=self.name, severity=self.severity,
                       path=path, line=line, col=col, message=message)


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator: instantiate and add a rule to the registry."""
    rule = rule_cls()
    if not rule.code or not rule.name:
        raise ValueError(f"rule {rule_cls.__name__} needs a code and a name")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"rule {rule.code} severity {rule.severity!r}")
    if rule.scope not in ("file", "project"):
        raise ValueError(f"rule {rule.code} scope {rule.scope!r}")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules(codes: Optional[Iterable[str]] = None) -> List[Rule]:
    """Every registered rule in code order, or just ``codes`` (unknown →
    ``KeyError``)."""
    _ensure_loaded()
    if codes is None:
        return [_REGISTRY[c] for c in sorted(_REGISTRY)]
    out = []
    for code in codes:
        if code not in _REGISTRY:
            raise KeyError(
                f"unknown rule {code!r}; known: {sorted(_REGISTRY)}")
        out.append(_REGISTRY[code])
    return out


def _ensure_loaded() -> None:
    """Import the built-in rule modules (idempotent)."""
    from . import rules  # noqa: F401  (import side effect: registration)
    from .dataflow import rules as dataflow_rules  # noqa: F401
    from .effects import rules as effects_rules  # noqa: F401
    from .concurrency import rules as concurrency_rules  # noqa: F401
