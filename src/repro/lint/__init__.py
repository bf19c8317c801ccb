"""repro.lint — AST invariant linter for the simulator's house rules.

Generic linters cannot know that the PE datapaths are integer-only, that
every energy figure is picojoules, that :class:`~repro.core.stats.PEStats`
counters must merge rather than be overwritten, that library randomness must
flow through seeded ``np.random.Generator`` parameters, or that every
production kernel has a tested ``<kernel>_reference`` oracle.  This package
encodes those invariants as rules R1–R5 over a small visitor engine, plus
three verifiers over a shared call graph: bit widths (R6/R7), effects and
reentrancy (R8/R9) and concurrency (R11–R14).  ``python -m repro.lint
src/repro`` runs every rule in one pass; CI gates on it.

See docs/METHODOLOGY.md §8 for the rule catalogue.
"""

from .engine import (FileContext, LintResult, ProjectContext, lint_paths,
                     lint_sources)
from .findings import SEVERITIES, Finding
from .registry import Rule, all_rules, register
from .reporters import REPORTERS, json_report, text_report

__all__ = [
    "FileContext", "Finding", "LintResult", "ProjectContext", "REPORTERS",
    "Rule", "SEVERITIES", "all_rules", "json_report", "lint_paths",
    "lint_sources", "register", "text_report",
]
