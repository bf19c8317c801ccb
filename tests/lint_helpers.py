"""Helpers shared by the lint tests."""

from repro.lint import lint_sources


def lint_source(source, path, codes=None):
    """Lint one in-memory file; returns the findings list directly."""
    return lint_sources({path: source}, codes).findings
