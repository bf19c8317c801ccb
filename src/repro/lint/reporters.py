"""Render a :class:`~repro.lint.engine.LintResult` for humans or machines."""

from __future__ import annotations

import json

from .engine import LintResult

#: SARIF constants: schema pinned so consumers can validate the upload.
_SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def text_report(result: LintResult) -> str:
    """One ``path:line:col: CODE message`` line per finding + a summary."""
    lines = [f.format() for f in result.all_findings()]
    counts = result.counts()
    errors = counts.get("error", 0)
    warnings = counts.get("warning", 0)
    total = errors + warnings
    if total:
        lines.append(
            f"{total} finding{'s' if total != 1 else ''} "
            f"({errors} error{'s' if errors != 1 else ''}, "
            f"{warnings} warning{'s' if warnings != 1 else ''}) "
            f"in {result.files_checked} files")
    else:
        lines.append(f"clean: {result.files_checked} files, 0 findings")
    return "\n".join(lines)


def json_report(result: LintResult) -> str:
    """Machine-readable report (stable keys; consumed by CI tooling)."""
    return json.dumps({
        "files_checked": result.files_checked,
        "counts": result.counts(),
        "ok": result.ok,
        "findings": [f.as_dict() for f in result.all_findings()],
    }, indent=2, sort_keys=True)


def sarif_report(result: LintResult) -> str:
    """SARIF 2.1.0 — the format GitHub code scanning ingests.

    One run, one result per finding; rule metadata comes from the
    registry when the code is registered (E0 parse errors are synthesized
    from the finding itself).
    """
    from .registry import _REGISTRY, _ensure_loaded
    _ensure_loaded()

    findings = result.all_findings()
    rules = []
    seen = set()
    for f in findings:
        if f.code in seen:
            continue
        seen.add(f.code)
        registered = _REGISTRY.get(f.code)
        description = (registered.description if registered is not None
                       else f.rule)
        rules.append({
            "id": f.code,
            "name": f.rule,
            "shortDescription": {"text": description or f.rule},
            "defaultConfiguration": {
                "level": "error" if f.severity == "error" else "warning",
            },
        })
    results = [{
        "ruleId": f.code,
        "level": "error" if f.severity == "error" else "warning",
        "message": {"text": f.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path},
                "region": {
                    "startLine": f.line,
                    "startColumn": f.col + 1,   # SARIF columns are 1-based
                },
            },
        }],
    } for f in findings]
    return json.dumps({
        "$schema": _SARIF_SCHEMA,
        "version": _SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }, indent=2, sort_keys=True)


REPORTERS = {
    "text": text_report,
    "json": json_report,
    "sarif": sarif_report,
}
