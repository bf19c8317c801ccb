"""``python -m repro.lint [paths]`` — the command-line front end.

Exit status: 0 when every linted file is clean, 1 when any finding (error
or warning) survives suppressions, 2 on usage errors.  CI gates on this.

``--dataflow`` adds the opt-in flow-sensitive verifier (rules R6/R7) to
the run; ``--effects`` adds the interprocedural effect & reentrancy
verifier (rules R8/R9); ``--concurrency`` adds the static
concurrency verifier (rules R11-R14); the switches combine freely.
``--list-suppressions`` audits every suppression pragma against every
rule instead of linting; ``--strict`` escalates stale pragmas — pragmas
that suppress nothing — into failures (as exit status 1 in a
``--list-suppressions`` run, as S1 findings in a lint run).  A lint run
judges a pragma only when every code it names ran in that run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import audit_suppressions, lint_paths
from .findings import Finding
from .registry import all_rules
from .reporters import REPORTERS

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=("AST invariant linter for the repro codebase: dtype, "
                     "unit, stats, determinism and kernel-parity "
                     "discipline, plus the opt-in flow-sensitive "
                     "bit-width verifier (--dataflow)."))
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--format", choices=sorted(REPORTERS), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--rules", default=None, metavar="R1,R2",
        help="comma-separated rule codes to run (default: all non-opt-in)")
    parser.add_argument(
        "--dataflow", action="store_true",
        help="also run the flow-sensitive bit-width/value-range verifier "
             "(rules R6 bit-growth, R7 width-consistency)")
    parser.add_argument(
        "--effects", action="store_true",
        help="also run the interprocedural effect & reentrancy verifier "
             "(rules R8 reentrancy, R9 cache-key-completeness)")
    parser.add_argument(
        "--concurrency", action="store_true",
        help="also run the static concurrency verifier (rules R11 "
             "guarded-field-discipline, R12 no-blocking-while-locked, "
             "R13 deadlock-freedom, R14 thread-hygiene)")
    parser.add_argument(
        "--strict", action="store_true",
        help="treat stale suppression pragmas (ones that suppress "
             "nothing) as failures")
    parser.add_argument(
        "--list-suppressions", action="store_true",
        help="list every suppression pragma with what it suppresses, "
             "then exit (0, or 1 under --strict when stale pragmas exist)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    return parser


def list_rules_text() -> str:
    lines = []
    for rule in all_rules(include_optin=True):
        optin = ""
        if rule.optin:
            switch = f"--{rule.group}" if rule.group else "--rules"
            optin = f" (opt-in: {switch})"
        lines.append(f"{rule.code}  {rule.name}  "
                     f"[{rule.severity}/{rule.scope}]  "
                     f"{rule.description}{optin}")
    return "\n".join(lines)


def _optin_groups(args):
    """The ``include_optin`` selector the flags add up to."""
    groups = []
    if args.dataflow:
        groups.append("dataflow")
    if args.effects:
        groups.append("effects")
    if args.concurrency:
        groups.append("concurrency")
    return groups or False


def _parse_codes(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [c.strip() for c in raw.split(",") if c.strip()]


def _stale_finding(entry) -> Finding:
    codes = ",".join(entry.codes)
    return Finding(
        code="S1", rule="stale-suppression", severity="warning",
        path=entry.path, line=entry.line, col=0,
        message=(f"pragma '{entry.kind}={codes}' suppresses nothing; "
                 "delete it (strict mode)"))


def _list_suppressions(args, codes: Optional[List[str]]) -> int:
    entries = audit_suppressions(args.paths, codes=codes)
    if args.format == "json":
        print(json.dumps([e.as_dict() for e in entries],
                         indent=2, sort_keys=True))
    else:
        for entry in entries:
            print(entry.format())
        stale = sum(1 for e in entries if e.stale)
        print(f"{len(entries)} suppression pragma"
              f"{'s' if len(entries) != 1 else ''}, {stale} stale")
    if args.strict and any(e.stale for e in entries):
        return EXIT_FINDINGS
    return EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules_text())
        return EXIT_CLEAN

    codes = _parse_codes(args.rules)
    try:
        if args.list_suppressions:
            return _list_suppressions(args, codes)
        result = lint_paths(args.paths, codes=codes,
                            include_optin=_optin_groups(args))
        if args.strict:
            result.findings.extend(_stale_finding(e)
                                   for e in result.pragmas if e.stale)
            result.findings.sort(key=lambda f: f.sort_key)
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(REPORTERS[args.format](result))
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
