"""``python -m repro.lint [paths]`` — the command-line front end.

One pass runs every registered rule (R1–R9, R11–R14) over the given paths;
no rule can be turned off and no finding suppressed.  Exit status: 0 when
every linted file is clean, 1 when any finding (error or warning) is
reported, 2 on usage errors.  CI gates on this.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .engine import lint_paths
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
                     "discipline, the bit-width verifier, the effect & "
                     "reentrancy verifier and the concurrency verifier, "
                     "all in one pass."))
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--format", choices=sorted(REPORTERS), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    return parser


def list_rules_text() -> str:
    return "\n".join(f"{rule.code}  {rule.name}  "
                     f"[{rule.severity}/{rule.scope}]  {rule.description}"
                     for rule in all_rules())


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        print(list_rules_text())
        return EXIT_CLEAN

    try:
        result = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(REPORTERS[args.format](result))
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
