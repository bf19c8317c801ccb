"""Top-level command-line interface: ``python -m repro <experiment>``.

Single entry point over the experiment harness:

.. code-block:: bash

    python -m repro table2                  # one experiment to stdout
    python -m repro fig7 --json out.json    # plus a JSON dump
    python -m repro table1 --fast           # quick accuracy study
    python -m repro all --out results/      # everything except table1-full
    python -m repro dse --preset smoke      # design-space sweep (repro.dse)
    python -m repro serve --port 8321       # HTTP service (repro.serve)
    python -m repro info                    # package overview
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

EXPERIMENTS = ("table1", "table2", "fig7", "fig8", "figures", "endurance",
               "ablations", "dse", "serve", "all", "info")


def _run_info() -> None:
    import repro
    print(repro.__doc__)
    print(f"version {repro.__version__}")
    print("experiments:", ", ".join(e for e in EXPERIMENTS
                                    if e not in ("all", "info")))


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "dse":
        # The sweep engine owns its own (much larger) flag set; forward
        # everything after the subcommand verbatim.
        from .dse.__main__ import main as dse_main
        return dse_main(argv[1:])
    if argv and argv[0] == "serve":
        # Same pattern for the HTTP service.
        from .serve.__main__ import main as serve_main
        return serve_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables/figures and the "
                    "extension studies.")
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--fast", action="store_true",
                        help="table1 only: use the quick test budget")
    parser.add_argument("--json", default=None,
                        help="write the structured result to this JSON path")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="enable span tracing; write a Chrome "
                             "trace_events file (chrome://tracing) here")
    parser.add_argument("--out", default="results",
                        help="output directory for 'all' (default: results/)")
    args = parser.parse_args(argv)

    if args.experiment == "info":
        _run_info()
        return 0

    from .harness import (ablations, endurance, fig7, fig8, figures, table1,
                          table2)

    if args.experiment == "table1":
        table1.main(json_path=args.json, fast=args.fast,
                    trace_path=args.trace)
    elif args.experiment == "table2":
        table2.main(json_path=args.json, trace_path=args.trace)
    elif args.experiment == "fig7":
        fig7.main(json_path=args.json, trace_path=args.trace)
    elif args.experiment == "fig8":
        fig8.main(json_path=args.json, trace_path=args.trace)
    elif args.experiment == "figures":
        figures.main(trace_path=args.trace)
    elif args.experiment == "endurance":
        endurance.main(json_path=args.json, trace_path=args.trace)
    elif args.experiment == "ablations":
        ablations.main(json_path=args.json, trace_path=args.trace)
    elif args.experiment == "all":
        # Everything that runs in seconds; the full table1 is its own command.
        table2.main(json_path=f"{args.out}/table2.json")
        fig7.main(json_path=f"{args.out}/fig7.json")
        fig8.main(json_path=f"{args.out}/fig8.json")
        figures.main()
        endurance.main(json_path=f"{args.out}/endurance.json")
        ablations.main(json_path=f"{args.out}/ablations.json")
        table1.main(json_path=f"{args.out}/table1_fast.json", fast=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
