"""Top-level command-line interface: ``python -m repro <experiment>``.

The one entry point for every experiment:

.. code-block:: bash

    python -m repro table2                  # one experiment to stdout
    python -m repro fig7 --json out.json    # plus a JSON dump
    python -m repro fig8 --trace t.json     # plus a Chrome trace
    python -m repro table1 --fast           # quick accuracy study
    python -m repro all --out results/      # everything except table1-full
    python -m repro dse --preset smoke      # design-space sweep (repro.dse)
    python -m repro serve --port 8321       # HTTP service (repro.serve)
    python -m repro info                    # package overview

A flag the chosen experiment would ignore is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from typing import Dict, List, Optional


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One harness build, by the dotted paths of its two functions:
    ``build()`` makes the result and ``render(result)`` is the
    experiment's stdout."""

    build: str
    render: str
    #: File ``all`` writes under ``--out``; None: no JSON result.
    json: Optional[str] = None
    #: The build takes ``fast=`` (``--fast``); ``all`` passes True.
    fast: bool = False


#: Every experiment, in the order ``all`` runs them: the analytical builds
#: take seconds, the quick table1 study a few more.
TABLE: Dict[str, Experiment] = {
    "table2": Experiment("repro.harness.table2.build_table2",
                         "repro.harness.table2.render_table2", "table2.json"),
    "fig7": Experiment("repro.harness.fig7.build_fig7",
                       "repro.harness.fig7.render_fig7", "fig7.json"),
    "fig8": Experiment("repro.harness.fig8.build_fig8",
                       "repro.harness.fig8.render_fig8", "fig8.json"),
    "figures": Experiment("repro.harness.figures.build_figures",
                          "repro.harness.figures.render_figures"),
    "endurance": Experiment("repro.harness.endurance.build_endurance",
                            "repro.harness.endurance.render_endurance",
                            "endurance.json"),
    "ablations": Experiment("repro.harness.ablations.build_ablations",
                            "repro.harness.ablations.render_ablations",
                            "ablations.json"),
    "table1": Experiment("repro.harness.table1.build_table1",
                         "repro.harness.table1.render_table1",
                         "table1_fast.json", fast=True),
}

#: Subcommands that own their flag sets: everything after the name is
#: forwarded verbatim to the module's ``main``.
FORWARDED = {"dse": "repro.dse.__main__", "serve": "repro.serve.__main__"}

EXPERIMENTS = (*TABLE, *FORWARDED, "all", "info")


def _resolve(path: str):
    """The function at dotted ``path``, importing only its module."""
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


def _run(name: str, json_path: Optional[str] = None, fast: bool = False,
         trace_path: Optional[str] = None) -> None:
    """Build experiment ``name``, print its render, then write the JSON
    result and the trace where asked."""
    from .harness.reporting import begin_trace, finish_trace, save_json

    entry = TABLE[name]
    build, render = _resolve(entry.build), _resolve(entry.render)
    begin_trace(trace_path)
    result = build(fast=fast) if entry.fast else build()
    print(render(result))
    save_json(result, json_path)
    finish_trace(trace_path)


def _ignored_flags(args: argparse.Namespace) -> List[str]:
    """The given flags that would do nothing for ``args.experiment``."""
    entry = TABLE.get(args.experiment)
    ignored = []
    if args.fast and not (entry and entry.fast):
        ignored.append("--fast")
    if args.json is not None and not (entry and entry.json):
        ignored.append("--json")
    if args.trace is not None and entry is None:
        ignored.append("--trace")
    if args.out is not None and args.experiment != "all":
        ignored.append("--out")
    return ignored


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in FORWARDED:
        return importlib.import_module(FORWARDED[argv[0]]).main(argv[1:])

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
    parser.add_argument("--out", default=None,
                        help="output directory for 'all' (default: results/)")
    args = parser.parse_args(argv)
    ignored = _ignored_flags(args)
    if ignored:
        parser.error(f"{args.experiment} takes no {', '.join(ignored)}")

    if args.experiment == "info":
        import repro
        print(repro.__doc__)
        print(f"version {repro.__version__}")
        print("experiments:", ", ".join((*TABLE, *FORWARDED)))
    elif args.experiment == "all":
        out = args.out or "results"
        for name, entry in TABLE.items():
            _run(name, None if entry.json is None else f"{out}/{entry.json}",
                 fast=entry.fast)
    else:
        _run(args.experiment, args.json, args.fast, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
