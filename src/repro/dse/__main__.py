"""``python -m repro.dse`` — the design-space sweep.

Every run evaluates every config of its spec with the current cost
model; no record is read from or written to a cache.

.. code-block:: bash

    python -m repro.dse                          # default preset, serial
    python -m repro.dse --preset full            # 4500 configs
    python -m repro.dse --preset smoke --out frontier.json --csv sweep.csv
    python -m repro.dse --patterns 1:4,1:8 --bus-bits 64,128,256
    python -m repro.dse --trace dse.trace.json   # span-traced run
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from ..harness.reporting import begin_trace, finish_trace
from .engine import frontier_doc, run_sweep
from .export import render_frontier, render_summary, write_csv, write_json
from .spec import PRESETS, SweepSpec


def build_spec(args: argparse.Namespace) -> SweepSpec:
    """The preset, with any lever overridden from the command line
    (comma-separated values; :class:`SweepSpec` coerces their types)."""
    overrides = {lever: tuple(v.strip() for v in text.split(",") if v.strip())
                 for lever in ("patterns", "bus_bits", "mram_rows",
                               "weight_bits", "devices")
                 if (text := getattr(args, lever))}
    spec = PRESETS[args.preset]
    return dataclasses.replace(spec, **overrides) if overrides else spec


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="Design-space exploration over the "
                    "hybrid accelerator's levers, reduced to Pareto "
                    "frontiers (area/power/EDP/density).")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        default="default",
                        help="base sweep spec (default: default)")
    parser.add_argument("--patterns", default=None, metavar="1:4,1:8",
                        help="override the N:M pattern lever")
    parser.add_argument("--bus-bits", default=None, metavar="64,128",
                        help="override the activation-bus-width lever")
    parser.add_argument("--mram-rows", default=None, metavar="512,1024",
                        help="override the MRAM sub-array depth lever")
    parser.add_argument("--weight-bits", default=None, metavar="4,8",
                        help="override the weight-precision lever")
    parser.add_argument("--devices", default=None,
                        metavar="nominal,mram-fast-write",
                        help="override the device-corner lever")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the frontier JSON here")
    parser.add_argument("--records", default=None, metavar="PATH",
                        help="write the full sweep document (all records) "
                             "here")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="write all records as CSV here")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="enable span tracing; write a Chrome "
                             "trace_events file here")
    args = parser.parse_args(argv)

    try:
        spec = build_spec(args)
    except ValueError as exc:
        parser.error(str(exc))

    begin_trace(args.trace)
    result = run_sweep(spec=spec)
    finish_trace(args.trace)

    print(render_frontier(result))
    print()
    print(render_summary(result))
    for record in result["errors"]:
        error = record["error"]
        print(f"error: {record['config']} -> {error['type']}: "
              f"{error['message']}", file=sys.stderr)

    if args.out:
        path = write_json(frontier_doc(result), args.out)
        print(f"frontier: {path}")
    if args.records:
        path = write_json(result, args.records)
        print(f"records: {path}")
    if args.csv:
        path = write_csv(result["records"], args.csv)
        print(f"csv: {path}")

    if result["configs"] and len(result["errors"]) == result["configs"]:
        print("error: every config failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
