"""``python -m repro.dse`` — the cached design-space sweep.

.. code-block:: bash

    python -m repro.dse                          # default preset, serial
    python -m repro.dse --preset full            # 4500 configs
    python -m repro.dse --preset smoke --out frontier.json --csv sweep.csv
    python -m repro.dse --patterns 1:4,1:8 --bus-bits 64,128,256
    python -m repro.dse --no-cache               # always recompute
    python -m repro.dse --refresh                # recompute, refill cache
    python -m repro.dse --min-cache-hits 1       # CI warm-run assertion
    python -m repro.dse --trace dse.trace.json   # span-traced run
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from ..harness.reporting import begin_trace, finish_trace
from .cache import DEFAULT_CACHE_DIR, DiskCache, NullCache
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
        description="Cached design-space exploration over the "
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
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"record cache root (default: "
                             f"{DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the record cache")
    parser.add_argument("--refresh", action="store_true",
                        help="ignore cached records but refill the cache")
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
    parser.add_argument("--min-cache-hits", type=int, default=None,
                        metavar="N",
                        help="exit 2 unless the run served >= N cache hits "
                             "(CI warm-run assertion)")
    args = parser.parse_args(argv)

    try:
        spec = build_spec(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.no_cache:
        cache: DiskCache = NullCache()
    else:
        cache = DiskCache(args.cache_dir, refresh=args.refresh)

    begin_trace(args.trace)
    result = run_sweep(spec=spec, cache=cache)
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
    hits = cache.stats()["hits"]
    if args.min_cache_hits is not None and hits < args.min_cache_hits:
        print(f"error: {hits} cache hits < required "
              f"{args.min_cache_hits}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
