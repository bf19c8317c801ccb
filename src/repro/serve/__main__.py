"""``python -m repro.serve`` — run the simulation service.

.. code-block:: bash

    python -m repro.serve --port 8321                 # default cache
    python -m repro.serve --port 0                    # pick a free port
    python -m repro.serve --no-cache                  # always recompute

    curl -s -X POST localhost:8321/v1/evaluate -d '{
      "config": {"pattern": "1:8", "bus_bits": 128, "mram_rows": 1024,
                 "weight_bits": 8, "device": "nominal"}}'
    curl -s -X POST localhost:8321/v1/sweep -d '{"preset": "smoke"}'

The cache backs ``/v1/evaluate`` only; ``/v1/sweep`` recomputes every
config.  Its entries carry no model version: after a change to the cost
model, point ``--cache-dir`` at an empty directory (or empty it).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..dse.cache import DEFAULT_CACHE_DIR, DiskCache, NullCache
from .api import ROUTES, ServeApp, make_server


def build_app(args: argparse.Namespace) -> ServeApp:
    if args.no_cache:
        cache: DiskCache = NullCache()
    else:
        cache = DiskCache(args.cache_dir)
    return ServeApp(cache=cache)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Simulation-as-a-service over the DSE engine and the "
                    "experiment harness (stdlib-only HTTP/JSON API; "
                    "single-flight evaluation; sweeps and experiments "
                    "answered in the request).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321,
                        help="bind port; 0 picks a free one (default: 8321)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help=f"/v1/evaluate's record cache root "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the record cache")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    args = parser.parse_args(argv)

    app = build_app(args)
    server = make_server(args.host, args.port, app, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"repro.serve listening on http://{host}:{port}  "
          f"(cache: {app.cache.stats()['root'] if app.cache.enabled else 'off'}, "
          "evaluate: inline single-flight)", flush=True)
    for method, path, summary in ROUTES:
        print(f"  {method:4s} {path:24s} {summary}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        server.shutdown()
        server.server_close()
        app.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
