"""The HTTP/JSON API: routing, the application object, the server.

Layering (everything below the handler is plain-function testable):

* :class:`ServeApp` — owns the evaluate path's
  :class:`~repro.dse.cache.DiskCache` (sweeps recompute and never touch
  it), the single-flight :class:`~.batching.BatchingQueue` and the
  latency histograms.
  ``dispatch(method, path, body)`` is the whole API as a pure-ish call:
  ``(status, document)`` out; ``respond`` adds the (compact, key-sorted)
  JSON encoding and the timing.
* :class:`_Handler` — the thin ``http.server`` adapter: reads the body
  (bounded by ``max_body_bytes``), calls ``respond``, writes the bytes.
  ``ThreadingHTTPServer`` gives one thread per request, and every
  evaluation, sweep and experiment runs inline in it; all shared state
  sits behind the app's locks.

Every evaluate, sweep and experiment request gets a trace ID
(``req-<seq>``, deterministic per server) and runs under its own
context-local tracer (:func:`repro.obs.use_tracer`); with ``"trace":
true`` its spans come back inline in the reply.

Error discipline: *every* failure path returns a structured JSON error
document (:func:`~.schemas.error_doc`) — schema violations as 4xx,
unexpected exceptions as a 500 with the exception class name, never a
traceback in the body.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import __version__
from ..core.concurrency import guarded_by
from ..dse.cache import DiskCache
from ..dse.engine import frontier_doc, run_sweep
from ..dse.spec import config_key
from ..obs import Tracer, span, to_trace_events, use_tracer
from .batching import BatchingQueue, BatchTimeout
from .schemas import (EVALUATE_SCHEMA, EXPERIMENT_SCHEMA, HEALTH_SCHEMA,
                      MAX_BODY_BYTES, STATS_SCHEMA, SWEEP_SCHEMA, SchemaError,
                      error_doc, validate_evaluate_request,
                      validate_experiment_request, validate_sweep_request)

#: The endpoint table (method, path template, summary) — also what the
#: CLI banner and METHODOLOGY §12 print, so docs and code cannot drift.
ROUTES = (
    ("POST", "/v1/evaluate", "evaluate one config (single-flight+cached)"),
    ("POST", "/v1/sweep", "run a sweep (SweepSpec overlay)"),
    ("POST", "/v1/experiment", "build an experiment (fig7|fig8|table2)"),
    ("GET", "/v1/health", "liveness + version"),
    ("GET", "/v1/stats", "cache / batching counters, latency"),
)

#: The one method each route template accepts.
ROUTE_METHODS = {path: method for method, path, _ in ROUTES}

#: The timed stages of one evaluate request, in order.
EVALUATE_STAGES = ("validate", "evaluate", "serialize")


def route_template(path: str) -> str:
    """A request path cleaned of its query string and empty segments."""
    return "/" + "/".join(p for p in path.split("?", 1)[0].split("/") if p)


#: Upper bounds of the latency buckets in microseconds, 16 µs doubling
#: up to 2^24 µs (about 16.8 s); one more bucket counts everything slower.
BOUNDS_US = tuple(2 ** i for i in range(4, 25))


def bucket_index(elapsed_ns: int) -> int:
    """The latency bucket of a duration: the first bound it does not
    exceed."""
    micros = -(-elapsed_ns // 1000)
    return min(max(0, (micros - 1).bit_length() - 4), len(BOUNDS_US))


@guarded_by("_lock", "_counts", "_sums_ns")
class LatencyHistograms:
    """Fixed log2-bucket latency histograms, one per name, behind one
    lock.  Always on: a record is a lock-free bucket index plus two
    integer adds under the lock; fixed buckets let two documents
    subtract bucket by bucket."""

    def __init__(self, names: Iterable[str]):
        self._lock = threading.Lock()
        self._counts: Dict[str, List[int]] = {
            name: [0] * (len(BOUNDS_US) + 1) for name in names}
        self._sums_ns = dict.fromkeys(self._counts, 0)

    def record(self, name: str, elapsed_ns: int) -> None:
        index = bucket_index(elapsed_ns)
        with self._lock:
            self._counts[name][index] += 1
            self._sums_ns[name] += elapsed_ns

    def doc(self) -> Dict[str, Dict[str, object]]:
        """``{name: {count, sum_us, buckets}}``; ``buckets[i]`` counts the
        durations in ``(BOUNDS_US[i-1], BOUNDS_US[i]]`` µs, and the last
        one those above ``BOUNDS_US[-1]``."""
        with self._lock:
            return {name: {"count": sum(counts),
                           "sum_us": self._sums_ns[name] // 1000,
                           "buckets": list(counts)}
                    for name, counts in self._counts.items()}


def _build_experiment(name: str) -> object:
    """One harness build (fig7 / fig8 / table2)."""
    from ..harness.fig7 import build_fig7
    from ..harness.fig8 import build_fig8
    from ..harness.table2 import build_table2

    builders = {"fig7": build_fig7, "fig8": build_fig8,
                "table2": build_table2}
    return builders[name]()


@guarded_by("_lock", "_trace_seq")
class ServeApp:
    """Application state + the ``dispatch`` entry point."""

    def __init__(self, cache: Optional[DiskCache] = None,
                 max_body_bytes: int = MAX_BODY_BYTES):
        self.cache = cache if cache is not None else DiskCache()
        self.queue = BatchingQueue(cache=self.cache)
        self.max_body_bytes = max_body_bytes
        #: Whole server-side request time per route template (``other``:
        #: paths matching no route), and per evaluate stage.
        self.endpoint_latency = LatencyHistograms(
            list(ROUTE_METHODS) + ["other"])
        self.stage_latency = LatencyHistograms(EVALUATE_STAGES)
        self._lock = threading.Lock()
        self._trace_seq = 0

    # -------------------------------------------------------------- plumbing
    def next_trace_id(self) -> str:
        with self._lock:
            self._trace_seq += 1
            return f"req-{self._trace_seq:06d}"

    def parse_body(self, raw: bytes) -> object:
        if len(raw) > self.max_body_bytes:
            raise SchemaError("too-large",
                              f"request body exceeds {self.max_body_bytes} "
                              "bytes", status=413)
        if not raw:
            raise SchemaError("bad-json", "request body is empty")
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SchemaError("bad-json",
                              f"request body is not valid JSON: {exc}") \
                from exc

    # -------------------------------------------------------------- dispatch
    def respond(self, method: str, path: str, raw_body: bytes = b""
                ) -> Tuple[int, Dict[str, object], bytes]:
        """``dispatch`` plus JSON encoding — the whole server-side life
        of one HTTP request, timed into the latency histograms.

        Keys are sorted, so a reply's bytes depend only on its document:
        a record fresh from the model and the same record decoded from
        the cache encode alike."""
        start = time.perf_counter_ns()
        status, doc = self.dispatch(method, path, raw_body)
        encode = time.perf_counter_ns()
        payload = json.dumps(doc, separators=(",", ":"), sort_keys=True,
                             default=str).encode("utf-8")
        end = time.perf_counter_ns()
        template = route_template(path)
        if template == "/v1/evaluate":
            self.stage_latency.record("serialize", end - encode)
        self.endpoint_latency.record(
            template if template in ROUTE_METHODS else "other", end - start)
        return status, doc, payload

    def dispatch(self, method: str, path: str,
                 raw_body: bytes = b"") -> Tuple[int, Dict[str, object]]:
        """Route one request; always returns ``(status, json_doc)``."""
        try:
            return self._route(method, path, raw_body)
        except SchemaError as exc:
            return exc.status, exc.doc()
        except Exception as exc:  # noqa: BLE001 — no tracebacks on the wire
            return 500, error_doc("internal",
                                  f"{type(exc).__name__}: {exc}")

    def _route(self, method: str, path: str,
               raw_body: bytes) -> Tuple[int, Dict[str, object]]:
        template = route_template(path)
        shown = path.split("?", 1)[0].rstrip("/") or "/"
        expected = ROUTE_METHODS.get(template)
        if expected is None:
            raise SchemaError("not-found", f"no such endpoint: {shown}",
                              status=404)
        if method != expected:
            raise SchemaError("method-not-allowed",
                              f"{shown} requires {expected}, got {method}",
                              status=405)
        if template == "/v1/evaluate":
            return self.handle_evaluate(raw_body)
        if template == "/v1/sweep":
            return self.handle_sweep(self.parse_body(raw_body))
        if template == "/v1/experiment":
            return self.handle_experiment(self.parse_body(raw_body))
        if template == "/v1/health":
            return 200, {"schema": HEALTH_SCHEMA, "ok": True,
                         "version": __version__}
        return 200, {"schema": STATS_SCHEMA,              # /v1/stats
                     "cache": self.cache.stats(),
                     "batching": self.queue.stats(),
                     "latency": {
                         "bounds_us": list(BOUNDS_US),
                         "endpoints": self.endpoint_latency.doc(),
                         "evaluate_stages": self.stage_latency.doc()}}

    # -------------------------------------------------------------- handlers
    def _traced(self, endpoint: str, schema: str, trace: bool,
                work: Callable[[], Dict[str, object]]) -> Dict[str, object]:
        """The reply document of one request: ``work()``'s fields under
        ``schema`` and a fresh trace ID, with ``work`` run inside a
        ``serve.request`` span on a request-local tracer whose spans
        come back inline when ``trace`` is set."""
        trace_id = self.next_trace_id()
        tracer = Tracer(enabled=trace)
        with use_tracer(tracer):
            with tracer.span("serve.request", endpoint=endpoint,
                             trace_id=trace_id):
                fields = work()
        doc: Dict[str, object] = {"schema": schema, "trace_id": trace_id,
                                  **fields}
        if trace:
            doc["trace"] = {"spans": to_trace_events(tracer)["traceEvents"]}
        return doc

    def handle_evaluate(self, raw_body: bytes
                        ) -> Tuple[int, Dict[str, object]]:
        start = time.perf_counter_ns()
        request = validate_evaluate_request(self.parse_body(raw_body))
        config = request["config"]
        key = config_key(config)
        validated = time.perf_counter_ns()
        self.stage_latency.record("validate", validated - start)

        def evaluate() -> Dict[str, object]:
            with span("serve.flight"):
                record, served, batch = self.queue.submit(key, config)
            return {"key": key, "cache": served, "record": record,
                    "batch": batch}

        try:
            doc = self._traced("/v1/evaluate", EVALUATE_SCHEMA,
                               request["trace"], evaluate)
        except BatchTimeout as exc:
            raise SchemaError("batch-timeout", str(exc), status=503) from exc
        self.stage_latency.record("evaluate",
                                  time.perf_counter_ns() - validated)
        return 200, doc

    def handle_sweep(self, body: object) -> Tuple[int, Dict[str, object]]:
        request = validate_sweep_request(body)

        def sweep() -> Dict[str, object]:
            result = run_sweep(spec=request["spec"])
            fields: Dict[str, object] = {
                "configs": result["configs"],
                "errors": len(result["errors"]),
                "frontier": frontier_doc(result),
            }
            if request["records"]:
                fields["records"] = result["records"]
            return fields

        return 200, self._traced("/v1/sweep", SWEEP_SCHEMA,
                                 request["trace"], sweep)

    def handle_experiment(self, body: object
                          ) -> Tuple[int, Dict[str, object]]:
        request = validate_experiment_request(body)
        name = request["experiment"]
        return 200, self._traced(
            "/v1/experiment", EXPERIMENT_SCHEMA, request["trace"],
            lambda: {"experiment": name, "result": _build_experiment(name)})

    # ------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        self.queue.shutdown()


class _Handler(BaseHTTPRequestHandler):
    """http.server adapter over :meth:`ServeApp.dispatch`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the
    # body would wait for the client's (delayed) ACK of the headers on
    # every keep-alive response.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:          # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:         # noqa: N802 — http.server API
        self._dispatch("POST")

    # Wrong-verb requests still get structured JSON 405s, never the
    # BaseHTTPRequestHandler HTML error page.
    def do_PUT(self) -> None:          # noqa: N802 — http.server API
        self._dispatch("PUT")

    def do_DELETE(self) -> None:       # noqa: N802 — http.server API
        self._dispatch("DELETE")

    def do_PATCH(self) -> None:        # noqa: N802 — http.server API
        self._dispatch("PATCH")

    def _dispatch(self, method: str) -> None:
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        # Refuse to even read an oversized body: cap the read, let the
        # app's size check reject it structurally.
        raw = self.rfile.read(min(length, app.max_body_bytes + 1)) \
            if length > 0 else b""
        if length > len(raw):
            # Oversized body left unread on the socket: this connection
            # cannot be reused for another request.
            self.close_connection = True
        status, doc, payload = app.respond(method, self.path, raw)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if isinstance(doc, dict) and "trace_id" in doc:
            self.send_header("X-Repro-Trace-Id", str(doc["trace_id"]))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class ServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the app (one thread per request)."""

    daemon_threads = True
    # The socketserver default backlog of 5 drops the SYNs of a larger
    # burst of new connections, and each dropped one retries after 1 s.
    request_queue_size = 64

    def __init__(self, address: Tuple[str, int], app: ServeApp,
                 verbose: bool = False):
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose


def make_server(host: str = "127.0.0.1", port: int = 8321,
                app: Optional[ServeApp] = None,
                verbose: bool = False) -> ServeServer:
    """Bind a server (``port=0`` picks a free port; see ``server_port``)."""
    return ServeServer((host, port), app if app is not None else ServeApp(),
                       verbose=verbose)
