"""The HTTP/JSON API: routing, the application object, the server.

Layering (everything below the handler is plain-function testable):

* :class:`ServeApp` — owns the shared :class:`~repro.dse.cache.DiskCache`
  (the *same* content-hash cache ``python -m repro.dse`` uses, so HTTP
  and CLI warm each other), the single-flight
  :class:`~.batching.BatchingQueue`, the :class:`~.jobs.JobStore` and
  the latency histograms.  ``dispatch(method, path, body)`` is the
  whole API as a pure-ish call: ``(status, document)`` out;
  ``respond`` adds the JSON encoding and the timing.
* :class:`_Handler` — the thin ``http.server`` adapter: reads the body
  (bounded by ``max_body_bytes``), calls ``respond``, writes the bytes.
  ``ThreadingHTTPServer`` gives one thread per request, and evaluations
  run inline in it; all shared state sits behind the app's locks.

Every request gets a trace ID (``req-<seq>``, deterministic per server).
Evaluate requests with ``"trace": true`` run under a context-local
tracer (:func:`repro.obs.use_tracer`) and get their spans back inline;
job traces are exported as Chrome ``trace_events`` documents via
``GET /v1/jobs/<id>/trace``.

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
from typing import Dict, Iterable, List, Optional, Tuple

from .. import __version__
from ..core.concurrency import guarded_by
from ..dse.cache import DiskCache
from ..dse.engine import frontier_doc, run_sweep
from ..dse.spec import config_key
from ..obs import Tracer, to_trace_events, use_tracer
from .batching import BatchingQueue, BatchTimeout
from .jobs import DEFAULT_MAX_JOBS, Job, JobStore
from .schemas import (EVALUATE_SCHEMA, HEALTH_SCHEMA, JOB_RESULT_SCHEMA,
                      JOB_SCHEMA, MAX_BODY_BYTES, STATS_SCHEMA, SchemaError,
                      build_sweep_spec, error_doc, validate_evaluate_request,
                      validate_experiment_request, validate_sweep_request)

#: The endpoint table (method, path template, summary) — also what the
#: CLI banner and METHODOLOGY §12 print, so docs and code cannot drift.
ROUTES = (
    ("POST", "/v1/evaluate", "evaluate one config (single-flight+cached)"),
    ("POST", "/v1/sweep", "submit a sweep job (SweepSpec overlay)"),
    ("POST", "/v1/experiment", "submit an experiment job (fig7|fig8|table2)"),
    ("GET", "/v1/jobs", "list jobs in submission order"),
    ("GET", "/v1/jobs/<id>", "job status document"),
    ("GET", "/v1/jobs/<id>/result", "job result (409 until finished)"),
    ("GET", "/v1/jobs/<id>/trace", "job Chrome trace_events export"),
    ("POST", "/v1/jobs/<id>/cancel", "cancel a queued job"),
    ("GET", "/v1/health", "liveness + version"),
    ("GET", "/v1/stats", "cache / batching / job counters, latency"),
)

#: The one method each route template accepts.
ROUTE_METHODS = {path: method for method, path, _ in ROUTES}

#: The timed stages of one evaluate request, in order.
EVALUATE_STAGES = ("validate", "evaluate", "serialize")


def route_template(path: str) -> Tuple[str, Optional[str]]:
    """``(template, job_id)`` of a request path: ``/v1/jobs/<id>...``
    paths bind their id; every other path is only cleaned of its query
    string and empty segments."""
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    if len(parts) in (3, 4) and parts[:2] == ["v1", "jobs"]:
        return "/".join(["", "v1", "jobs", "<id>"] + parts[3:]), parts[2]
    return "/" + "/".join(parts), None


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


def _run_sweep_job(app: "ServeApp", job: Job) -> Dict[str, object]:
    """Job runner: one sweep through the shared engine + cache."""
    spec = build_sweep_spec(job.request)
    result = run_sweep(spec=spec, workers=int(job.request["workers"]),
                       cache=app.cache)
    doc: Dict[str, object] = {
        "configs": result["configs"],
        "errors": len(result["errors"]),
        "cache": result["cache"],
        "frontier": frontier_doc(result),
    }
    if job.request.get("records"):
        doc["records"] = result["records"]
    return doc


def _run_experiment_job(app: "ServeApp", job: Job) -> Dict[str, object]:
    """Job runner: one harness build (fig7 / fig8 / table2)."""
    from ..harness.fig7 import build_fig7
    from ..harness.fig8 import build_fig8
    from ..harness.table2 import build_table2

    builders = {"fig7": build_fig7, "fig8": build_fig8,
                "table2": build_table2}
    name = str(job.request["experiment"])
    return {"experiment": name, "result": builders[name]()}


@guarded_by("_lock", "_trace_seq")
class ServeApp:
    """Application state + the ``dispatch`` entry point."""

    def __init__(self, cache: Optional[DiskCache] = None,
                 job_workers: int = 2,
                 max_body_bytes: int = MAX_BODY_BYTES,
                 max_jobs: int = DEFAULT_MAX_JOBS):
        self.cache = cache if cache is not None else DiskCache()
        self.queue = BatchingQueue(cache=self.cache)
        self.jobs = JobStore(workers=job_workers, max_jobs=max_jobs)
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
        of one HTTP request, timed into the latency histograms."""
        start = time.perf_counter_ns()
        status, doc = self.dispatch(method, path, raw_body)
        encode = time.perf_counter_ns()
        payload = json.dumps(doc, indent=1, default=str).encode("utf-8")
        end = time.perf_counter_ns()
        template = route_template(path)[0]
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
        template, job_id = route_template(path)
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
        if template == "/v1/jobs":
            return 200, self.jobs.list_doc()
        if template == "/v1/health":
            return 200, {"schema": HEALTH_SCHEMA, "ok": True,
                         "version": __version__}
        if template == "/v1/stats":
            return 200, {"schema": STATS_SCHEMA,
                         "cache": self.cache.stats(),
                         "batching": self.queue.stats(),
                         "jobs": self.jobs.counts(),
                         "latency": {
                             "bounds_us": list(BOUNDS_US),
                             "endpoints": self.endpoint_latency.doc(),
                             "evaluate_stages": self.stage_latency.doc()}}
        handler = {"/v1/jobs/<id>": self.handle_job_get,
                   "/v1/jobs/<id>/result": self.handle_job_result,
                   "/v1/jobs/<id>/trace": self.handle_job_trace,
                   "/v1/jobs/<id>/cancel": self.handle_job_cancel}[template]
        return handler(str(job_id))

    # -------------------------------------------------------------- handlers
    def handle_evaluate(self, raw_body: bytes
                        ) -> Tuple[int, Dict[str, object]]:
        start = time.perf_counter_ns()
        request = validate_evaluate_request(self.parse_body(raw_body))
        config = request["config"]
        key = config_key(config)
        validated = time.perf_counter_ns()
        self.stage_latency.record("validate", validated - start)
        trace_id = self.next_trace_id()
        tracer = Tracer(enabled=bool(request["trace"]))
        try:
            with use_tracer(tracer):
                with tracer.span("serve.request", endpoint="/v1/evaluate",
                                 trace_id=trace_id):
                    with tracer.span("serve.flight"):
                        record, served, batch = self.queue.submit(key, config)
        except BatchTimeout as exc:
            raise SchemaError("batch-timeout", str(exc), status=503) from exc
        self.stage_latency.record("evaluate",
                                  time.perf_counter_ns() - validated)
        doc: Dict[str, object] = {
            "schema": EVALUATE_SCHEMA,
            "trace_id": trace_id,
            "key": key,
            "cache": served,
            "record": record,
            "batch": batch,
        }
        if request["trace"]:
            doc["trace"] = {"spans": to_trace_events(tracer)["traceEvents"]}
        return 200, doc

    def handle_sweep(self, body: object) -> Tuple[int, Dict[str, object]]:
        request = validate_sweep_request(body)
        job = self.jobs.submit(
            "sweep", request, self.next_trace_id(),
            lambda j: _run_sweep_job(self, j))
        return 202, self._job_doc(job.id)

    def handle_experiment(self, body: object
                          ) -> Tuple[int, Dict[str, object]]:
        request = validate_experiment_request(body)
        job = self.jobs.submit(
            "experiment", request, self.next_trace_id(),
            lambda j: _run_experiment_job(self, j))
        return 202, self._job_doc(job.id)

    def handle_job_get(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        return 200, self._job_doc(job_id)

    def handle_job_result(self, job_id: str
                          ) -> Tuple[int, Dict[str, object]]:
        snapshot = self.jobs.result_doc(job_id)
        if snapshot is None:
            raise SchemaError("not-found", f"no such job: {job_id}",
                              status=404)
        if snapshot["state"] == "done":
            return 200, {"schema": JOB_RESULT_SCHEMA, "id": job_id,
                         "result": snapshot["result"]}
        if snapshot["state"] == "failed":
            return 200, {"schema": JOB_RESULT_SCHEMA, "id": job_id,
                         "error": snapshot["error"]}
        raise SchemaError("not-finished",
                          f"job {job_id} is {snapshot['state']}; result "
                          "exists only for done/failed jobs", status=409)

    def handle_job_trace(self, job_id: str) -> Tuple[int, Dict[str, object]]:
        job = self._job(job_id)
        return 200, to_trace_events(job.tracer,
                                    process_name=f"repro-serve {job.id}")

    def handle_job_cancel(self, job_id: str
                          ) -> Tuple[int, Dict[str, object]]:
        outcome = self.jobs.cancel(job_id)
        if outcome is None:
            raise SchemaError("not-found", f"no such job: {job_id}",
                              status=404)
        if outcome != "cancelled":
            raise SchemaError("not-cancellable",
                              f"job {job_id} is {outcome}; only queued "
                              "jobs can be cancelled", status=409)
        return 200, {"schema": JOB_SCHEMA, "id": job_id, "state": "cancelled"}

    def _job_doc(self, job_id: str) -> Dict[str, object]:
        """A consistent job snapshot from the store, or a structured 404."""
        doc = self.jobs.doc(job_id)
        if doc is None:
            raise SchemaError("not-found", f"no such job: {job_id}",
                              status=404)
        return doc

    def _job(self, job_id: str) -> Job:
        """The live job — only for immutable fields (``tracer``, ``id``).

        Lifecycle state must come from :meth:`JobStore.doc` /
        :meth:`JobStore.result_doc`; reading it off the live object
        races (and R11 flags it).
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise SchemaError("not-found", f"no such job: {job_id}",
                              status=404)
        return job

    # ------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        self.queue.shutdown()
        self.jobs.shutdown(wait=False)


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
