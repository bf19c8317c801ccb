"""Schema certification of ``repro.serve``: pinned goldens + fuzz.

Two halves:

* **Goldens** — for every endpoint, the exact response document is
  pinned (volatile fields — metric floats, durations, filesystem paths,
  the queued/running submission race — are scrubbed to placeholders
  first).  Any change to a response shape must edit a golden here,
  which is the review hook the API versioning relies on.
* **Fuzz** — malformed bodies (truncated JSON, wrong types, unknown
  fields, oversized payloads, wrong verbs, bad paths) must each come
  back as a *structured* 4xx error document, never a traceback and
  never an HTML error page.
"""

import json
import threading

import pytest

import repro
from repro.dse.cache import DiskCache
from repro.serve import ERROR_SCHEMA, ServeApp

from tests.serve_utils import NOMINAL_CONFIG, Client, live_server, \
    wait_for_job

#: config_key(normalize_config(NOMINAL_CONFIG)) — content hashes are part
#: of the wire contract, so the golden pins the literal digest.
NOMINAL_KEY = \
    "8edb5e755f1615f9d26d82480ba5c75402d8db195e730cc68de95033a060cbc9"

#: A latency histogram nothing was recorded into: 21 bounded buckets
#: plus the overflow bucket.
EMPTY_HISTOGRAM = {"count": 0, "sum_us": 0, "buckets": [0] * 22}

NOMINAL_NORMALIZED = {"pattern": "1:8", "bus_bits": 128, "mram_rows": 1024,
                      "weight_bits": 8, "device": "nominal",
                      "workload": "paper"}


def scrub(doc):
    """Replace volatile leaves so goldens stay byte-stable."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key == "metrics" and isinstance(value, dict):
                out[key] = {k: "<float>" for k in sorted(value)}
            elif key in ("elapsed_ms",):
                out[key] = "<ms>"
            elif key == "root":
                out[key] = "<dir>"
            elif key == "state" and value in ("queued", "running"):
                out[key] = "<queued|running>"
            else:
                out[key] = scrub(value)
        return out
    if isinstance(doc, list):
        return [scrub(v) for v in doc]
    return doc


@pytest.fixture()
def app(tmp_path):
    app = ServeApp(cache=DiskCache(tmp_path / "cache"),
                   job_workers=1)
    yield app
    app.shutdown()


def dispatch(app, method, path, doc=None, raw=b""):
    if doc is not None:
        raw = json.dumps(doc).encode()
    return app.dispatch(method, path, raw)


class TestGoldenResponses:
    def test_health(self, app):
        status, doc = dispatch(app, "GET", "/v1/health")
        assert (status, doc) == (200, {
            "schema": "repro.serve/health/1",
            "ok": True,
            "version": repro.__version__,
        })

    def test_stats_fresh_server(self, app):
        status, doc = dispatch(app, "GET", "/v1/stats")
        assert status == 200
        assert scrub(doc) == {
            "schema": "repro.serve/stats/1",
            "cache": {"enabled": True, "refresh": False, "root": "<dir>",
                      "hits": 0, "misses": 0, "rejected": 0, "stored": 0},
            "batching": {"requests": 0, "batches": 0, "coalesced": 0,
                         "submit_timeout_s": 60.0},
            "jobs": {"queued": 0, "running": 0, "done": 0, "failed": 0,
                     "cancelled": 0, "max_jobs": 1024, "pruned": 0},
            "latency": {
                "bounds_us": [2 ** i for i in range(4, 25)],
                "endpoints": {path: EMPTY_HISTOGRAM for path in (
                    "/v1/evaluate", "/v1/sweep", "/v1/experiment",
                    "/v1/jobs", "/v1/jobs/<id>", "/v1/jobs/<id>/result",
                    "/v1/jobs/<id>/trace", "/v1/jobs/<id>/cancel",
                    "/v1/health", "/v1/stats", "other")},
                "evaluate_stages": {stage: EMPTY_HISTOGRAM for stage in (
                    "validate", "evaluate", "serialize")},
            },
        }

    def test_evaluate(self, app):
        status, doc = dispatch(app, "POST", "/v1/evaluate",
                               {"config": NOMINAL_CONFIG})
        assert status == 200
        assert scrub(doc) == {
            "schema": "repro.serve/evaluate/1",
            "trace_id": "req-000001",
            "key": NOMINAL_KEY,
            "cache": "miss",
            "record": {
                "schema": "repro.dse/record/1",
                "key": NOMINAL_KEY,
                "config": NOMINAL_NORMALIZED,
                "metrics": {"area_mm2": "<float>", "density": "<float>",
                            "inference_latency_s": "<float>",
                            "inference_power_mw": "<float>",
                            "training_edp_js": "<float>",
                            "training_latency_s": "<float>"},
            },
            "batch": {"index": 1, "requests": 1, "unique": 1},
        }

    def test_evaluate_error_record(self, app):
        status, doc = dispatch(
            app, "POST", "/v1/evaluate",
            {"config": dict(NOMINAL_CONFIG, pattern="9:4")})
        assert status == 200
        record = doc["record"]
        assert record["error"] == {
            "type": "ValueError",
            "message": "cannot parse N:M pattern from '9:4'",
        }
        assert "metrics" not in record

    def test_sweep_submission(self, app):
        # Occupy the single job worker so the submitted job is
        # deterministically still queued when the 202 doc is built.
        release = threading.Event()
        app.jobs.submit("block", {}, "req-x",
                        lambda job: release.wait(30) and {})
        status, doc = dispatch(app, "POST", "/v1/sweep",
                               {"preset": "smoke",
                                "overrides": {"patterns": ["1:8"],
                                              "bus_bits": [64]}})
        assert status == 202
        assert doc == {
            "schema": "repro.serve/job/1",
            "id": "job-000002",
            "kind": "sweep",
            "state": "queued",
            "trace_id": "req-000001",
            "request": {"preset": "smoke",
                        "overrides": {"patterns": ["1:8"],
                                      "bus_bits": [64]},
                        "records": False},
        }
        release.set()
        done = _wait(app, doc["id"])
        assert done["state"] == "done"

    def test_experiment_submission_and_result(self, app):
        release = threading.Event()
        app.jobs.submit("block", {}, "req-x",
                        lambda job: release.wait(30) and {})
        status, doc = dispatch(app, "POST", "/v1/experiment",
                               {"experiment": "table2"})
        assert status == 202
        assert doc == {
            "schema": "repro.serve/job/1",
            "id": "job-000002",
            "kind": "experiment",
            "state": "queued",
            "trace_id": "req-000001",
            "request": {"experiment": "table2"},
        }
        release.set()
        _wait(app, doc["id"])
        status, result = dispatch(app, "GET", "/v1/jobs/job-000002/result")
        assert status == 200
        assert result["schema"] == "repro.serve/job-result/1"
        assert result["id"] == "job-000002"
        assert result["result"]["experiment"] == "table2"

    def test_jobs_list_and_job_doc(self, app):
        dispatch(app, "POST", "/v1/experiment", {"experiment": "fig8"})
        _wait(app, "job-000001")
        status, doc = dispatch(app, "GET", "/v1/jobs")
        assert status == 200
        assert scrub(doc) == {
            "schema": "repro.serve/jobs/1",
            "jobs": [{
                "schema": "repro.serve/job/1",
                "id": "job-000001",
                "kind": "experiment",
                "state": "done",
                "trace_id": "req-000001",
                "request": {"experiment": "fig8"},
                "elapsed_ms": "<ms>",
            }],
        }
        status, single = dispatch(app, "GET", "/v1/jobs/job-000001")
        assert (status, single) == (200, doc["jobs"][0])

    def test_job_cancel(self, app):
        release = threading.Event()
        app.jobs.submit("block", {}, "req-x",
                        lambda job: release.wait(30) and {})
        status, doc = dispatch(app, "POST", "/v1/sweep",
                               {"preset": "smoke"})
        assert doc["state"] == "queued"      # the only worker is occupied
        status, doc = dispatch(app, "POST",
                               f"/v1/jobs/{doc['id']}/cancel")
        release.set()
        assert (status, doc) == (200, {
            "schema": "repro.serve/job/1",
            "id": "job-000002",
            "state": "cancelled",
        })

    def test_job_result_before_finish_is_409(self, app):
        started, release = threading.Event(), threading.Event()

        def runner(job):
            started.set()
            release.wait(30)
            return {}

        job = app.jobs.submit("block", {}, "req-x", runner)
        assert started.wait(10)
        status, doc = dispatch(app, "GET", f"/v1/jobs/{job.id}/result")
        release.set()
        assert (status, doc) == (409, {
            "schema": ERROR_SCHEMA,
            "error": {"code": "not-finished",
                      "message": "job job-000001 is running; result "
                                 "exists only for done/failed jobs"},
        })

    def test_job_trace_is_a_valid_chrome_trace(self, app):
        from repro.obs import validate_trace_events
        dispatch(app, "POST", "/v1/sweep",
                 {"preset": "smoke", "overrides": {"patterns": ["1:8"],
                                                   "bus_bits": [64]}})
        _wait(app, "job-000001")
        status, doc = dispatch(app, "GET", "/v1/jobs/job-000001/trace")
        assert status == 200
        assert validate_trace_events(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "serve.job.sweep" in names

    def test_not_found(self, app):
        status, doc = dispatch(app, "GET", "/v1/nope")
        assert (status, doc) == (404, {
            "schema": ERROR_SCHEMA,
            "error": {"code": "not-found",
                      "message": "no such endpoint: /v1/nope"},
        })

    def test_method_not_allowed(self, app):
        status, doc = dispatch(app, "GET", "/v1/evaluate")
        assert (status, doc) == (405, {
            "schema": ERROR_SCHEMA,
            "error": {"code": "method-not-allowed",
                      "message": "/v1/evaluate requires POST, got GET"},
        })

    def test_unknown_config_field(self, app):
        status, doc = dispatch(app, "POST", "/v1/evaluate",
                               {"config": dict(NOMINAL_CONFIG, zap=1)})
        assert (status, doc) == (400, {
            "schema": ERROR_SCHEMA,
            "error": {"code": "unknown-field",
                      "message": "unknown config field(s): zap (allowed: "
                                 "pattern, bus_bits, mram_rows, "
                                 "weight_bits, device, workload)",
                      "field": "zap"},
        })

    @pytest.mark.parametrize("workers", [0, 1, True, 999])
    def test_sweep_workers_is_an_unknown_field(self, app, workers):
        status, doc = dispatch(app, "POST", "/v1/sweep",
                               {"preset": "smoke", "workers": workers})
        assert (status, doc) == (400, {
            "schema": ERROR_SCHEMA,
            "error": {"code": "unknown-field",
                      "message": "unknown request field(s): workers "
                                 "(allowed: preset, overrides, records)",
                      "field": "workers"},
        })

    def test_oversized_body(self, tmp_path):
        app = ServeApp(cache=DiskCache(tmp_path / "c"),
                       max_body_bytes=64)
        try:
            status, doc = dispatch(app, "POST", "/v1/evaluate",
                                   raw=b"x" * 65)
            assert (status, doc) == (413, {
                "schema": ERROR_SCHEMA,
                "error": {"code": "too-large",
                          "message": "request body exceeds 64 bytes"},
            })
        finally:
            app.shutdown()


def _wait(app, job_id, timeout=120.0):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = app.jobs.doc(job_id)
        if doc is not None and doc["state"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


#: (method, path, raw body) -> every one must return a structured 4xx.
FUZZ_CASES = [
    ("POST", "/v1/evaluate", b""),
    ("POST", "/v1/evaluate", b'{"config": {'),
    ("POST", "/v1/evaluate", b"[1, 2, 3]"),
    ("POST", "/v1/evaluate", b"null"),
    ("POST", "/v1/evaluate", b"5"),
    ("POST", "/v1/evaluate", b'"a string"'),
    ("POST", "/v1/evaluate", b"\xff\xfe\x00not json"),
    ("POST", "/v1/evaluate", b'{"config": 5}'),
    ("POST", "/v1/evaluate", b'{"config": {"pattern": ["1:8"]}}'),
    ("POST", "/v1/evaluate",
     json.dumps({"config": NOMINAL_CONFIG, "trace": "yes"}).encode()),
    ("POST", "/v1/evaluate",
     json.dumps({"config": NOMINAL_CONFIG, "extra": 1}).encode()),
    ("POST", "/v1/sweep", b'{"preset": "huge"}'),
    ("POST", "/v1/sweep", b'{"preset": 5}'),
    ("POST", "/v1/sweep", b'{"overrides": {"patterns": []}}'),
    ("POST", "/v1/sweep", b'{"overrides": {"zap": [1]}}'),
    ("POST", "/v1/sweep", b'{"overrides": {"patterns": ["1:8", "1:8"]}}'),
    ("POST", "/v1/sweep", b'{"overrides": ["patterns"]}'),
    ("POST", "/v1/sweep", b'{"records": 1}'),
    ("POST", "/v1/experiment", b"{}"),
    ("POST", "/v1/experiment", b'{"experiment": "fig9"}'),
    ("POST", "/v1/experiment", b'{"experiment": 3}'),
    ("POST", "/v1/experiment", b'{"experiment": "table2", "x": 1}'),
    ("GET", "/v1/jobs/job-999999", b""),
    ("GET", "/v1/jobs/job-999999/result", b""),
    ("GET", "/v1/jobs/job-999999/trace", b""),
    ("POST", "/v1/jobs/job-999999/cancel", b""),
    ("POST", "/v1/jobs", b"{}"),
    ("GET", "/", b""),
    ("GET", "/v2/evaluate", b""),
    ("PUT", "/v1/evaluate", b"{}"),
    ("DELETE", "/v1/jobs/job-000001", b""),
]


class TestFuzz:
    @pytest.mark.parametrize("method, path, raw", FUZZ_CASES)
    def test_malformed_requests_get_structured_4xx(self, app, method,
                                                   path, raw):
        status, doc = app.dispatch(method, path, raw)
        assert 400 <= status < 500, (status, doc)
        assert doc["schema"] == ERROR_SCHEMA
        assert set(doc["error"]) <= {"code", "message", "field"}
        assert "Traceback" not in doc["error"]["message"]
        assert doc["error"]["code"] != "internal"

    def test_fuzz_cases_over_live_http(self, tmp_path):
        """The wire path agrees with dispatch: same statuses, JSON bodies
        (never the html error page), for a sample of the fuzz corpus."""
        with live_server(tmp_path) as (app, client):
            for method, path, raw in FUZZ_CASES[:12] + FUZZ_CASES[-2:]:
                status, doc, headers = client.request(
                    method, path, raw=raw or b" ")
                assert 400 <= status < 500, (method, path, status)
                assert headers["Content-Type"] == "application/json"
                assert doc["schema"] == ERROR_SCHEMA

    def test_oversized_body_over_live_http(self, tmp_path):
        with live_server(tmp_path,
                         max_body_bytes=1024) as (app, client):
            status, doc, _ = client.post("/v1/evaluate",
                                         raw=b"x" * 4096)
            assert status == 413
            assert doc["error"]["code"] == "too-large"
            # The server survives the refused body: next request works.
            status, doc, _ = client.get("/v1/health")
            assert status == 200 and doc["ok"] is True

    def test_path_quirks_resolve_like_the_canonical_path(self, app):
        assert dispatch(app, "GET", "/v1/health/")[0] == 200
        assert dispatch(app, "GET", "/v1/health?probe=1")[0] == 200
        assert dispatch(app, "GET", "//v1//health")[0] == 200


class TestLatencyHistograms:
    def test_bucket_bounds_are_inclusive_log2_microseconds(self):
        from repro.serve.api import BOUNDS_US, bucket_index
        assert bucket_index(0) == 0
        assert bucket_index(16_000) == 0            # exactly 16 µs
        assert bucket_index(16_001) == 1            # just over
        assert bucket_index(32_000) == 1
        assert bucket_index(1_000_000) == BOUNDS_US.index(1024)
        assert bucket_index(BOUNDS_US[-1] * 1000) == len(BOUNDS_US) - 1
        assert bucket_index(BOUNDS_US[-1] * 1000 + 1) == len(BOUNDS_US)

    def test_bucket_counts_sum_to_the_requests_per_endpoint(self, tmp_path):
        n = 7
        with live_server(tmp_path) as (app, client):
            for i in range(n):
                cfg = dict(NOMINAL_CONFIG, bus_bits=(64, 128)[i % 2])
                assert client.post("/v1/evaluate", {"config": cfg})[0] \
                    == 200
                assert client.get("/v1/health")[0] == 200
            assert client.get("/v1/nope")[0] == 404
            assert client.get("/v1/jobs/job-000042")[0] == 404
            status, stats, _ = client.get("/v1/stats")
            assert status == 200
            latency = stats["latency"]
            expected = {"/v1/evaluate": n, "/v1/health": n, "other": 1,
                        "/v1/jobs/<id>": 1}
            for endpoint, histogram in latency["endpoints"].items():
                assert histogram["count"] == expected.get(endpoint, 0)
                assert sum(histogram["buckets"]) == histogram["count"]
                assert len(histogram["buckets"]) \
                    == len(latency["bounds_us"]) + 1
            for stage in ("validate", "evaluate", "serialize"):
                histogram = latency["evaluate_stages"][stage]
                assert sum(histogram["buckets"]) == n
            # The stats request itself lands once its reply is encoded.
            stats = client.get("/v1/stats")[1]
            assert stats["latency"]["endpoints"]["/v1/stats"]["count"] == 1
            # The histograms sit beside the existing counters.
            assert stats["batching"]["requests"] == n
            assert stats["cache"]["misses"] == 2
