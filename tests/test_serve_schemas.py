"""Schema certification of ``repro.serve``: pinned goldens + fuzz.

Two halves:

* **Goldens** — for every endpoint, the exact response document is
  pinned (volatile fields — metric floats, filesystem paths — are
  scrubbed to placeholders first).  Any change to a response shape must
  edit a golden here, which is the review hook the API versioning
  relies on.
* **Fuzz** — malformed bodies (truncated JSON, wrong types, unknown
  fields, oversized payloads, wrong verbs, bad paths) must each come
  back as a *structured* 4xx error document, never a traceback and
  never an HTML error page.
"""

import json

import pytest

import repro
from repro.dse.cache import DiskCache
from repro.dse.spec import FULL_SPEC, SweepSpec
from repro.harness.table2 import build_table2
from repro.obs import validate_trace_events
from repro.serve import ERROR_SCHEMA, ServeApp, api
from repro.serve.schemas import MAX_SWEEP_CONFIGS, validate_sweep_request

from tests.serve_utils import NOMINAL_CONFIG, live_server

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

#: The one-config sweep the sweep goldens post, and its content hash.
ONE_CONFIG_SWEEP = {"preset": "smoke",
                    "overrides": {"patterns": ["1:8"], "bus_bits": [64]}}
ONE_CONFIG_KEY = \
    "c0fe3fa55ab60b070cd24702dfe5a74530c44f5f8f1bcbdd812f83119c248270"

SCRUBBED_METRICS = {"area_mm2": "<float>", "density": "<float>",
                    "inference_latency_s": "<float>",
                    "inference_power_mw": "<float>",
                    "training_edp_js": "<float>",
                    "training_latency_s": "<float>"}


def scrub(doc):
    """Replace volatile leaves so goldens stay byte-stable."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key == "metrics" and isinstance(value, dict):
                out[key] = {k: "<float>" for k in sorted(value)}
            elif key == "root":
                out[key] = "<dir>"
            else:
                out[key] = scrub(value)
        return out
    if isinstance(doc, list):
        return [scrub(v) for v in doc]
    return doc


@pytest.fixture()
def app(tmp_path):
    app = ServeApp(cache=DiskCache(tmp_path / "cache"))
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
            "cache": {"enabled": True, "root": "<dir>",
                      "hits": 0, "misses": 0, "rejected": 0, "stored": 0},
            "batching": {"requests": 0, "batches": 0, "coalesced": 0,
                         "submit_timeout_s": 60.0},
            "latency": {
                "bounds_us": [2 ** i for i in range(4, 25)],
                "endpoints": {path: EMPTY_HISTOGRAM for path in (
                    "/v1/evaluate", "/v1/sweep", "/v1/experiment",
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
                "metrics": SCRUBBED_METRICS,
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

    def test_sweep(self, app):
        status, doc = dispatch(app, "POST", "/v1/sweep", ONE_CONFIG_SWEEP)
        assert status == 200
        assert scrub(doc) == {
            "schema": "repro.serve/sweep/1",
            "trace_id": "req-000001",
            "configs": 1,
            "errors": 0,
            "frontier": {
                "schema": "repro.dse/frontier/1",
                "objectives": ["area_mm2", "inference_power_mw",
                               "training_edp_js", "density"],
                "configs": 1,
                "frontier": [{
                    "schema": "repro.dse/record/1",
                    "key": ONE_CONFIG_KEY,
                    "config": dict(NOMINAL_NORMALIZED, bus_bits=64),
                    "metrics": SCRUBBED_METRICS,
                }],
            },
        }

    def test_experiment(self, app):
        status, doc = dispatch(app, "POST", "/v1/experiment",
                               {"experiment": "table2"})
        assert (status, doc) == (200, {
            "schema": "repro.serve/experiment/1",
            "trace_id": "req-000001",
            "experiment": "table2",
            "result": build_table2(),
        })

    @pytest.mark.parametrize("path, body, span", [
        ("/v1/sweep", ONE_CONFIG_SWEEP, "dse.sweep"),
        ("/v1/experiment", {"experiment": "fig8"}, "fig8.build"),
    ], ids=["sweep", "experiment"])
    def test_trace_comes_back_inline(self, app, path, body, span):
        status, doc = dispatch(app, "POST", path, dict(body, trace=True))
        assert status == 200
        events = {"traceEvents": doc["trace"]["spans"]}
        assert validate_trace_events(events) == []
        request = [e for e in events["traceEvents"]
                   if e["name"] == "serve.request"]
        assert [e["args"] for e in request] == [
            {"endpoint": path, "trace_id": doc["trace_id"]}]
        assert span in {e["name"] for e in events["traceEvents"]}
        assert "trace" not in dispatch(app, "POST", path, body)[1]

    def test_raising_sweep_is_a_structured_500(self, app, monkeypatch):
        def explode(**kwargs):
            raise ValueError("engine exploded")

        monkeypatch.setattr(api, "run_sweep", explode)
        status, doc = dispatch(app, "POST", "/v1/sweep", ONE_CONFIG_SWEEP)
        assert (status, doc) == (500, {
            "schema": ERROR_SCHEMA,
            "error": {"code": "internal",
                      "message": "ValueError: engine exploded"},
        })

    def test_raising_experiment_is_a_structured_500(self, app, monkeypatch):
        def explode(name):
            raise KeyError(name)

        monkeypatch.setattr(api, "_build_experiment", explode)
        status, doc = dispatch(app, "POST", "/v1/experiment",
                               {"experiment": "fig7"})
        assert (status, doc) == (500, {
            "schema": ERROR_SCHEMA,
            "error": {"code": "internal", "message": "KeyError: 'fig7'"},
        })

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
                                 "(allowed: preset, overrides, records, "
                                 "trace)",
                      "field": "workers"},
        })

    def test_sweep_over_the_config_bound_is_refused(self, app, monkeypatch):
        def never(self):
            raise AssertionError("an over-bound sweep was enumerated")

        monkeypatch.setattr(SweepSpec, "enumerate", never)
        monkeypatch.setattr(SweepSpec, "keyed", never)
        # 4 patterns x 2000 bus widths x 2000 row counts: 16e6 configs in
        # a body of about 20 KiB.
        body = {"preset": "smoke",
                "overrides": {"bus_bits": list(range(8, 2008)),
                              "mram_rows": list(range(1, 2001))}}
        status, doc = dispatch(app, "POST", "/v1/sweep", body)
        assert (status, doc) == (400, {
            "schema": ERROR_SCHEMA,
            "error": {"code": "bad-config",
                      "message": "sweep names 16000000 configs; a request "
                                 f"may name at most {MAX_SWEEP_CONFIGS}",
                      "field": "overrides"},
        })

    def test_full_preset_is_within_the_config_bound(self):
        assert FULL_SPEC.size <= MAX_SWEEP_CONFIGS
        assert validate_sweep_request({"preset": "full"})["spec"] == FULL_SPEC

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
    ("POST", "/v1/sweep", b'{"trace": "yes"}'),
    ("POST", "/v1/experiment", b"{}"),
    ("POST", "/v1/experiment", b'{"experiment": "fig9"}'),
    ("POST", "/v1/experiment", b'{"experiment": 3}'),
    ("POST", "/v1/experiment", b'{"experiment": "table2", "x": 1}'),
    ("POST", "/v1/experiment", b'{"experiment": "table2", "trace": 1}'),
    # The retired job routes are unknown paths: each verb and sub-path.
    ("GET", "/v1/jobs/job-999999", b""),
    ("GET", "/v1/jobs/job-999999/result", b""),
    ("GET", "/v1/jobs/job-999999/trace", b""),
    ("POST", "/v1/jobs/job-999999/cancel", b""),
    ("POST", "/v1/jobs", b"{}"),
    ("GET", "/v1/jobs", b""),
    ("GET", "/v1/jobs/job-000001/result", b""),
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
            expected = {"/v1/evaluate": n, "/v1/health": n, "other": 2}
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
