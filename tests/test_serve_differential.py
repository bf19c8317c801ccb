"""Differential certification of ``repro.serve``: served == direct.

The service's core claim (ISSUE: acceptance criterion) is that putting
HTTP, a batching queue, and a worker pool between the client and the
evaluator changes *nothing* about the bytes: every ``POST /v1/evaluate``
response embeds a record canonically identical to what the direct
library call produces — cold, cache-warm, and for invalid configs
(error records).  Sweeps submitted over HTTP must serialize to the same
frontier document as ``run_sweep`` called in-process.

All comparisons go through ``dumps_canonical`` *after* a real JSON
round-trip over the wire, so float formatting is part of the contract.
"""

import json

import pytest

from repro.dse import (SMOKE_SPEC, config_key, dumps_canonical,
                       evaluate_batch, evaluate_config, frontier_doc,
                       normalize_config, run_sweep)
from repro.dse.cache import DiskCache, NullCache
from repro.serve import build_sweep_spec

from tests.serve_utils import NOMINAL_CONFIG, live_server, wait_for_job

#: Deterministic sample: every config in the smoke sweep (8 points).
SAMPLE_CONFIGS = SMOKE_SPEC.configs()

#: Configs that normalize fine but fail evaluation -> error records.
VALUE_INVALID_CONFIGS = [
    dict(NOMINAL_CONFIG, pattern="9:4"),
    dict(NOMINAL_CONFIG, device="underwater"),
    dict(NOMINAL_CONFIG, mram_rows=0),
    dict(NOMINAL_CONFIG, weight_bits=99),
]


def canon(doc):
    """Canonical JSON of a document that already crossed the wire."""
    return dumps_canonical(doc)


class TestEvaluateDifferential:
    def test_cold_responses_match_direct_evaluate(self, tmp_path):
        with live_server(tmp_path) as (app, client):
            for cfg in SAMPLE_CONFIGS:
                status, doc, headers = client.post("/v1/evaluate",
                                                   {"config": cfg})
                assert status == 200
                assert doc["cache"] == "miss"
                direct = evaluate_config(normalize_config(cfg))
                assert canon(doc["record"]) == canon(direct)
                assert doc["key"] == config_key(normalize_config(cfg))
                assert headers["X-Repro-Trace-Id"] == doc["trace_id"]

    def test_warm_responses_are_cache_hits_with_identical_bytes(
            self, tmp_path):
        with live_server(tmp_path) as (app, client):
            cold = {}
            for cfg in SAMPLE_CONFIGS:
                _, doc, _ = client.post("/v1/evaluate", {"config": cfg})
                cold[doc["key"]] = canon(doc["record"])
            for cfg in SAMPLE_CONFIGS:
                status, doc, _ = client.post("/v1/evaluate", {"config": cfg})
                assert status == 200
                assert doc["cache"] == "hit"
                assert canon(doc["record"]) == cold[doc["key"]]

    def test_http_and_library_share_one_cache(self, tmp_path):
        """A config evaluated over HTTP is a warm hit for the library,
        and vice versa — same content-hash key, same cache bytes.  The
        library side is the path the server wraps, without ``repro.serve``:
        normalize, hash, one cache-through ``evaluate_batch`` call."""
        cache = DiskCache(tmp_path / "shared_cache")
        with live_server(cache=cache) as (app, client):
            via_http = SAMPLE_CONFIGS[0]
            via_lib = SAMPLE_CONFIGS[1]
            _, doc, _ = client.post("/v1/evaluate", {"config": via_http})
            assert doc["cache"] == "miss"
            http_cfg = normalize_config(via_http)
            http_key = config_key(http_cfg)
            records, served = evaluate_batch([(http_key, http_cfg)],
                                             cache=cache)
            assert served[http_key] == "hit"
            assert canon(records[http_key]) == canon(doc["record"])

            lib_cfg = normalize_config(via_lib)
            lib_key = config_key(lib_cfg)
            records, served = evaluate_batch([(lib_key, lib_cfg)],
                                             cache=cache)
            assert served[lib_key] == "miss"
            _, doc, _ = client.post("/v1/evaluate", {"config": via_lib})
            assert doc["cache"] == "hit"
            assert canon(doc["record"]) == canon(records[lib_key])

    @pytest.mark.parametrize("bad", VALUE_INVALID_CONFIGS,
                             ids=["pattern", "device", "rows", "bits"])
    def test_error_records_match_direct_error_records(self, tmp_path, bad):
        """Value-invalid configs come back 200 with the *same* error
        record a sweep would produce — shape, type, and message."""
        with live_server(tmp_path) as (app, client):
            status, doc, _ = client.post("/v1/evaluate", {"config": bad})
            assert status == 200
            assert "error" in doc["record"]
            cfg = normalize_config(bad)
            records, _ = evaluate_batch([(config_key(cfg), cfg)],
                                        cache=NullCache())
            direct = records[config_key(cfg)]
            assert canon(doc["record"]) == canon(direct)

    def test_error_records_are_never_cached(self, tmp_path):
        with live_server(tmp_path) as (app, client):
            bad = VALUE_INVALID_CONFIGS[0]
            for _ in range(2):
                _, doc, _ = client.post("/v1/evaluate", {"config": bad})
                assert doc["cache"] == "miss"
            assert app.cache.stats()["stored"] == 0

    @pytest.mark.parametrize("shape_bad, code", [
        ({"config": dict(NOMINAL_CONFIG, zap=1)}, "unknown-field"),
        ({"config": {"pattern": "1:8"}}, "bad-config"),
        ({"config": dict(NOMINAL_CONFIG, bus_bits="wide")}, "bad-config"),
        ({}, "bad-request"),
    ], ids=["unknown-key", "missing-keys", "uncoercible", "no-config"])
    def test_shape_invalid_configs_are_schema_errors(self, tmp_path,
                                                     shape_bad, code):
        """Exactly the configs ``normalize_config`` refuses (so the library
        path raises before hashing or evaluating) are 4xx at the schema
        layer."""
        with live_server(tmp_path) as (app, client):
            status, doc, _ = client.post("/v1/evaluate", shape_bad)
            assert status == 400
            assert doc["error"]["code"] == code
            if shape_bad.get("config") and code != "unknown-field":
                with pytest.raises(ValueError):
                    normalize_config(shape_bad["config"])


class TestSweepDifferential:
    SWEEP_REQUEST = {"preset": "smoke",
                     "overrides": {"patterns": ["1:8", "2:8"],
                                   "bus_bits": [64]}}

    def test_sweep_job_frontier_matches_run_sweep(self, tmp_path):
        with live_server(tmp_path) as (app, client):
            status, job, _ = client.post("/v1/sweep", self.SWEEP_REQUEST)
            assert status == 202
            done = wait_for_job(client, job["id"])
            assert done["state"] == "done", done.get("error")
            status, result, _ = client.get(f"/v1/jobs/{job['id']}/result")
            assert status == 200

            spec = build_sweep_spec(self.SWEEP_REQUEST)
            direct = run_sweep(spec=spec,
                               cache=DiskCache(tmp_path / "direct_cache"))
            assert canon(result["result"]["frontier"]) \
                == canon(frontier_doc(direct))
            assert result["result"]["configs"] == direct["configs"]

    def test_sweep_records_match_direct_records(self, tmp_path):
        request = dict(self.SWEEP_REQUEST, records=True)
        with live_server(tmp_path) as (app, client):
            _, job, _ = client.post("/v1/sweep", request)
            done = wait_for_job(client, job["id"])
            assert done["state"] == "done", done.get("error")
            _, result, _ = client.get(f"/v1/jobs/{job['id']}/result")

            spec = build_sweep_spec(request)
            direct = run_sweep(spec=spec, cache=NullCache())
            assert canon(result["result"]["records"]) \
                == canon(direct["records"])

    def test_wire_json_round_trip_is_lossless(self, tmp_path):
        """The float-fidelity backstop: parsing the exact wire payload
        and re-canonicalizing must reproduce the library's canonical
        JSON (shortest-repr floats survive json round-trips)."""
        with live_server(tmp_path) as (app, client):
            _, doc, _ = client.post("/v1/evaluate",
                                    {"config": NOMINAL_CONFIG})
            direct = evaluate_config(normalize_config(NOMINAL_CONFIG))
            rewired = json.loads(json.dumps(doc["record"]))
            assert canon(rewired) == canon(direct)
            metrics = doc["record"]["metrics"]
            assert metrics == direct["metrics"]
