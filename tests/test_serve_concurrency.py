"""Concurrency certification of ``repro.serve``.

Many clients hammer one live server (real threads, real sockets) and the
suite proves the single-flight story end to end:

* every client gets **its own correct result** — the record for exactly
  the config it posted, never a neighbor's;
* concurrent identical configs evaluate exactly once — a gate holds each
  flight's leader inside the engine until every request has joined, so
  the assertions never depend on thread timing;
* the counters stay mutually consistent under load;
* context-local tracers never cross-attach spans between interleaved
  requests (the regression test for the ``repro.obs`` contextvars fix).
"""

import json
import sys
import threading
import time

import pytest

from repro.dse import (SMOKE_SPEC, DiskCache, NullCache, config_key,
                       dumps_canonical, evaluate_config, frontier_doc,
                       normalize_config, run_sweep)
from repro import obs
from repro.obs import Tracer, use_tracer
from repro.serve import batching, build_sweep_spec

from tests.serve_utils import live_server

#: Enough clients to exceed the acceptance floor (>= 8) with headroom.
N_THREADS = 12


def _post_evaluate(client, cfg, out, index):
    status, doc, _ = client.post("/v1/evaluate", {"config": cfg})
    out[index] = (status, doc)


def _burst(client, configs):
    """Release one request per config simultaneously; returns responses."""
    out = [None] * len(configs)
    barrier = threading.Barrier(len(configs))

    def run(i, cfg):
        barrier.wait()
        _post_evaluate(client, cfg, out, i)

    threads = [threading.Thread(target=run, args=(i, cfg))
               for i, cfg in enumerate(configs)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert all(r is not None for r in out), "a client thread never returned"
    return out


@pytest.fixture()
def gate(monkeypatch):
    """Hold every flight's leader inside the engine until ``followers``
    requests have joined some flight; returns the engine calls made."""
    calls = []
    real = batching.evaluate_batch

    def arm(app, followers):
        def gated(keyed, **kwargs):
            calls.append([key for key, _ in keyed])
            deadline = time.monotonic() + 60
            while app.queue.stats()["coalesced"] < followers:
                assert time.monotonic() < deadline, "followers never came"
                time.sleep(0.001)
            return real(keyed, **kwargs)

        monkeypatch.setattr(batching, "evaluate_batch", gated)
        return calls

    return arm


class TestCoalescing:
    def test_identical_burst_evaluates_exactly_once(self, tmp_path, gate):
        cfg = SMOKE_SPEC.configs()[0]
        key = config_key(normalize_config(cfg))
        with live_server(tmp_path) as (app, client):
            calls = gate(app, followers=N_THREADS - 1)
            responses = _burst(client, [cfg] * N_THREADS)

            assert calls == [[key]]
            assert all(status == 200 for status, _ in responses)
            records = {dumps_canonical(doc["record"])
                       for _, doc in responses}
            assert records == {dumps_canonical(
                evaluate_config(normalize_config(cfg)))}
            for _, doc in responses:
                assert doc["cache"] == "miss"
                assert doc["batch"] == {"index": 1, "requests": N_THREADS,
                                        "unique": 1}
            assert app.queue.stats() == {
                "requests": N_THREADS, "batches": 1,
                "coalesced": N_THREADS - 1, "submit_timeout_s": 60.0}
            cache = app.cache.stats()
            assert cache["stored"] == cache["misses"] == 1
            assert cache["hits"] == 0

    def test_overlapping_clients_each_get_their_own_result(self, tmp_path,
                                                           gate):
        distinct = SMOKE_SPEC.configs()[:4]
        configs = [distinct[i % len(distinct)] for i in range(N_THREADS)]
        per_key = N_THREADS // len(distinct)
        with live_server(tmp_path) as (app, client):
            calls = gate(app, followers=N_THREADS - len(distinct))
            responses = _burst(client, configs)

            assert len(calls) == len(distinct)
            assert sorted(k for call in calls for k in call) == sorted(
                config_key(normalize_config(c)) for c in distinct)
            flights = {}
            for cfg, (status, doc) in zip(configs, responses):
                assert status == 200
                normalized = normalize_config(cfg)
                assert doc["key"] == config_key(normalized)
                assert doc["record"]["config"] == normalized
                assert dumps_canonical(doc["record"]) \
                    == dumps_canonical(evaluate_config(normalized))
                assert doc["batch"]["requests"] == per_key
                assert doc["batch"]["unique"] == 1
                flights.setdefault(doc["batch"]["index"], set()).add(
                    doc["key"])
            # One flight per distinct config, one config per flight.
            assert sorted(flights) == list(range(1, len(distinct) + 1))
            assert all(len(keys) == 1 for keys in flights.values())
            stats = app.queue.stats()
            assert stats["requests"] == N_THREADS
            assert stats["batches"] == len(distinct)
            assert stats["coalesced"] == N_THREADS - len(distinct)
            cache = app.cache.stats()
            assert cache["stored"] == cache["misses"] == len(distinct)

    def test_stress_keeps_counters_and_exactly_once(self, tmp_path):
        """More threads than cores and a tiny switch interval: a lost
        update to a flight or counter breaks one of the identities."""
        distinct = [normalize_config(c) for c in SMOKE_SPEC.configs()[:5]]
        keys = [config_key(c) for c in distinct]
        queue = batching.BatchingQueue(cache=DiskCache(tmp_path / "c"))
        threads_n, submits_n = 16, 25
        replies, errors = [], []

        def client(seed):
            try:
                for i in range(submits_n):
                    j = (seed * 7 + i) % len(distinct)
                    record, _, info = queue.submit(keys[j], distinct[j])
                    replies.append((keys[j], record["key"], info["index"],
                                    info["requests"]))
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        total = threads_n * submits_n
        assert len(replies) == total
        assert all(asked == got for asked, got, _, _ in replies)
        members = {}
        for _, _, index, requests in replies:
            members.setdefault(index, []).append(requests)
        # Each flight reports exactly the replies that carry its index.
        assert all(set(sizes) == {len(sizes)} for sizes in members.values())
        stats = queue.stats()
        assert stats["requests"] == total
        assert stats["batches"] == len(members)
        assert stats["coalesced"] == total - len(members)
        cache = queue.cache.stats()
        assert cache["stored"] == cache["misses"] == len(distinct)
        assert cache["hits"] == len(members) - len(distinct)

    def test_warm_burst_is_all_cache_hits(self, tmp_path):
        distinct = SMOKE_SPEC.configs()[:4]
        configs = [distinct[i % len(distinct)] for i in range(N_THREADS)]
        with live_server(tmp_path) as (app, client):
            _burst(client, configs)
            stored_cold = app.cache.stats()["stored"]
            responses = _burst(client, configs)
            assert all(doc["cache"] == "hit" for _, doc in responses)
            cache = app.cache.stats()
            assert cache["stored"] == stored_cold      # nothing re-evaluated
            assert cache["hits"] > 0

    def test_every_trace_id_is_unique(self, tmp_path):
        configs = SMOKE_SPEC.configs()[:1] * N_THREADS
        with live_server(tmp_path) as (app, client):
            responses = _burst(client, configs)
            trace_ids = [doc["trace_id"] for _, doc in responses]
            assert len(set(trace_ids)) == N_THREADS
            # Whether a request joined a flight or came after one closed
            # (a cache hit, the leader having stored first), a single
            # evaluation served them all.
            assert app.cache.stats()["stored"] == 1

    def test_batch_info_is_shared_and_consistent(self, tmp_path):
        distinct = SMOKE_SPEC.configs()[:3]
        configs = [distinct[i % len(distinct)] for i in range(9)]
        with live_server(tmp_path) as (app, client):
            responses = _burst(client, configs)
            by_batch = {}
            for _, doc in responses:
                by_batch.setdefault(doc["batch"]["index"], []).append(
                    doc["batch"])
            for infos in by_batch.values():
                # Every member of a flight sees the same final info, and
                # its member count is the number of replies carrying it.
                assert len({json.dumps(i, sort_keys=True)
                            for i in infos}) == 1
                assert infos[0]["requests"] == len(infos)
                assert infos[0]["unique"] == 1
            stats = app.queue.stats()
            assert stats["batches"] == len(by_batch)
            assert stats["coalesced"] == 9 - len(by_batch)


class TestConcurrentSweeps:
    def test_parallel_sweeps_each_equal_run_sweep(self, tmp_path):
        """Four sweeps at once, each on its own handler thread through
        one shared cache: every reply is ``run_sweep``'s."""
        request = {"preset": "smoke", "overrides": {"patterns": ["1:8"],
                                                    "bus_bits": [64]},
                   "records": True}
        direct = run_sweep(spec=build_sweep_spec(request), cache=NullCache())
        n = 4
        replies = [None] * n
        barrier = threading.Barrier(n)
        with live_server(tmp_path) as (app, client):
            def run(i):
                barrier.wait()
                replies[i] = client.post("/v1/sweep", request)

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert all(r is not None for r in replies), "a sweep never returned"
        assert len({doc["trace_id"] for _, doc, _ in replies}) == n
        for status, doc, _ in replies:
            assert status == 200
            assert dumps_canonical(doc["frontier"]) \
                == dumps_canonical(frontier_doc(direct))
            assert dumps_canonical(doc["records"]) \
                == dumps_canonical(direct["records"])


class TestTracerIsolation:
    """Regression tests for the context-local tracer fix in ``repro.obs``:
    interleaved spans on different threads must never cross-attach
    counters or parents."""

    def test_interleaved_spans_never_cross_attach(self):
        tracers = [Tracer(enabled=True), Tracer(enabled=True)]
        barrier = threading.Barrier(2)

        def run(i):
            with use_tracer(tracers[i]):
                barrier.wait()                 # both threads inside spans
                with obs.span(f"outer-{i}", thread=i) as outer:
                    outer.count(items=10 + i)
                    barrier.wait()             # interleave the inner spans
                    with obs.span(f"inner-{i}") as inner:
                        inner.count(items=1 + i)
                    barrier.wait()

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        for i, tracer in enumerate(tracers):
            spans = {s.name: s for s in tracer.finished_spans()}
            assert set(spans) == {f"outer-{i}", f"inner-{i}"}
            assert spans[f"outer-{i}"].counters == {"items": 10 + i}
            assert spans[f"inner-{i}"].counters == {"items": 1 + i}
            assert spans[f"inner-{i}"].parent == spans[f"outer-{i}"].index

    def test_context_tracer_does_not_leak_to_new_threads(self):
        """Threads started inside ``use_tracer`` fall back to the global
        tracer: contextvars do not propagate into new threads, which is
        exactly the isolation the threaded server relies on."""
        local = Tracer(enabled=True)
        seen = []

        def child():
            seen.append(obs.get_tracer())

        with use_tracer(local):
            assert obs.get_tracer() is local
            t = threading.Thread(target=child)
            t.start()
            t.join(timeout=10)
        assert obs.get_tracer() is obs.configure()
        assert seen == [obs.configure()]

    def test_server_request_spans_stay_off_the_global_tracer(self, tmp_path):
        obs.configure(enabled=True, reset=True)
        try:
            with live_server(tmp_path) as (app, client):
                configs = SMOKE_SPEC.configs()[:2] * 3
                responses = _burst(client, configs)
                traced = client.post(
                    "/v1/evaluate",
                    {"config": SMOKE_SPEC.configs()[0], "trace": True})[1]
            names = [s["name"] for s in traced["trace"]["spans"]]
            assert "serve.request" in names and "serve.flight" in names
            # A lone request leads its flight: the engine ran in its own
            # context, so the engine spans are on its request tracer.
            assert "dse.cache.lookup" in names
            # Nothing the server did landed on the process-global tracer.
            global_names = {s.name for s in
                            obs.configure().finished_spans()}
            assert not {n for n in global_names
                        if n.startswith(("serve.", "dse."))}
        finally:
            obs.configure(enabled=False, reset=True)
