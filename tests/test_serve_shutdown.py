"""Shutdown races, the bounded job registry, and the submit timeout.

The concurrency verifier (rules R11-R14) proves the lock discipline
statically; these tests drive the *dynamic* half of the contract:

* ``BatchingQueue.shutdown`` racing concurrent submits — every submit
  thread returns (a record, or a clean structured error), never hangs;
  shutdown is idempotent, refuses later submits, and lets open flights
  land;
* a flight's leader failing — a wedged leader surfaces to its followers
  as ``BatchTimeout`` (a structured 503 through the API), a raising one
  releases every follower with a structured 500;
* ``JobStore.shutdown`` after queued-then-cancelled jobs — cancelled
  jobs stay cancelled, the executor drains;
* the registry cap — oldest *terminal* jobs pruned at submission, live
  jobs never evicted, the ``pruned`` counter and ``/v1/stats`` exposure.
"""

import json
import threading
import time

import pytest

from repro.dse import SMOKE_SPEC
from repro.dse.cache import NullCache
from repro.serve import batching
from repro.serve.api import ServeApp
from repro.serve.batching import BatchingQueue, BatchTimeout
from repro.serve.jobs import JobStore


def _config():
    return SMOKE_SPEC.configs()[0]


def _key_of(cfg):
    from repro.dse import config_key, normalize_config
    return config_key(normalize_config(cfg))


EVALUATE_BODY = json.dumps({"config": _config()}).encode("utf-8")


def _in_threads(fn, n):
    """Run ``fn(i)`` on ``n`` threads; returns the threads, started."""
    threads = [threading.Thread(target=fn, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    return threads


def _join_all(threads):
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), \
        "a submit thread is stranded"


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


@pytest.fixture()
def held_engine(monkeypatch):
    """Replace the engine call with one that parks until ``release`` is
    set, then runs ``outcome`` (the real engine call by default)."""
    state = {"entered": threading.Event(), "release": threading.Event(),
             "outcome": batching.evaluate_batch, "calls": 0}

    def held(keyed, **kwargs):
        state["calls"] += 1
        state["entered"].set()
        state["release"].wait(timeout=60)
        return state["outcome"](keyed, **kwargs)

    monkeypatch.setattr(batching, "evaluate_batch", held)
    yield state
    state["release"].set()


class TestBatchingShutdownRace:
    def test_shutdown_racing_submits_never_hangs(self):
        """Submits racing shutdown either complete or fail cleanly."""
        queue = BatchingQueue(cache=NullCache(), submit_timeout_s=30.0)
        cfg = _config()
        key = _key_of(cfg)
        n = 8
        barrier = threading.Barrier(n + 1)
        outcomes = [None] * n

        def client(i):
            barrier.wait()
            try:
                record, served, _ = queue.submit(key, dict(cfg))
                outcomes[i] = ("ok", record["key"])
            except RuntimeError as exc:      # includes BatchTimeout
                outcomes[i] = ("error", str(exc))

        threads = _in_threads(client, n)
        barrier.wait()
        queue.shutdown()
        _join_all(threads)
        assert all(o is not None for o in outcomes)
        for kind, detail in outcomes:
            if kind == "ok":
                assert detail == key
            else:
                assert "shut down" in detail

    def test_submits_after_shutdown_fail_immediately(self):
        queue = BatchingQueue(cache=NullCache())
        queue.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            queue.submit(_key_of(_config()), dict(_config()))
        assert queue.stats()["requests"] == 0

    def test_shutdown_is_idempotent(self):
        queue = BatchingQueue(cache=NullCache())
        queue.shutdown()
        queue.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            queue.submit(_key_of(_config()), dict(_config()))

    def test_open_flights_land_after_shutdown(self, held_engine):
        queue = BatchingQueue(cache=NullCache())
        key, outcomes = _key_of(_config()), [None, None]

        def client(i):
            outcomes[i] = queue.submit(key, dict(_config()))

        leader = _in_threads(client, 1)
        assert held_engine["entered"].wait(timeout=30)
        follower = _in_threads(lambda i: client(1), 1)
        _wait_until(lambda: queue.stats()["coalesced"] == 1)
        queue.shutdown()
        held_engine["release"].set()
        _join_all(leader + follower)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0]["key"] == key
        assert outcomes[0][2]["requests"] == 2


class TestSubmitTimeout:
    def test_wedged_leader_surfaces_as_batch_timeout(self, held_engine):
        queue = BatchingQueue(cache=NullCache(), submit_timeout_s=0.05)
        key = _key_of(_config())
        leader = _in_threads(
            lambda i: queue.submit(key, dict(_config())), 1)
        assert held_engine["entered"].wait(timeout=30)
        started = time.monotonic()
        with pytest.raises(BatchTimeout, match="within"):
            queue.submit(key, dict(_config()))
        assert time.monotonic() - started < 10.0
        held_engine["release"].set()
        _join_all(leader)
        assert held_engine["calls"] == 1

    def test_timeout_is_a_structured_503_through_the_api(self, held_engine):
        app = ServeApp(cache=NullCache())
        try:
            app.queue.submit_timeout_s = 0.05
            replies = [None]

            def lead(i):
                replies[0] = app.dispatch("POST", "/v1/evaluate",
                                          EVALUATE_BODY)

            leader = _in_threads(lead, 1)
            assert held_engine["entered"].wait(timeout=30)
            status, doc = app.dispatch("POST", "/v1/evaluate",
                                       EVALUATE_BODY)
            assert status == 503
            assert doc["error"]["code"] == "batch-timeout"
            held_engine["release"].set()
            _join_all(leader)
            assert replies[0][0] == 200
        finally:
            app.shutdown()

    def test_stats_expose_the_timeout(self):
        queue = BatchingQueue(cache=NullCache(), submit_timeout_s=7.5)
        assert queue.stats()["submit_timeout_s"] == 7.5


class TestLeaderFailure:
    def test_raising_leader_releases_every_follower_with_a_500(
            self, held_engine):
        def explode(keyed, **kwargs):
            raise ValueError("engine exploded")

        real, held_engine["outcome"] = held_engine["outcome"], explode
        app = ServeApp(cache=NullCache())
        n = 6
        replies = [None] * n
        try:
            def client(i):
                replies[i] = app.dispatch("POST", "/v1/evaluate",
                                          EVALUATE_BODY)

            threads = _in_threads(client, n)
            _wait_until(lambda: app.queue.stats()["coalesced"] == n - 1)
            held_engine["release"].set()
            _join_all(threads)
            assert held_engine["calls"] == 1
            for status, doc in replies:
                assert status == 500
                assert doc["error"] == {
                    "code": "internal",
                    "message": "RuntimeError: batch evaluation failed: "
                               "ValueError: engine exploded"}
            # The failed flight closed: the next request leads a new one.
            held_engine["outcome"] = real
            status, doc = app.dispatch("POST", "/v1/evaluate",
                                       EVALUATE_BODY)
            assert status == 200
            assert doc["batch"] == {"index": 2, "requests": 1, "unique": 1}
        finally:
            app.shutdown()


class TestJobStoreShutdown:
    def test_queued_then_cancelled_jobs_shut_down_clean(self):
        store = JobStore(workers=1)
        release = threading.Event()
        blocker = store.submit("block", {}, "req-0",
                               lambda job: release.wait(30) and {})
        queued = store.submit("later", {}, "req-1", lambda job: {})
        assert store.cancel(queued.id) == "cancelled"
        release.set()
        store.shutdown(wait=True)
        assert store.doc(queued.id)["state"] == "cancelled"
        assert store.doc(blocker.id)["state"] == "done"
        # A cancel that lands first always wins: the runner never ran it.
        assert store.result_doc(queued.id)["result"] is None

    def test_cancel_outcomes(self):
        store = JobStore(workers=1)
        try:
            release = threading.Event()
            job = store.submit("block", {}, "req-0",
                               lambda j: release.wait(30) and {})
            deadline = time.monotonic() + 30
            while store.doc(job.id)["state"] != "running" \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert store.cancel(job.id) == "running"
            assert store.cancel("job-999999") is None
            release.set()
        finally:
            store.shutdown(wait=True)


class TestBoundedRegistry:
    def test_oldest_terminal_jobs_pruned_beyond_cap(self):
        store = JobStore(workers=1, max_jobs=3)
        try:
            for i in range(5):
                job = store.submit(f"j{i}", {}, f"req-{i}", lambda j: {})
                deadline = time.monotonic() + 30
                while store.doc(job.id) is not None \
                        and store.doc(job.id)["state"] != "done" \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
            counts = store.counts()
            assert counts["max_jobs"] == 3
            assert counts["pruned"] == 2
            jobs = store.list_doc()["jobs"]
            assert len(jobs) == 3
            # Oldest evicted first; the newest three survive.
            assert [j["id"] for j in jobs] == ["job-000003", "job-000004",
                                               "job-000005"]
        finally:
            store.shutdown(wait=True)

    def test_live_jobs_are_never_evicted(self):
        store = JobStore(workers=1, max_jobs=1)
        release = threading.Event()
        try:
            running = store.submit("block", {}, "req-0",
                                   lambda j: release.wait(30) and {})
            queued = store.submit("queued", {}, "req-1", lambda j: {})
            # Both are live (running + queued): over cap, nothing evictable.
            ids = [j["id"] for j in store.list_doc()["jobs"]]
            assert ids == [running.id, queued.id]
            release.set()
        finally:
            release.set()
            store.shutdown(wait=True)

    def test_cap_exposed_in_stats_endpoint(self):
        app = ServeApp(cache=NullCache(), max_jobs=17)
        try:
            status, doc = app.dispatch("GET", "/v1/stats")
            assert status == 200
            assert doc["jobs"]["max_jobs"] == 17
            assert doc["jobs"]["pruned"] == 0
        finally:
            app.shutdown()
