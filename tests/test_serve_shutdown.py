"""Shutdown races, leader failures, and the submit timeout.

The concurrency verifier (rules R11-R14) proves the lock discipline
statically; these tests drive the *dynamic* half of the contract:

* ``BatchingQueue.shutdown`` racing concurrent submits — every submit
  thread returns (a record, or a clean structured error), never hangs;
  shutdown is idempotent, refuses later submits, and lets open flights
  land;
* a flight's leader failing — a wedged leader surfaces to its followers
  as ``BatchTimeout`` (a structured 503 through the API), a raising one
  releases every follower with a structured 500.
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

