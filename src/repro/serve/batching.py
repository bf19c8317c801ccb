"""Per-key single-flight evaluation behind ``POST /v1/evaluate``.

Each request evaluates inline, in its own request-handler thread: there
is no window, no queue and no worker thread.  The first request for a
content-hash key opens a *flight* and becomes its leader; it runs one
cache-through engine call (:func:`repro.dse.engine.evaluate_batch`) with
no lock held.  Every request for the same key that arrives while the
flight is open joins it as a follower, parks on the flight's event, and
gets the leader's record.  So concurrent identical configs evaluate
exactly once, and — the leader storing before it closes the flight — a
burst stores exactly one cache record per distinct config.

Correctness model: the per-point evaluator is a pure function of the
config (certified by lint rule R8) and the engine's cache is
content-hashed, so *who* evaluates a request — its own thread, another
request's leader, or the cache — cannot change its bytes;
``tests/test_serve_differential.py`` and ``tests/test_serve_concurrency.py``
pin both halves of that claim.

The leader runs the engine call in its own request context, so with
``"trace": true`` the engine spans land on the leader's request tracer.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..core.concurrency import guarded_by, holds_no_locks
from ..dse.cache import DiskCache
from ..dse.engine import evaluate_batch

#: Default bound on how long a follower waits for its flight's leader.
#: One evaluation takes well under a second; a minute means the leader
#: wedged, and the handler must return a structured 503 instead of
#: hanging forever.
DEFAULT_SUBMIT_TIMEOUT_S = 60.0


class BatchTimeout(RuntimeError):
    """A follower's flight never landed within the timeout."""


@guarded_by("BatchingQueue._lock", "members")
class _Flight:
    """One open evaluation of a key and the outcome its members share.

    The leader writes ``record``/``served``/``info``/``error`` before it
    sets ``done``; followers read them only after ``done`` fires.
    """

    __slots__ = ("index", "members", "done", "record", "served", "info",
                 "error")

    def __init__(self, index: int):
        self.index = index
        self.members = 1
        self.done = threading.Event()
        self.record: Optional[Dict[str, object]] = None
        self.served = "miss"
        self.info: Dict[str, object] = {}
        self.error = "unknown"


@guarded_by("_lock", "_flights", "_closed", "requests", "batches",
            "coalesced")
class BatchingQueue:
    """Single-flight, cache-through evaluation of keyed configs.

    All counters are cumulative and guarded by the queue lock:

    * ``requests`` — submissions accepted;
    * ``batches`` — flights opened, i.e. engine calls made;
    * ``coalesced`` — followers: requests served by another request's
      flight (``requests - batches`` once every flight has closed).
    """

    def __init__(self, cache: Optional[DiskCache] = None,
                 submit_timeout_s: float = DEFAULT_SUBMIT_TIMEOUT_S):
        self.cache = cache
        self.submit_timeout_s = max(0.001, submit_timeout_s)
        self._lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        self._closed = False
        self.requests = 0
        self.batches = 0
        self.coalesced = 0

    @holds_no_locks(reason="the leader runs the engine call and followers "
                           "park on the flight's event, both lock-free")
    def submit(self, key: str, config: Dict[str, object]
               ) -> Tuple[Dict[str, object], str, Dict[str, object]]:
        """Evaluate ``config`` (already normalized, content-keyed), or
        join the open flight for ``key``; returns ``(record,
        "hit"|"miss", batch_info)``.

        Raises :class:`BatchTimeout` when a follower's flight does not
        land within ``submit_timeout_s``, and ``RuntimeError`` for every
        member when the leader's engine call raised.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("batching queue is shut down")
            self.requests += 1
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                self.batches += 1
                flight = self._flights[key] = _Flight(self.batches)
            else:
                flight.members += 1
                self.coalesced += 1
        if leader:
            self._lead(key, config, flight)
        elif not flight.done.wait(timeout=self.submit_timeout_s):
            raise BatchTimeout(
                f"flight {flight.index} did not serve key {key} within "
                f"{self.submit_timeout_s:g}s — its leader is wedged")
        if flight.record is None:
            raise RuntimeError(f"batch evaluation failed: {flight.error}")
        return flight.record, flight.served, flight.info

    def _lead(self, key: str, config: Dict[str, object],
              flight: _Flight) -> None:
        try:
            records, served = evaluate_batch([(key, config)],
                                             cache=self.cache)
            flight.record, flight.served = records[key], served[key]
        except Exception as exc:  # noqa: BLE001 — members get the error
            flight.error = f"{type(exc).__name__}: {exc}"
        finally:
            # Closing the flight fixes its member count; later requests
            # for the key open a new flight (and hit the cache).
            with self._lock:
                del self._flights[key]
                members = flight.members
            flight.info = {"index": flight.index, "requests": members,
                           "unique": 1}
            flight.done.set()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {"requests": self.requests, "batches": self.batches,
                    "coalesced": self.coalesced,
                    "submit_timeout_s": self.submit_timeout_s}

    def shutdown(self) -> None:
        """Refuse new submissions; open flights still land."""
        with self._lock:
            self._closed = True
