"""Closed-loop HTTP load: a few keep-alive clients.

Each client thread owns one keep-alive connection and sends its next
request only after its previous reply arrived (a closed loop).  A run
sends a fixed number of requests, so the mix of cache hits and misses is
a function of the seed, never of how fast the server is.

By default the clients run freely: each takes the next request index as
soon as it is done with its last one.  With ``lockstep=True`` they also
meet at a barrier before every round, so round ``r`` always pairs
request ``r * clients + i`` of client ``i`` with the same partners: which
requests share a batch is then a function of the seed, not of thread
timing.  Only the traced run, whose batch counts must repeat exactly,
uses it.

A request fails when the connection breaks, the reply is not JSON, or its
status is not 200 (a 503 ``batch-timeout`` included).  Failed requests
keep their latency; the caller decides what else to check.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import List, Optional, Sequence

from .spans import SpanStore


class Reply:
    """Outcome of one request."""

    __slots__ = ("index", "status", "doc", "latency_s", "error")

    def __init__(self, index: int):
        self.index = index
        self.status = 0
        self.doc: Optional[dict] = None
        self.latency_s = 0.0
        self.error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.status != 200


class ClosedLoop:
    """Send ``bodies[i]`` as ``POST path?rid=i`` from ``clients`` threads."""

    def __init__(self, port: int, bodies: Sequence[bytes],
                 path: str = "/v1/evaluate", clients: int = 2,
                 host: str = "127.0.0.1", timeout_s: float = 90.0):
        self.port = port
        self.bodies = bodies
        self.path = path
        self.clients = clients
        self.host = host
        self.timeout_s = timeout_s

    def run(self, requests: int, lockstep: bool = False,
            store: Optional[SpanStore] = None) -> List[Reply]:
        """Send ``bodies[0:requests]``; replies come back in request order."""
        if requests > len(self.bodies):
            raise ValueError("more requests than generated bodies")
        replies: List[Optional[Reply]] = [None] * requests
        lock = threading.Lock()
        state = {"next": 0, "round": 0}

        def next_free(slot: int) -> Optional[int]:
            with lock:
                index = state["next"]
                state["next"] += 1
            return index if index < requests else None

        def next_round() -> None:           # one thread, while all wait
            state["round"] += 1

        barrier = threading.Barrier(self.clients, action=next_round,
                                    timeout=self.timeout_s)

        def next_lockstep(slot: int) -> Optional[int]:
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return None                 # another client is done
            index = (state["round"] - 1) * self.clients + slot
            return index if index < requests else None

        take = next_lockstep if lockstep else next_free

        def client(slot: int) -> None:
            conn = self._connect()
            try:
                while True:
                    index = take(slot)
                    if index is None:
                        return
                    reply = self._send(conn, index, store)
                    if reply.error is not None:
                        conn.close()
                        conn = self._connect()
                    replies[index] = reply
            finally:
                barrier.abort()             # release a partner still waiting
                conn.close()

        threads = [threading.Thread(target=client, args=(slot,),
                                    name=f"perfbench-client-{slot}")
                   for slot in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [r for r in replies if r is not None]

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)

    def _send(self, conn: http.client.HTTPConnection, index: int,
              store: Optional[SpanStore]) -> Reply:
        reply = Reply(index)
        span = store.open_op("bench.op", rid=index) if store else None
        t0 = time.perf_counter()
        try:
            conn.request("POST", f"{self.path}?rid={index}",
                         body=self.bodies[index],
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            raw = resp.read()
            reply.status = resp.status
            reply.doc = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            reply.error = f"{type(exc).__name__}: {exc}"
        finally:
            reply.latency_s = time.perf_counter() - t0
            if span is not None:
                store.close_op(span)
        return reply
