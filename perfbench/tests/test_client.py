"""Failure counting in the closed-loop client, against a scripted server."""

import json
import threading

import pytest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from e2e.client import ClosedLoop
from e2e.spans import SpanStore


class ScriptedHandler(BaseHTTPRequestHandler):
    """``rid % 4``: 0 -> 200 JSON, 1 -> 503 JSON (a batch timeout),
    2 -> 200 with a body that is not JSON, 3 -> connection dropped."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 — http.server API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        rid = int(parse_qs(urlsplit(self.path).query)["rid"][0])
        kind = rid % 4
        if kind == 3:
            self.close_connection = True
            return
        if kind == 2:
            payload = b"<html>not json</html>"
            status = 200
        else:
            status = 200 if kind == 0 else 503
            payload = json.dumps({"echo": json.loads(body)}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def serve():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    return server, thread


def run_scripted(requests, lockstep=False, store=None):
    server, thread = serve()
    try:
        bodies = [json.dumps({"i": i}).encode() for i in range(40)]
        loop = ClosedLoop(server.server_address[1], bodies, clients=2,
                          timeout_s=10)
        replies = loop.run(requests, lockstep=lockstep, store=store)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    return replies


@pytest.mark.parametrize("lockstep", [False, True])
def test_failures_are_counted_per_kind(lockstep):
    replies = run_scripted(24, lockstep=lockstep)
    assert [r.index for r in replies] == list(range(24))
    failed = [r.index for r in replies if r.failed]
    assert failed == [i for i in range(24) if i % 4 != 0]
    assert all(r.status == 503 for r in replies if r.index % 4 == 1)
    assert all(r.error for r in replies if r.index % 4 in (2, 3))
    ok = [r for r in replies if not r.failed]
    assert [r.doc["echo"]["i"] for r in ok] == [r.index for r in ok]


@pytest.mark.parametrize("lockstep", [False, True])
@pytest.mark.parametrize("requests", [9, 10])
def test_sends_exactly_the_requests_asked_for(requests, lockstep):
    store = SpanStore()
    replies = run_scripted(requests, lockstep=lockstep, store=store)
    assert [r.index for r in replies] == list(range(requests))
    ops = [s for s in store.finished() if s.name == "bench.op"]
    assert sorted(s.rid for s in ops) == list(range(requests))


def test_more_requests_than_bodies_is_refused():
    loop = ClosedLoop(1, [b"{}"] * 3)
    with pytest.raises(ValueError):
        loop.run(4)
