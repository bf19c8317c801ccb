"""Shared helpers for the ``repro.serve`` test suites.

A live-server context manager (real ``ThreadingHTTPServer`` on a free
loopback port) plus a tiny stdlib HTTP/JSON client, so the differential,
concurrency, and schema suites all exercise the actual wire path — body
framing, status codes, headers, JSON round-trip — not just
``ServeApp.dispatch``.
"""

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

from repro.dse.cache import DiskCache
from repro.serve import ServeApp, make_server

#: One config in the middle of the smoke sweep; handy as a default.
NOMINAL_CONFIG = {"pattern": "1:8", "bus_bits": 128, "mram_rows": 1024,
                  "weight_bits": 8, "device": "nominal"}


class Client:
    """Blocking HTTP/JSON client against a loopback server."""

    def __init__(self, port, host="127.0.0.1", timeout=60.0):
        self.base = f"http://{host}:{port}"
        self.timeout = timeout

    def request_bytes(self, method, path, doc=None, raw=None):
        """Returns ``(status, body_bytes, headers)``: the reply exactly as
        it crossed the wire.

        4xx/5xx responses are returned, not raised — every repro.serve
        response body is JSON, including errors.
        """
        data = raw
        if doc is not None:
            data = json.dumps(doc).encode("utf-8")
        req = urllib.request.Request(self.base + path, data=data,
                                     method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read(), dict(exc.headers)

    def request(self, method, path, doc=None, raw=None):
        """Returns ``(status, parsed_json_body, headers)``."""
        status, body, headers = self.request_bytes(method, path, doc, raw)
        return status, json.loads(body), headers

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, doc=None, raw=None):
        return self.request("POST", path, doc=doc, raw=raw)


@contextmanager
def live_server(tmp_path=None, **app_kwargs):
    """Yield ``(app, client)`` for a freshly bound server on a free port.

    ``cache`` defaults to a :class:`DiskCache` under ``tmp_path`` so the
    suites never touch the repo-level ``results/dse_cache``.
    """
    if "cache" not in app_kwargs:
        if tmp_path is None:
            raise ValueError("live_server needs tmp_path or an explicit cache")
        app_kwargs["cache"] = DiskCache(tmp_path / "serve_cache")
    app = ServeApp(**app_kwargs)
    server = make_server("127.0.0.1", 0, app)
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              name="repro-serve-test")
    thread.start()
    try:
        yield app, Client(server.server_address[1])
    finally:
        server.shutdown()
        server.server_close()
        app.shutdown()
        thread.join(timeout=10)

