"""Keep-alive latency of the live server.

The handler writes the headers and the body of a response separately.
With Nagle's algorithm on, the kernel holds the body until the client
acknowledges the headers, and a client that delays its ACK (about 40 ms
on Linux) stalls every response on a reused connection.  The handler
therefore sets ``TCP_NODELAY``; this suite measures the effect over one
keep-alive connection.  Every timed request is a cache hit, which the
server answers without evaluating anything, so a delayed ACK would be
most of its latency.
"""

import http.client
import json
import statistics
import time

from tests.serve_utils import NOMINAL_CONFIG, live_server

#: Warm requests timed over the one connection.
N_REQUESTS = 20


def test_warm_keepalive_evaluate_is_not_delayed(tmp_path):
    body = json.dumps({"config": NOMINAL_CONFIG}).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    with live_server(tmp_path) as (_, client):
        port = int(client.base.rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            latencies = []
            for i in range(N_REQUESTS + 1):
                start = time.perf_counter()
                conn.request("POST", "/v1/evaluate", body=body,
                             headers=headers)
                resp = conn.getresponse()
                doc = json.loads(resp.read())
                elapsed = time.perf_counter() - start
                assert resp.status == 200, doc
                assert not resp.will_close
                if i:  # the first request fills the cache
                    assert doc["cache"] == "hit"
                    latencies.append(elapsed)
        finally:
            conn.close()
    assert statistics.median(latencies) < 0.020, latencies
