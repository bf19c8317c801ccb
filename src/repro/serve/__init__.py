"""``repro.serve`` — simulation-as-a-service over the DSE engine.

A stdlib-only HTTP/JSON front end (ROADMAP item 2) turning the
reproduction's reentrant library calls into a service:

* ``POST /v1/evaluate`` — one design config, evaluated inline in the
  request's thread behind a per-key single-flight: concurrent requests
  for one config share one engine call (:mod:`repro.serve.batching`),
  and responses are served from a content-hash
  :class:`~repro.dse.cache.DiskCache` keyed by canonical-JSON SHA-256.
* ``POST /v1/sweep`` / ``POST /v1/experiment`` — one ``run_sweep`` or
  one fig7/fig8/table2 harness build, run inline in the request's
  thread like an evaluate; the reply carries the result.  A sweep
  recomputes every config and never touches the evaluate cache.
* Every evaluate, sweep and experiment request gets a trace ID; spans
  record under context-local tracers (:func:`repro.obs.use_tracer`),
  never the process-global one, and ``"trace": true`` returns them
  inline.
* ``GET /v1/stats`` carries fixed log2-bucket latency histograms per
  endpoint and per evaluate stage (:class:`~.api.LatencyHistograms`).

The served results are **byte-identical** to direct library calls — the
differential suite (``tests/test_serve_differential.py``) and the
concurrency suite (``tests/test_serve_concurrency.py``) certify it, and
the effect verifier (rule R8 of ``python -m repro.lint``) proves the
handlers' evaluation path reentrant.

Entry point: ``python -m repro.serve`` (or ``python -m repro serve``).
"""

from .api import ROUTES, ServeApp, ServeServer, make_server
from .batching import BatchingQueue
from .schemas import (ERROR_SCHEMA, EVALUATE_SCHEMA, EXPERIMENT_NAMES,
                      EXPERIMENT_SCHEMA, HEALTH_SCHEMA, MAX_BODY_BYTES,
                      STATS_SCHEMA, SWEEP_SCHEMA, SchemaError, SWEEP_LEVERS,
                      build_sweep_spec, error_doc, validate_evaluate_request,
                      validate_experiment_request, validate_sweep_request)

__all__ = [
    "ServeApp", "ServeServer", "make_server", "ROUTES",
    "BatchingQueue",
    "SchemaError", "error_doc", "build_sweep_spec",
    "validate_evaluate_request", "validate_sweep_request",
    "validate_experiment_request",
    "ERROR_SCHEMA", "EVALUATE_SCHEMA", "SWEEP_SCHEMA", "EXPERIMENT_SCHEMA",
    "HEALTH_SCHEMA", "STATS_SCHEMA",
    "EXPERIMENT_NAMES", "SWEEP_LEVERS", "MAX_BODY_BYTES",
]
