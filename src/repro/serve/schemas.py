"""Request/response schemas for the ``repro.serve`` HTTP API.

Every request body is validated by a pure function in this module before
any work happens; every failure raises :class:`SchemaError`, which the
HTTP layer renders as a *structured* 4xx JSON document — a client never
sees a traceback.  The validators are ``@reentrant``-contracted: they are
part of the serve hot path the effect verifier (rule R8) certifies, and
their outputs are pure functions of the request body.

Validation is deliberately two-layered, mirroring the sweep engine:

* **shape** errors (non-object body, unknown/missing fields, uncoercible
  types — anything :func:`repro.dse.spec.normalize_config` rejects) are
  schema errors -> HTTP 4xx;
* **value** errors (a config that normalizes but names a nonsense
  pattern or device) flow through to evaluation and come back as the
  same per-config *error records* a sweep produces — byte-identical to
  the direct library call, which is what the differential suite pins.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

from ..core.effects import reentrant
from ..dse.spec import CONFIG_KEYS, PRESETS, SweepSpec, normalize_config

#: Schema tags stamped into response documents.
ERROR_SCHEMA = "repro.serve/error/1"
EVALUATE_SCHEMA = "repro.serve/evaluate/1"
JOB_SCHEMA = "repro.serve/job/1"
JOBS_SCHEMA = "repro.serve/jobs/1"
JOB_RESULT_SCHEMA = "repro.serve/job-result/1"
HEALTH_SCHEMA = "repro.serve/health/1"
STATS_SCHEMA = "repro.serve/stats/1"

#: Largest request body the server reads, in bytes (oversized -> 413).
MAX_BODY_BYTES = 1 << 20

#: Experiment names ``POST /v1/experiment`` accepts.
EXPERIMENT_NAMES = ("fig7", "fig8", "table2")

#: Sweep-overlay lever names (the SweepSpec fields a request may override).
SWEEP_LEVERS = ("patterns", "bus_bits", "mram_rows", "weight_bits",
                "devices")


class SchemaError(Exception):
    """A request that fails validation; carries the HTTP status + doc."""

    def __init__(self, code: str, message: str, status: int = 400,
                 field: Optional[str] = None):
        super().__init__(message)
        self.code = code
        self.status = status
        self.field = field

    def doc(self) -> Dict[str, object]:
        return error_doc(self.code, str(self), field=self.field)


@reentrant(reason="error documents must be a pure function of the "
                  "failure, so identical bad requests get identical "
                  "bodies")
def error_doc(code: str, message: str,
              field: Optional[str] = None) -> Dict[str, object]:
    """The structured error body every non-2xx response carries."""
    error: Dict[str, object] = {"code": code, "message": message}
    if field is not None:
        error["field"] = field
    return {"schema": ERROR_SCHEMA, "error": error}


def _require_object(value: object, what: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise SchemaError("bad-request",
                          f"{what} must be a JSON object, "
                          f"got {type(value).__name__}", field=what)
    return value


def _reject_unknown(body: Mapping[str, object], allowed: Tuple[str, ...],
                    what: str) -> None:
    unknown = sorted(k for k in body if k not in allowed)
    if unknown:
        raise SchemaError(
            "unknown-field",
            f"unknown {what} field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(allowed)})", field=unknown[0])


def _bool_field(body: Mapping[str, object], name: str,
                default: bool = False) -> bool:
    value = body.get(name, default)
    if not isinstance(value, bool):
        raise SchemaError("bad-request",
                          f"{name!r} must be a boolean, "
                          f"got {type(value).__name__}", field=name)
    return value


@reentrant(reason="the evaluate handler's input contract: normalization "
                  "must match what a direct library call would do, or "
                  "the differential guarantee is void")
def validate_evaluate_request(body: object) -> Dict[str, object]:
    """Normalize a ``POST /v1/evaluate`` body.

    Returns ``{"config": <normalized config>, "trace": bool}``.  The
    config is normalized with the *same* ``normalize_config`` the sweep
    engine and cache key use, so shape failures here are exactly the
    configs ``run_sweep`` would refuse up front.
    """
    request = _require_object(body, "request")
    _reject_unknown(request, ("config", "trace"), "request")
    if "config" not in request:
        raise SchemaError("bad-request", "request needs a 'config' object",
                          field="config")
    config = _require_object(request["config"], "config")
    _reject_unknown(config, CONFIG_KEYS, "config")
    try:
        normalized = normalize_config(config)
    except (ValueError, TypeError) as exc:
        raise SchemaError("bad-config", f"config does not normalize: {exc}",
                          field="config") from exc
    return {"config": normalized,
            "trace": _bool_field(request, "trace")}


@reentrant(reason="sweep submissions must map to the same SweepSpec a "
                  "CLI invocation with the same levers would build")
def validate_sweep_request(body: object) -> Dict[str, object]:
    """Normalize a ``POST /v1/sweep`` body.

    Shape: ``{"preset": "smoke", "overrides": {lever: [...]}, "records":
    false}`` — the preset names a base
    :class:`~repro.dse.spec.SweepSpec` and the overlay replaces whole
    levers, exactly like the ``python -m repro.dse`` flags.
    """
    request = _require_object(body, "request")
    _reject_unknown(request, ("preset", "overrides", "records"), "request")
    preset = request.get("preset", "smoke")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise SchemaError("bad-request",
                          f"unknown preset {preset!r} "
                          f"(known: {', '.join(sorted(PRESETS))})",
                          field="preset")
    overrides = _require_object(request.get("overrides", {}), "overrides")
    _reject_unknown(overrides, SWEEP_LEVERS, "overrides")
    clean_overrides: Dict[str, object] = {}
    for lever in SWEEP_LEVERS:
        if lever not in overrides:
            continue
        values = overrides[lever]
        if not isinstance(values, (list, tuple)) or not values:
            raise SchemaError("bad-request",
                              f"override {lever!r} must be a non-empty "
                              "array", field=lever)
        clean_overrides[lever] = list(values)
    normalized = {"preset": preset, "overrides": clean_overrides,
                  "records": _bool_field(request, "records")}
    build_sweep_spec(normalized)      # raises SchemaError on bad levers
    return normalized


@reentrant(reason="the job runner rebuilds the spec from the stored "
                  "request doc; both sides must construct identically")
def build_sweep_spec(request: Mapping[str, object]) -> SweepSpec:
    """The :class:`SweepSpec` a normalized sweep request names."""
    spec = PRESETS[str(request["preset"])]
    overrides = dict(request.get("overrides") or {})
    if not overrides:
        return spec
    try:
        return dataclasses.replace(
            spec, **{k: tuple(v) for k, v in sorted(overrides.items())})
    except (ValueError, TypeError) as exc:
        raise SchemaError("bad-config",
                          f"sweep overrides do not form a valid spec: "
                          f"{exc}", field="overrides") from exc


@reentrant(reason="experiment requests are a closed enum; normalization "
                  "is a pure lookup")
def validate_experiment_request(body: object) -> Dict[str, object]:
    """Normalize a ``POST /v1/experiment`` body.

    Shape: ``{"experiment": "fig7" | "fig8" | "table2"}``.
    """
    request = _require_object(body, "request")
    _reject_unknown(request, ("experiment",), "request")
    experiment = request.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENT_NAMES:
        raise SchemaError("bad-request",
                          f"'experiment' must be one of "
                          f"{', '.join(EXPERIMENT_NAMES)}",
                          field="experiment")
    return {"experiment": experiment}
