"""The sharded sweep engine: enumerate -> cache -> evaluate -> reduce.

Execution model:

* Configs are normalized and content-hashed up front, in spec enumeration
  order — that order is the merge order, so results are independent of how
  shards complete.
* Cache lookups run first; only misses are evaluated.
* Evaluation shards across worker processes
  (``concurrent.futures.ProcessPoolExecutor``) when ``workers > 1``, with
  an automatic serial fallback when a pool cannot be created (sandboxed
  environments) or breaks.  ``pool.map`` preserves input order and the
  evaluator is a pure function, so ``workers=1`` and ``workers=N`` produce
  bit-identical results.
* A shard whose evaluator raises yields a per-config *error record*
  (exception type + message) instead of sinking the sweep; serial and
  pooled paths build that record through the same code path, so they
  behave identically.
* Reduction (:func:`repro.dse.pareto.pareto_reduce`) and the exported
  frontier document are functions of the record set alone.
"""

from __future__ import annotations

import concurrent.futures
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.concurrency import holds_no_locks
from ..core.effects import reentrant
from ..obs import get_tracer
from .cache import DiskCache
from .evaluate import RECORD_SCHEMA, evaluate_config
from .pareto import OBJECTIVE_KEYS, pareto_reduce, record_sort_key
from .spec import SweepSpec, config_key, normalize_config

#: Schema tags of the engine's two result documents.
SWEEP_SCHEMA = "repro.dse/sweep/1"
FRONTIER_SCHEMA = "repro.dse/frontier/1"


@reentrant(reason="the process-pool worker entry point: any hidden state "
                  "here would make workers=1 and workers=N diverge")
def _evaluate_record(config: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point (module-level: picklable by the process pool).

    Never raises on a bad config: failures become error records carrying
    the exception type and message, keyed like any other result.
    """
    try:
        return evaluate_config(config)
    except Exception as exc:  # noqa: BLE001 — per-shard fault isolation
        return {
            "schema": RECORD_SCHEMA,
            "key": config_key(normalize_config(config)),
            "config": normalize_config(config),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }


def _evaluate_many(configs: Sequence[Dict[str, object]],
                   workers: int) -> List[Dict[str, object]]:
    """Evaluate configs in input order, sharded when ``workers > 1``."""
    if workers <= 1 or len(configs) <= 1:
        return [_evaluate_record(cfg) for cfg in configs]
    chunksize = max(1, len(configs) // (workers * 4))
    try:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as pool:
            return list(pool.map(_evaluate_record, configs,
                                 chunksize=chunksize))
    except (OSError, concurrent.futures.process.BrokenProcessPool,
            PermissionError):
        # No usable process pool here — same results, just serial.
        return [_evaluate_record(cfg) for cfg in configs]


@holds_no_locks(reason="file IO plus a possibly process-pooled evaluation "
                       "pass: callers must never enter this under a lock")
@reentrant(reason="the cache-through evaluation core shared by run_sweep "
                  "and the serve layer's single-flight: results must be "
                  "a function of the (key, config) list and cache bytes "
                  "alone, never of who called it or in which thread")
def evaluate_batch(keyed: Sequence[Tuple[str, Dict[str, object]]],
                   workers: int = 1,
                   cache: Optional[DiskCache] = None
                   ) -> Tuple[Dict[str, Dict[str, object]], Dict[str, str]]:
    """Evaluate already-normalized, deduplicated ``(key, config)`` pairs.

    The single engine call behind both a sweep shard and a serve
    flight: cache lookups first, one (optionally sharded)
    evaluation pass over the misses in input order, successful fresh
    records stored back.  Returns ``(records, served)`` where
    ``records`` maps key -> record and ``served`` maps key ->
    ``"hit"`` / ``"miss"`` (cache provenance, for client-visible
    counters).  Error records are never cached.
    """
    tracer = get_tracer()
    records: Dict[str, Dict[str, object]] = {}
    served: Dict[str, str] = {}
    pending: List[Tuple[str, Dict[str, object]]] = []
    with tracer.span("dse.cache.lookup", configs=len(keyed)):
        for key, cfg in keyed:
            hit = cache.lookup(key) if cache is not None else None
            if hit is not None:
                records[key] = hit
                served[key] = "hit"
            else:
                pending.append((key, cfg))
                served[key] = "miss"
    with tracer.span("dse.evaluate", pending=len(pending), workers=workers):
        fresh = _evaluate_many([cfg for _, cfg in pending], workers)
    for (key, _), record in zip(pending, fresh):
        records[key] = record
        if cache is not None and "error" not in record:
            cache.store(key, record)
    return records, served


@reentrant(reason="the serve layer's single-request path: one normalized "
                  "config through the same cache and evaluator as a "
                  "sweep, so HTTP responses are byte-identical to "
                  "library calls")
def evaluate_one(config: Mapping[str, object],
                 cache: Optional[DiskCache] = None
                 ) -> Tuple[Dict[str, object], str]:
    """Evaluate one config through the cache; ``(record, "hit"|"miss")``.

    Raises ``ValueError`` for configs that do not even normalize (unknown
    or missing keys, uncoercible types) — exactly like ``run_sweep``;
    configs that normalize but fail evaluation come back as error
    records, byte-identical to the records a sweep would produce.
    """
    cfg = normalize_config(config)
    key = config_key(cfg)
    records, served = evaluate_batch([(key, cfg)], workers=1, cache=cache)
    return records[key], served[key]


@holds_no_locks(reason="drives evaluate_batch (blocking engine work) and "
                       "must be entered lock-free for the same reason")
def run_sweep(spec: Optional[SweepSpec] = None,
              configs: Optional[Sequence[Mapping[str, object]]] = None,
              workers: int = 1,
              cache: Optional[DiskCache] = None) -> Dict[str, object]:
    """Run one sweep; returns the full sweep document.

    Exactly one of ``spec`` / ``configs`` supplies the config list
    (``configs`` wins when both are given — the spec is then metadata
    only).  Duplicate configs are collapsed to one evaluation.
    """
    if spec is None and configs is None:
        raise ValueError("run_sweep needs a spec or an explicit config list")
    raw = list(configs) if configs is not None else spec.configs()
    tracer = get_tracer()

    keyed: List[tuple] = []
    seen_keys: set = set()
    for raw_cfg in raw:
        cfg = normalize_config(raw_cfg)
        key = config_key(cfg)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        keyed.append((key, cfg))

    with tracer.span("dse.sweep", configs=len(keyed), workers=workers) as sp:
        records, served = evaluate_batch(keyed, workers=workers, cache=cache)
        evaluated = sum(1 for origin in served.values() if origin == "miss")

        # Merge in enumeration order — never in completion order.
        ordered = [records[key] for key, _ in keyed]
        with tracer.span("dse.reduce"):
            frontier = pareto_reduce(ordered)

        errors = [r for r in ordered if "error" in r]
        sp.count(evaluated=evaluated, errors=len(errors),
                 frontier=len(frontier))

    return {
        "schema": SWEEP_SCHEMA,
        "spec": spec.as_dict() if spec is not None else None,
        "workers": workers,
        "configs": len(keyed),
        "records": ordered,
        "errors": errors,
        "frontier": frontier,
        "cache": cache.stats() if cache is not None else None,
    }


def frontier_doc(result: Mapping[str, object]) -> Dict[str, object]:
    """The exportable frontier: a pure function of the evaluated set.

    Deliberately excludes worker count, cache statistics, and anything
    else machine- or run-dependent, so ``--workers 1`` and ``--workers N``
    (and cold vs warm cache) runs serialize to byte-identical JSON.
    """
    frontier = list(result["frontier"])
    return {
        "schema": FRONTIER_SCHEMA,
        "objectives": list(OBJECTIVE_KEYS),
        "configs": result["configs"],
        "frontier": sorted(frontier, key=record_sort_key),
    }
