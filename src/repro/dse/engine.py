"""The sweep engine: enumerate -> cache -> evaluate -> reduce.

Execution model:

* Configs are normalized and content-hashed once, up front, in spec
  enumeration order — that order is the merge order.
* Cache lookups run first; only misses are evaluated.
* The misses are evaluated in one pass through
  :func:`repro.dse.evaluate.evaluate_records`, which runs them as a
  ``(configs x layers)`` numpy program in fixed slices.  Each record is
  a function of its config alone, so batching never changes a byte.
* A config whose evaluation fails yields a per-config *error record*
  (exception type + message) instead of sinking the sweep.
* Reduction (:func:`repro.dse.pareto.pareto_reduce`) and the exported
  frontier document are functions of the record set alone.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.concurrency import holds_no_locks
from ..core.effects import reentrant
from ..obs import get_tracer
from .cache import DiskCache
# Re-exports evaluate_config: callers and perfbench's layer trace find it here.
from .evaluate import evaluate_config, evaluate_records  # noqa: F401
from .pareto import OBJECTIVE_KEYS, pareto_reduce, record_sort_key
from .spec import SweepSpec, config_key, normalize_config

#: Schema tags of the engine's two result documents.
SWEEP_SCHEMA = "repro.dse/sweep/1"
FRONTIER_SCHEMA = "repro.dse/frontier/1"


@holds_no_locks(reason="file IO plus a whole evaluation pass: callers "
                       "must never enter this under a lock")
@reentrant(reason="the cache-through evaluation core shared by run_sweep "
                  "and the serve layer's single-flight: results must be "
                  "a function of the (key, config) list and cache bytes "
                  "alone, never of who called it or in which thread")
def evaluate_batch(keyed: Sequence[Tuple[str, Dict[str, object]]],
                   cache: Optional[DiskCache] = None
                   ) -> Tuple[Dict[str, Dict[str, object]], Dict[str, str]]:
    """Evaluate already-normalized, deduplicated ``(key, config)`` pairs.

    The single engine call behind both a sweep and a serve flight:
    cache lookups first, one evaluation pass over the misses in input
    order, successful fresh records stored back.  Returns ``(records,
    served)`` where ``records`` maps key -> record and ``served`` maps key ->
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
    with tracer.span("dse.evaluate", pending=len(pending)):
        fresh = evaluate_records(pending)
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
    records, served = evaluate_batch([(key, cfg)], cache=cache)
    return records[key], served[key]


@holds_no_locks(reason="drives evaluate_batch (blocking engine work) and "
                       "must be entered lock-free for the same reason")
def run_sweep(spec: Optional[SweepSpec] = None,
              configs: Optional[Sequence[Mapping[str, object]]] = None,
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

    with tracer.span("dse.sweep", configs=len(keyed)) as sp:
        records, served = evaluate_batch(keyed, cache=cache)
        evaluated = sum(1 for origin in served.values() if origin == "miss")

        # Records in enumeration order.
        ordered = [records[key] for key, _ in keyed]
        with tracer.span("dse.reduce"):
            frontier = pareto_reduce(ordered)

        errors = [r for r in ordered if "error" in r]
        sp.count(evaluated=evaluated, errors=len(errors),
                 frontier=len(frontier))

    return {
        "schema": SWEEP_SCHEMA,
        "spec": spec.as_dict() if spec is not None else None,
        "configs": len(keyed),
        "records": ordered,
        "errors": errors,
        "frontier": frontier,
        "cache": cache.stats() if cache is not None else None,
    }


def frontier_doc(result: Mapping[str, object]) -> Dict[str, object]:
    """The exportable frontier: a pure function of the evaluated set.

    Deliberately excludes cache statistics and anything else machine- or
    run-dependent, so cold and warm cache runs serialize to
    byte-identical JSON.
    """
    frontier = list(result["frontier"])
    return {
        "schema": FRONTIER_SCHEMA,
        "objectives": list(OBJECTIVE_KEYS),
        "configs": result["configs"],
        "frontier": sorted(frontier, key=record_sort_key),
    }
