"""Deterministic Pareto reduction over evaluation records.

Objectives (all minimized; density is maximized via sign flip):
area, inference power, training EDP, negated density — the four axes of
the ROADMAP's production sweep.

Determinism contract: :func:`pareto_reduce` is a function of the record
*set* — the result is identical under any input permutation (input
order, cache hit pattern).  Achieved by sorting on the signed objective
vector with the config content hash as the final tie-break, then
eliminating in that order.  Tie handling: records whose objective
vectors are exactly equal keep exactly one canonical representative (the
first in sort order), never zero, never both.  Idempotent:
``pareto_reduce(pareto_reduce(x)) == pareto_reduce(x)``.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: (metric key, sign) — signed values are minimized.
OBJECTIVES: Tuple[Tuple[str, float], ...] = (
    ("area_mm2", 1.0),
    ("inference_power_mw", 1.0),
    ("training_edp_js", 1.0),
    ("density", -1.0),
)

#: The metric keys the frontier is computed over (export metadata).
OBJECTIVE_KEYS = tuple(key for key, _ in OBJECTIVES)


def objective_vector(record: Mapping[str, object]) -> Tuple[float, ...]:
    """The record's signed (minimize-all) objective values."""
    metrics = record["metrics"]
    return tuple(sign * float(metrics[key]) for key, sign in OBJECTIVES)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Vector dominance: ``a`` no worse everywhere, strictly better once."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b))


def record_sort_key(record: Mapping[str, object]) -> Tuple:
    """Total order: objectives, then the content hash as a stable tie-break."""
    return objective_vector(record) + (str(record.get("key", "")),)


def pareto_reduce(records: Sequence[Mapping[str, object]]
                  ) -> List[Dict[str, object]]:
    """The non-dominated records, in canonical sort order.

    Error records (no ``metrics``) are excluded up front.  The rest are
    ordered by :func:`record_sort_key` (``np.lexsort`` over the signed
    objective array, key string last), then eliminated in that order: the
    first live row is on the front, and every live row it weakly
    dominates — itself and exact duplicates included — dies.  A row can
    only be dominated by rows that sort before it, so the first live row
    is never dominated; the loop makes one vector pass per front record.
    """
    valid = [r for r in records if "error" not in r and "metrics" in r]
    if not valid:
        return []
    metrics = operator.itemgetter(*OBJECTIVE_KEYS)
    signs = np.array([sign for _, sign in OBJECTIVES])
    vectors = np.array([metrics(r["metrics"]) for r in valid],
                       dtype=np.float64) * signs
    # Rank the key strings in Python: a numpy string array of 64-character
    # hashes would cost a megabyte per sweep.
    keys = [str(r.get("key", "")) for r in valid]
    key_rank = np.empty(len(valid), dtype=np.intp)
    key_rank[sorted(range(len(valid)), key=keys.__getitem__)] = \
        np.arange(len(valid))
    order = np.lexsort((key_rank,) + tuple(vectors.T[::-1]))
    # One contiguous row per objective: comparing (4, n) rows is several
    # times faster than reducing (n, 4) rows.
    objectives = vectors[order].T.copy()
    live = np.ones(len(order), dtype=bool)
    front: List[Dict[str, object]] = []
    i = 0
    while True:
        front.append(dict(valid[order[i]]))
        live[i + 1:] &= ~np.all(
            objectives[:, i + 1:] >= objectives[:, i:i + 1], axis=0)
        rest = live[i + 1:]
        if not rest.any():
            return front
        i += 1 + int(rest.argmax())
