"""Batched evaluator: normalized configs -> metric records.

This is the reentrant library form of the fig7/fig8-style analytical
evaluation: build the technology variant each config names, and charge
the paper workload through the hybrid's area/latency/energy formulas —
the ones the harnesses use — at the config's pattern and bus width.  A
sweep's valid configs go through :class:`~repro.core.designs.HybridBatch`
together, a slice at a time; every element of that array program is the
IEEE operation a lone design performs, so a config's record does not
depend on what it was batched with.  Pure function of its input — no
global state, no clocks, no randomness — so the content-hash cache can
treat the record as a function of the config alone.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.designs import HybridBatch, avg_power_mw, check_hybrid_levers
from ..core.effects import effects, reentrant
from ..core.workload import Workload, paper_workload
from ..energy.area import total_mm2
from ..energy.tech import DEFAULT_TECH, TechnologyModel
from ..sparsity.nm import NMPattern
from .spec import DEVICE_CORNERS, config_key, normalize_config

#: Schema tag stamped into every evaluation record.
RECORD_SCHEMA = "repro.dse/record/1"

#: Metric keys every successful record carries, in canonical order.
METRIC_KEYS = ("area_mm2", "density", "inference_latency_s",
               "inference_power_mw", "training_edp_js", "training_latency_s")

#: Per-process workload cache: paper-scale extraction is cheap but not free,
#: and serve evaluates one config per request.  Written
#: only under ``_WORKLOADS_LOCK`` — concurrent serve handler threads
#: reach this memo when they evaluate (lint rule R14 tracks the path).
_WORKLOADS: Dict[str, Workload] = {}
_WORKLOADS_LOCK = threading.Lock()


@effects("READS_GLOBAL",
         reason="idempotent per-process memo: every store writes the value "
                "paper_workload() deterministically computes for that name, "
                "so concurrent or repeated calls observe identical results; "
                "callers see a pure lookup")
def get_workload(name: str) -> Workload:
    with _WORKLOADS_LOCK:
        if name not in _WORKLOADS:
            if name != "paper":
                raise ValueError(f"unknown workload {name!r}")
            _WORKLOADS[name] = paper_workload()
        return _WORKLOADS[name]


#: Per-process memo of technology variants, keyed by the config fields
#: :func:`build_tech` reads.  A sweep names few variants (``FULL_SPEC``
#: has 36) but serve clients may send any ``mram_rows``, so the memo keeps
#: at most ``_TECHS_MAX`` entries, evicting the oldest.  Written only
#: under ``_TECHS_LOCK``, like ``_WORKLOADS``.
_TECHS: Dict[Tuple[int, int, str], TechnologyModel] = {}
_TECHS_MAX = 128
_TECHS_LOCK = threading.Lock()


@reentrant(reason="sweeps and serve requests build tech variants from "
                  "config content alone")
def build_tech(config: Mapping[str, object]) -> TechnologyModel:
    """The technology variant a config names, from the Table 2 defaults.

    Geometry: scaling ``mram_rows`` scales the sub-array storage *and* its
    Table 2 array area by the same factor, preserving the calibrated
    µm²/bit density (the periphery constants stay fixed — deeper arrays
    amortize periphery, which is exactly the lever being studied).
    Precision: ``weight_bits`` narrows both datapaths' stored operand
    width (packing + write volumes).  Device: a named corner applies its
    dotted field overrides.
    """
    rows = int(config["mram_rows"])
    if rows < 1:
        raise ValueError(f"mram_rows must be >= 1, got {rows}")
    bits = int(config["weight_bits"])
    if not 2 <= bits <= 8:
        raise ValueError(f"weight_bits {bits} outside the modeled 2..8 range")
    device = str(config["device"])
    if device not in DEVICE_CORNERS:
        raise ValueError(f"unknown device corner {device!r}")
    return _tech_variant(rows, bits, device)


@effects("READS_GLOBAL",
         reason="bounded idempotent per-process memo: every store writes the "
                "value _derive_tech() deterministically computes for that "
                "key, so concurrent, repeated or post-eviction calls observe "
                "equal results; callers see a pure lookup")
def _tech_variant(rows: int, bits: int, device: str) -> TechnologyModel:
    key = (rows, bits, device)
    with _TECHS_LOCK:
        tech = _TECHS.get(key)
    if tech is None:
        tech = _derive_tech(rows, bits, device)
        with _TECHS_LOCK:
            if key not in _TECHS and len(_TECHS) >= _TECHS_MAX:
                del _TECHS[next(iter(_TECHS))]
            _TECHS[key] = tech
    return tech


@reentrant(reason="the memo behind build_tech stores what this returns")
def _derive_tech(rows: int, bits: int, device: str) -> TechnologyModel:
    """The Table 2 defaults overlaid with one validated variant."""
    sram, mram = DEFAULT_TECH.sram, DEFAULT_TECH.mram
    if rows != mram.rows:
        mram = dataclasses.replace(
            mram, rows=rows, array_area=mram.array_area * rows / mram.rows)
    if bits != sram.weight_bits:
        sram = dataclasses.replace(sram, weight_bits=bits)
    if bits != mram.weight_bits:
        mram = dataclasses.replace(mram, weight_bits=bits)

    for dotted, value in sorted(DEVICE_CORNERS[device].items()):
        target, field = dotted.split(".", 1)
        if target == "sram":
            sram = dataclasses.replace(sram, **{field: value})
        elif target == "mram":
            mram = dataclasses.replace(mram, **{field: value})
        else:
            raise ValueError(f"device corner targets unknown spec {target!r}")

    return dataclasses.replace(DEFAULT_TECH, sram=sram, mram=mram)


#: Configs evaluated together: bounds the ``(configs x layers)``
#: temporaries, so peak memory does not grow with the sweep.
SLICE_CONFIGS = 256


def _evaluate(workload: Workload, members: Sequence[tuple]
              ) -> List[Dict[str, object]]:
    """The records of valid ``(key, config, (pattern, tech, bus_bits))``
    members, evaluated as one :class:`HybridBatch`."""
    batch = HybridBatch(workload, *zip(*(design for _, _, design in members)))
    area = batch.area()
    inference = batch.inference()
    training = batch.training_step()
    columns = [inference.latency_s, inference.energy_j, training.edp_js,
               training.latency_s, *area.values()]
    rows = np.array(columns, dtype=np.float64).reshape(len(columns), -1).T
    return [{
        "schema": RECORD_SCHEMA, "key": key, "config": cfg,
        "metrics": {
            "area_mm2": total_mm2(mm2),
            "density": pattern.density,
            "inference_latency_s": latency,
            "inference_power_mw": avg_power_mw(energy_j, latency),
            "training_edp_js": edp,
            "training_latency_s": train_latency,
        },
    } for (key, cfg, (pattern, _, _)),
        (latency, energy_j, edp, train_latency, *mm2)
        in zip(members, rows.tolist())]


def _error_record(key: str, cfg: Dict[str, object],
                  exc: Exception) -> Dict[str, object]:
    return {"schema": RECORD_SCHEMA, "key": key, "config": cfg,
            "error": {"type": type(exc).__name__, "message": str(exc)}}


def _evaluate_isolated(workload: Workload, members: Sequence[tuple]
                       ) -> List[Dict[str, object]]:
    """:func:`_evaluate`, except that a config raising at formula time
    becomes its own error record: a batch that raises is retried one
    config at a time."""
    try:
        return _evaluate(workload, members)
    except Exception as exc:  # noqa: BLE001 — per-config fault isolation
        if len(members) == 1:
            key, cfg, _ = members[0]
            return [_error_record(key, cfg, exc)]
    return [record for member in members
            for record in _evaluate_isolated(workload, [member])]


def _design(cfg: Mapping[str, object],
            patterns: Dict[str, NMPattern],
            techs: Dict[Tuple[int, int, str], TechnologyModel]
            ) -> Tuple[Workload, Tuple[NMPattern, TechnologyModel, int]]:
    """Validate one normalized config into its workload and design levers.

    Raises exactly what building its ``HybridSparseDesign`` would, in the
    same order: pattern, tech variant, workload, then the design's own
    checks.  ``patterns`` and ``techs`` memoize the valid ones.
    """
    text = str(cfg["pattern"])
    pattern = patterns.get(text)
    if pattern is None:
        pattern = patterns[text] = NMPattern.parse(text)
    variant = (cfg["mram_rows"], cfg["weight_bits"], cfg["device"])
    tech = techs.get(variant)
    if tech is None:
        tech = techs[variant] = build_tech(cfg)
    workload = get_workload(str(cfg["workload"]))
    bus_bits = int(cfg["bus_bits"])
    check_hybrid_levers(tech, bus_bits)
    return workload, (pattern, tech, bus_bits)


@reentrant(reason="the sweep evaluator: records must be a pure function "
                  "of the (key, config) list, so the cache can key them "
                  "by config content alone")
def evaluate_records(keyed: Sequence[Tuple[str, Dict[str, object]]]
                     ) -> List[Dict[str, object]]:
    """One record per normalized ``(key, config)`` pair, in input order.

    Never raises on a bad config: it becomes an error record carrying the
    exception type and message, whether validation or the formulas raised.
    Valid configs are evaluated per workload, :data:`SLICE_CONFIGS` at a
    time, as one :class:`HybridBatch` each.
    """
    records: List[Optional[Dict[str, object]]] = [None] * len(keyed)
    patterns: Dict[str, NMPattern] = {}
    techs: Dict[Tuple[int, int, str], TechnologyModel] = {}
    valid: Dict[str, Tuple[Workload, List[tuple]]] = {}
    for i, (key, cfg) in enumerate(keyed):
        try:
            workload, design = _design(cfg, patterns, techs)
        except Exception as exc:  # noqa: BLE001 — per-config fault isolation
            records[i] = _error_record(key, cfg, exc)
            continue
        valid.setdefault(workload.name, (workload, []))[1].append(
            (i, key, cfg, design))
    for workload, members in valid.values():
        for start in range(0, len(members), SLICE_CONFIGS):
            chunk = members[start:start + SLICE_CONFIGS]
            for (i, *_), record in zip(chunk, _evaluate_isolated(
                    workload, [member[1:] for member in chunk])):
                records[i] = record
    return records


@reentrant(reason="the per-point evaluator: must be a pure function of "
                  "the config so the cache can key records by config "
                  "content alone")
def evaluate_config(config: Mapping[str, object]) -> Dict[str, object]:
    """Evaluate one design config; returns the canonical record dict.

    A batch of one through the sweep's formulas.  Raises on invalid
    configs, where :func:`evaluate_records` returns error records.
    """
    cfg = normalize_config(config)
    workload, design = _design(cfg, {}, {})
    return _evaluate(workload, [(config_key(cfg), cfg, design)])[0]
