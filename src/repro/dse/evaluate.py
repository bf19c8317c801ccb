"""Per-point evaluator: one normalized config -> one metric record.

This is the reentrant library form of the fig7/fig8-style analytical
evaluation: build the technology variant the config names, instantiate the
hybrid design at the config's pattern/bus width, and charge the paper
workload through the same area/latency/energy models the harnesses use.
Pure function of its input — no global state, no clocks, no randomness —
so shards evaluated in any process, in any order, produce bit-identical
records, and the content-hash cache can treat the record as a function of
the config alone.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Mapping, Tuple

from ..core.designs import HybridSparseDesign
from ..core.effects import effects, reentrant
from ..core.workload import Workload, paper_workload
from ..energy.tech import DEFAULT_TECH, TechnologyModel
from ..sparsity.nm import NMPattern
from .spec import DEVICE_CORNERS, config_key, normalize_config

#: Schema tag stamped into every evaluation record.
RECORD_SCHEMA = "repro.dse/record/1"

#: Metric keys every successful record carries, in canonical order.
METRIC_KEYS = ("area_mm2", "density", "inference_latency_s",
               "inference_power_mw", "training_edp_js", "training_latency_s")

#: Per-process workload cache: paper-scale extraction is cheap but not free,
#: and a sharded sweep evaluates thousands of configs per worker.  Written
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


@reentrant(reason="sharded sweeps build tech variants in every worker")
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


@reentrant(reason="the per-point evaluator: must be a pure function of "
                  "the config so shards merge deterministically and the "
                  "cache can key records by config content alone")
def evaluate_config(config: Mapping[str, object]) -> Dict[str, object]:
    """Evaluate one design config; returns the canonical record dict.

    Raises on invalid configs — the engine turns exceptions into
    per-config error records so one bad shard never sinks a sweep.
    """
    cfg = normalize_config(config)
    pattern = NMPattern.parse(str(cfg["pattern"]))
    tech = build_tech(cfg)
    workload = get_workload(str(cfg["workload"]))
    design = HybridSparseDesign(pattern, tech=tech,
                                bus_bits=int(cfg["bus_bits"]))

    area = design.area(workload)
    inference = design.inference(workload)
    training = design.training_step(workload)
    metrics = {
        "area_mm2": area.total_mm2,
        "density": pattern.density,
        "inference_latency_s": inference.latency_s,
        "inference_power_mw": inference.avg_power_mw,
        "training_edp_js": training.edp_js,
        "training_latency_s": training.latency_s,
    }
    return {
        "schema": RECORD_SCHEMA,
        "key": config_key(cfg),
        "config": cfg,
        "metrics": metrics,
    }
