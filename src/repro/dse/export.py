"""Deterministic exports: frontier/records JSON, CSV, stdout tables."""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Dict, List, Mapping, Optional, Sequence

from ..harness.reporting import format_table
from .evaluate import METRIC_KEYS
from .spec import CONFIG_KEYS


def dumps_canonical(doc: Mapping[str, object]) -> str:
    """Sorted-keys, indented JSON with a trailing newline — the byte-stable
    serialization the determinism tests and the CI ``cmp`` rely on."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(doc: Mapping[str, object], path) -> pathlib.Path:
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))
    return p


def write_csv(records: Sequence[Mapping[str, object]], path) -> pathlib.Path:
    """One row per record: config levers, metrics, error (stable columns)."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    fields = (["key"] + list(CONFIG_KEYS) + list(METRIC_KEYS) + ["error"])
    with open(p, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for record in records:
            row: Dict[str, object] = {"key": record.get("key", "")}
            config = record.get("config", {})
            row.update({k: config.get(k, "") for k in CONFIG_KEYS})
            metrics = record.get("metrics", {})
            row.update({k: metrics.get(k, "") for k in METRIC_KEYS})
            error = record.get("error")
            row["error"] = (f"{error['type']}: {error['message']}"
                            if error else "")
            writer.writerow(row)
    return p


def render_frontier(result: Mapping[str, object],
                    limit: Optional[int] = 20) -> str:
    """Stdout table of the Pareto frontier (truncated for big sweeps)."""
    frontier: List[Mapping[str, object]] = list(result["frontier"])
    shown = frontier if limit is None else frontier[:limit]
    rows = []
    for record in shown:
        cfg, met = record["config"], record["metrics"]
        rows.append([
            cfg["pattern"], cfg["bus_bits"], cfg["mram_rows"],
            cfg["weight_bits"], cfg["device"],
            met["area_mm2"], met["inference_power_mw"],
            met["training_edp_js"], met["density"],
        ])
    title = (f"Pareto frontier — {len(frontier)} of "
             f"{result['configs']} configs")
    if len(shown) < len(frontier):
        title += f" (showing {len(shown)})"
    return format_table(
        ["Pattern", "Bus", "Rows", "Wbits", "Device", "Area (mm2)",
         "Power (mW)", "EDP (Js)", "Density"],
        rows, title=title)


def render_summary(result: Mapping[str, object]) -> str:
    """The one-line sweep accounting (configs, frontier size, errors)."""
    return (f"{result['configs']} configs, "
            f"{len(result['frontier'])} on frontier, "
            f"{len(result['errors'])} errors")
