"""Declarative sweep specifications: the cross-product of design levers.

A :class:`SweepSpec` names the values each lever may take; enumeration is
the full cross product, in a fixed lexicographic lever order, so the config
list — and therefore every downstream artifact (records, cache keys,
frontier JSON) — is a pure function of the spec, independent of worker
count, completion order, or dict iteration quirks.

Levers (all orthogonal):

* ``patterns`` — N:M structured-sparsity patterns (``"1:4"`` strings).
* ``bus_bits`` — shared activation-bus width, bits/cycle.
* ``mram_rows`` — MRAM sub-array depth (array area scales with it, so the
  µm²/bit density of Table 2 is preserved).
* ``weight_bits`` — datapath weight precision (packing + write volumes).
* ``devices`` — named technology corners over :mod:`repro.energy.tech`
  (write energy/latency, leakage).

Config identity is a content hash: the canonical JSON (sorted keys,
compact separators) of the normalized config dict, SHA-256'd.  Two dicts
with the same items in any insertion order hash identically.  Keys render
that JSON from one fixed format (:data:`CONFIG_JSON`), not ``json.dumps``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
# What json.dumps returns for a str, without its per-call encoder set-up.
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from ..sparsity.nm import NMPattern

#: Schema tag stamped into spec dumps.
SPEC_SCHEMA = "repro.dse/spec/1"

#: The exact key set of a normalized config dict.
CONFIG_KEYS = ("pattern", "bus_bits", "mram_rows", "weight_bits", "device",
               "workload")

#: Named device corners: dotted ``<spec>.<field>`` overrides applied to the
#: frozen Table 2 technology dataclasses via ``dataclasses.replace``.
#: Values bracket the literature ranges the tech module's ASSUMPTION
#: comments cite (STT-MRAM write pulse 3-30 ns; SRAM leakage halved by a
#: low-leakage cell/back-bias option).
DEVICE_CORNERS: Dict[str, Dict[str, object]] = {
    "nominal": {},
    "mram-fast-write": {"mram.write_latency_cycles": 3,
                        "mram.write_energy_pj_per_bit": 0.030},
    "mram-slow-write": {"mram.write_latency_cycles": 10,
                        "mram.write_energy_pj_per_bit": 0.080},
    "sram-low-leak": {"sram.leakage_mw_per_mb": 4.0},
}

#: Workload names the evaluator accepts (resolved in repro.dse.evaluate).
WORKLOAD_NAMES = ("paper",)


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------

def canonical_json(mapping: Mapping[str, object]) -> str:
    """Order-independent JSON: sorted keys, compact separators."""
    return json.dumps(dict(mapping), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


#: :func:`canonical_json` of a normalized config: ints go in as ``%d``,
#: strings as their JSON literals.
CONFIG_JSON = ('{"bus_bits":%d,"device":%s,"mram_rows":%d,"pattern":%s,'
               '"weight_bits":%d,"workload":%s}')


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def config_key(config: Mapping[str, object]) -> str:
    """SHA-256 content hash of a normalized config's canonical JSON."""
    return _sha256(CONFIG_JSON % (
        config["bus_bits"], _quote(config["device"]), config["mram_rows"],
        _quote(config["pattern"]), config["weight_bits"],
        _quote(config["workload"])))


def normalize_config(config: Mapping[str, object]) -> Dict[str, object]:
    """Coerce a raw mapping to the canonical config shape.

    Fills the ``workload`` default, coerces lever types, and rejects
    unknown keys — but does *not* validate lever values (a normalized
    config with a nonsense pattern must still flow to a worker so the
    sweep can report a per-config error instead of dying up front).
    """
    unknown = set(config) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = set(CONFIG_KEYS) - {"workload"} - set(config)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    return {
        "pattern": str(config["pattern"]),
        "bus_bits": int(config["bus_bits"]),
        "mram_rows": int(config["mram_rows"]),
        "weight_bits": int(config["weight_bits"]),
        "device": str(config["device"]),
        "workload": str(config.get("workload", "paper")),
    }


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------

def _unique(name: str, values: Sequence) -> Tuple:
    out = tuple(values)
    if not out:
        raise ValueError(f"spec lever {name!r} must be non-empty")
    if len(set(out)) != len(out):
        raise ValueError(f"spec lever {name!r} has duplicate values: {out}")
    return out


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """The declarative cross product of design levers."""

    patterns: Tuple[str, ...] = ("1:4", "1:8")
    bus_bits: Tuple[int, ...] = (128,)
    mram_rows: Tuple[int, ...] = (1024,)
    weight_bits: Tuple[int, ...] = (8,)
    devices: Tuple[str, ...] = ("nominal",)
    workload: str = "paper"

    def __post_init__(self):
        # Coerced as normalize_config coerces: enumerated configs are
        # normalized by construction.
        for lever, kind in (("patterns", str), ("bus_bits", int),
                            ("mram_rows", int), ("weight_bits", int),
                            ("devices", str)):
            object.__setattr__(self, lever, _unique(
                lever, [kind(v) for v in getattr(self, lever)]))
        object.__setattr__(self, "workload", str(self.workload))
        for pattern in self.patterns:
            NMPattern.parse(pattern)      # raises on malformed patterns
        for bus in self.bus_bits:
            if bus < 8:
                raise ValueError(f"bus width {bus} below one operand byte")
        for rows in self.mram_rows:
            if rows < 1:
                raise ValueError(f"mram_rows must be >= 1, got {rows}")
        for bits in self.weight_bits:
            if not 2 <= bits <= 8:
                raise ValueError(
                    f"weight_bits {bits} outside the modeled 2..8 range")
        for device in self.devices:
            if device not in DEVICE_CORNERS:
                raise ValueError(
                    f"unknown device corner {device!r} "
                    f"(known: {sorted(DEVICE_CORNERS)})")
        if self.workload not in WORKLOAD_NAMES:
            raise ValueError(f"unknown workload {self.workload!r} "
                             f"(known: {WORKLOAD_NAMES})")

    @property
    def size(self) -> int:
        return (len(self.patterns) * len(self.bus_bits) * len(self.mram_rows)
                * len(self.weight_bits) * len(self.devices))

    def enumerate(self) -> Iterator[Dict[str, object]]:
        """All configs, in the fixed lexicographic lever order."""
        for pattern, bus, rows, bits, device in itertools.product(
                self.patterns, self.bus_bits, self.mram_rows,
                self.weight_bits, self.devices):
            yield {"pattern": pattern, "bus_bits": bus, "mram_rows": rows,
                   "weight_bits": bits, "device": device,
                   "workload": self.workload}

    def configs(self) -> List[Dict[str, object]]:
        return list(self.enumerate())

    def keyed(self) -> List[Tuple[str, Dict[str, object]]]:
        """``(config_key(c), c)`` for every config, in enumeration order,
        with each string lever JSON-quoted once for the whole spec."""
        workload = _quote(self.workload)
        quoted = itertools.product(
            map(_quote, self.patterns), self.bus_bits, self.mram_rows,
            self.weight_bits, map(_quote, self.devices))
        return [(_sha256(CONFIG_JSON % (bus, device, rows, pattern, bits,
                                        workload)), cfg)
                for (pattern, bus, rows, bits, device), cfg
                in zip(quoted, self.enumerate())]

    def as_dict(self) -> Dict[str, object]:
        return {"schema": SPEC_SCHEMA,
                "patterns": list(self.patterns),
                "bus_bits": list(self.bus_bits),
                "mram_rows": list(self.mram_rows),
                "weight_bits": list(self.weight_bits),
                "devices": list(self.devices),
                "workload": self.workload}


def _all_patterns(group_sizes: Sequence[int]) -> Tuple[str, ...]:
    """Every n:m with n < m for the given group sizes (densities < 1)."""
    return tuple(f"{n}:{m}" for m in group_sizes for n in range(1, m))


#: Small fixed sweep: the CI smoke job and its tier-1 hash pin.
SMOKE_SPEC = SweepSpec(
    patterns=("1:8", "2:8", "1:4", "2:4"),
    bus_bits=(64, 128),
    mram_rows=(1024,),
    weight_bits=(8,),
    devices=("nominal",),
)

#: The everyday sweep: paper levers plus geometry/precision/device corners.
DEFAULT_SPEC = SweepSpec(
    patterns=("1:16", "1:8", "2:8", "1:4", "2:4", "4:8"),
    bus_bits=(64, 128, 256),
    mram_rows=(512, 1024, 2048),
    weight_bits=(4, 8),
    devices=("nominal", "mram-fast-write", "sram-low-leak"),
)

#: Production-scale exploration: every representable N:M pattern x full
#: lever ranges — thousands of configs (ROADMAP item 1 scale).
FULL_SPEC = SweepSpec(
    patterns=_all_patterns((4, 8, 16)),
    bus_bits=(32, 64, 128, 256, 512),
    mram_rows=(512, 1024, 2048),
    weight_bits=(4, 6, 8),
    devices=tuple(sorted(DEVICE_CORNERS)),
)

PRESETS: Dict[str, SweepSpec] = {
    "smoke": SMOKE_SPEC,
    "default": DEFAULT_SPEC,
    "full": FULL_SPEC,
}
