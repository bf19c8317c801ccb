"""SweepSpec enumeration, validation, and content-hash stability."""

import dataclasses

import pytest

from repro.dse import (CONFIG_KEYS, DEFAULT_SPEC, DEVICE_CORNERS, FULL_SPEC,
                       PRESETS, SMOKE_SPEC, SweepSpec, canonical_json,
                       config_key, normalize_config)

#: Pinned content hash of the paper's flagship config: any accidental
#: change to the canonicalization scheme (key set, separators, type
#: coercion) invalidates every cache on disk and must show up here.
GOLDEN_CONFIG = {"pattern": "1:4", "bus_bits": 128, "mram_rows": 1024,
                 "weight_bits": 8, "device": "nominal"}
GOLDEN_KEY = \
    "128fe2a8ac91f6321b8444ed10dc83182c2dde0ab8ca2bfe350f3b4474e1f6c5"


class TestEnumeration:
    def test_size_is_the_cross_product(self):
        spec = SweepSpec(patterns=("1:4", "1:8", "2:8"), bus_bits=(64, 128),
                         mram_rows=(512, 1024), weight_bits=(4, 8),
                         devices=("nominal", "sram-low-leak"))
        assert spec.size == 3 * 2 * 2 * 2 * 2
        configs = spec.configs()
        assert len(configs) == spec.size

    def test_enumeration_is_deterministic_and_unique(self):
        spec = SweepSpec(patterns=("1:4", "2:4"), bus_bits=(64, 128))
        first, second = spec.configs(), spec.configs()
        assert first == second
        keys = [config_key(normalize_config(c)) for c in first]
        assert len(set(keys)) == len(keys)

    def test_lever_order_is_lexicographic(self):
        spec = SweepSpec(patterns=("1:8", "1:4"), bus_bits=(64, 128))
        configs = spec.configs()
        # patterns vary slowest (spec order), bus fastest.
        assert [c["pattern"] for c in configs] == ["1:8", "1:8", "1:4", "1:4"]
        assert [c["bus_bits"] for c in configs] == [64, 128, 64, 128]

    def test_every_config_has_the_canonical_key_set(self):
        for config in SMOKE_SPEC.configs():
            assert set(config) == set(CONFIG_KEYS)

    def test_presets(self):
        assert PRESETS["smoke"] is SMOKE_SPEC
        assert SMOKE_SPEC.size == 8
        assert DEFAULT_SPEC.size == 6 * 3 * 3 * 2 * 3
        # ROADMAP item 1 scale: thousands of configs.
        assert FULL_SPEC.size >= 1000


class TestValidation:
    def test_malformed_pattern(self):
        with pytest.raises(ValueError):
            SweepSpec(patterns=("1-4",))

    def test_overfull_pattern(self):
        with pytest.raises(ValueError):
            SweepSpec(patterns=("9:4",))

    def test_duplicate_lever_values(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(patterns=("1:4", "1:4"))

    def test_empty_lever(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(bus_bits=())

    def test_sub_byte_bus(self):
        with pytest.raises(ValueError):
            SweepSpec(bus_bits=(4,))

    def test_weight_bits_range(self):
        with pytest.raises(ValueError):
            SweepSpec(weight_bits=(1,))
        with pytest.raises(ValueError):
            SweepSpec(weight_bits=(16,))

    def test_unknown_device_corner(self):
        with pytest.raises(ValueError, match="device corner"):
            SweepSpec(devices=("does-not-exist",))

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="workload"):
            SweepSpec(workload="imagenet-full")

    def test_device_corners_cover_nominal(self):
        assert "nominal" in DEVICE_CORNERS
        assert DEVICE_CORNERS["nominal"] == {}


class TestNormalization:
    def test_fills_workload_default_and_coerces_types(self):
        cfg = normalize_config({"pattern": "1:4", "bus_bits": "128",
                                "mram_rows": 1024.0, "weight_bits": 8,
                                "device": "nominal"})
        assert cfg["workload"] == "paper"
        assert cfg["bus_bits"] == 128 and isinstance(cfg["bus_bits"], int)
        assert cfg["mram_rows"] == 1024

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            normalize_config(dict(GOLDEN_CONFIG, voltage=0.8))

    def test_missing_key_rejected(self):
        partial = {k: v for k, v in GOLDEN_CONFIG.items() if k != "pattern"}
        with pytest.raises(ValueError, match="missing config keys"):
            normalize_config(partial)

    def test_bad_lever_values_pass_normalization(self):
        """Value validation is the evaluator's job: a nonsense pattern must
        reach the worker so the sweep reports a per-config error."""
        cfg = normalize_config(dict(GOLDEN_CONFIG, pattern="9:4"))
        assert cfg["pattern"] == "9:4"


class TestContentHash:
    def test_key_independent_of_dict_ordering(self):
        forward = normalize_config(GOLDEN_CONFIG)
        reversed_items = dict(reversed(list(GOLDEN_CONFIG.items())))
        backward = normalize_config(reversed_items)
        assert canonical_json(forward) == canonical_json(backward)
        assert config_key(forward) == config_key(backward)

    def test_golden_key_pinned(self):
        assert config_key(normalize_config(GOLDEN_CONFIG)) == GOLDEN_KEY

    def test_any_lever_change_changes_the_key(self):
        base = normalize_config(GOLDEN_CONFIG)
        variants = [dict(GOLDEN_CONFIG, pattern="1:8"),
                    dict(GOLDEN_CONFIG, bus_bits=64),
                    dict(GOLDEN_CONFIG, mram_rows=512),
                    dict(GOLDEN_CONFIG, weight_bits=4),
                    dict(GOLDEN_CONFIG, device="sram-low-leak")]
        keys = {config_key(normalize_config(v)) for v in variants}
        assert config_key(base) not in keys
        assert len(keys) == len(variants)

    def test_canonical_json_is_compact_and_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{"a":2,"b":1}'

    def test_spec_replace_roundtrip(self):
        """CLI lever overrides go through dataclasses.replace — the result
        must revalidate and enumerate from scratch."""
        spec = dataclasses.replace(SMOKE_SPEC, bus_bits=(256,))
        assert spec.size == len(SMOKE_SPEC.patterns)
        with pytest.raises(ValueError):
            dataclasses.replace(SMOKE_SPEC, patterns=("bad",))
