"""The fixed-format config key against ``json.dumps``, config by config.

``config_key`` renders a normalized config's canonical JSON from one
format string (``CONFIG_JSON``) instead of ``json.dumps``, and a spec
sweep keys its configs from the lever values (``SweepSpec.keyed``)
without normalizing or hashing any config on its own.  Both must give,
byte for byte, what normalizing each config and hashing its
``canonical_json`` gives: the key is a record's identity, the disk
cache's file name and the Pareto tiebreak.
"""

import hashlib

import pytest

from repro.dse import (DEFAULT_SPEC, FULL_SPEC, SMOKE_SPEC, NullCache,
                       SweepSpec, canonical_json, config_key,
                       normalize_config, run_sweep)

SPECS = {"smoke": SMOKE_SPEC, "default": DEFAULT_SPEC, "full": FULL_SPEC}

BASE = normalize_config({"pattern": "1:4", "bus_bits": 128,
                         "mram_rows": 1024, "weight_bits": 8,
                         "device": "nominal"})

#: Strings whose JSON literal is not the string in quotes.
AWKWARD_STRINGS = ['"', "\\", "\n", "\u00e9", "\u2028", "",
                   'a"b\\c\nd\u00e9', "\x00\x1f", "\U0001f600"]

#: Ints past int64, negative, zero, and one that came from a bool.
AWKWARD_INTS = [-1, -(2 ** 70), 2 ** 70, 0, True]

#: ``(field, value)``: each awkward value in each field of its type.
AWKWARD = ([(field, text) for field in ("pattern", "device", "workload")
            for text in AWKWARD_STRINGS]
           + [(field, number)
              for field in ("bus_bits", "mram_rows", "weight_bits")
              for number in AWKWARD_INTS])


def reference_key(config):
    return hashlib.sha256(canonical_json(config).encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_preset_key_is_the_canonical_json_hash(name):
    for config in SPECS[name].configs():
        assert config_key(config) == reference_key(config)


@pytest.mark.parametrize("field, value", AWKWARD,
                         ids=[f"{field}={value!r}" for field, value in AWKWARD])
def test_awkward_normalized_configs_key_like_canonical_json(field, value):
    config = normalize_config(dict(BASE, **{field: value}))
    assert config_key(config) == reference_key(config)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_keys_match_per_config_normalize_and_key(name):
    spec = SPECS[name]
    expected = [(config_key(normalize_config(c)), normalize_config(c))
                for c in spec.configs()]
    keyed = spec.keyed()
    assert keyed == expected
    # Same types too: 1 == True, but their JSON differs.
    assert [canonical_json(c) for _, c in keyed] == \
        [canonical_json(c) for _, c in expected]
    result = run_sweep(spec, cache=NullCache())
    assert [(r["key"], r["config"]) for r in result["records"]] == expected


def test_spec_coerces_levers_like_normalize_config():
    """A spec built from loose values still enumerates normalized configs."""
    spec = SweepSpec(patterns=["1:4"], bus_bits=["64", 128],
                     mram_rows=[True, 1024.0], weight_bits=[8],
                     devices=["nominal"])
    for key, config in spec.keyed():
        assert config == normalize_config(config)
        assert canonical_json(config) == canonical_json(
            normalize_config(config))
        assert key == reference_key(config)
