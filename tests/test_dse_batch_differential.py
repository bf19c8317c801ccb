"""Differential suite: the batched sweep path against per-config oracles.

``evaluate_records`` scores a sweep's valid configs together, a slice at a
time, and ``pareto_reduce`` eliminates over an objective array.  The
oracles below keep the per-config engine path and the skyline reducer
they replaced, line for line, except that the oracle evaluator charges
the workload through the per-layer loop formulas of
``LoopHybridSparseDesign``.  Every comparison is exact ``==``.
"""

import numpy as np
import pytest

import repro.core.designs as designs
import repro.dse.evaluate as evaluate_mod
from repro.dse import (FULL_SPEC, NullCache, config_key, evaluate_config,
                       evaluate_records, normalize_config, pareto_reduce,
                       run_sweep)
from repro.dse.evaluate import RECORD_SCHEMA, build_tech, get_workload
from repro.dse.pareto import objective_vector, record_sort_key
from repro.energy.area import total_mm2
from repro.sparsity.nm import NMPattern
from tests.test_designs_differential import LoopHybridSparseDesign
from tests.test_dse_pareto import dominates


# ----------------------------------------------------------------- oracles
def oracle_evaluate_config(config):
    cfg = normalize_config(config)
    pattern = NMPattern.parse(str(cfg["pattern"]))
    tech = build_tech(cfg)
    workload = get_workload(str(cfg["workload"]))
    design = LoopHybridSparseDesign(pattern, tech=tech,
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


def oracle_evaluate_record(config):
    try:
        return oracle_evaluate_config(config)
    except Exception as exc:  # noqa: BLE001 — per-shard fault isolation
        return {
            "schema": RECORD_SCHEMA,
            "key": config_key(normalize_config(config)),
            "config": normalize_config(config),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }


def oracle_pareto_reduce(records):
    valid = [r for r in records if "error" not in r and "metrics" in r]
    ordered = sorted(valid, key=record_sort_key)
    front = []
    front_vectors = []
    seen = set()
    for record in ordered:
        vec = objective_vector(record)
        if vec in seen:
            continue                      # duplicate of a processed vector
        seen.add(vec)
        if any(dominates(f, vec) for f in front_vectors):
            continue
        front.append(dict(record))
        front_vectors.append(vec)
    return front


# ----------------------------------------------------------------- configs
GOOD = {"pattern": "1:4", "bus_bits": 128, "mram_rows": 1024,
        "weight_bits": 8, "device": "nominal"}

#: One of each way a normalized config can fail evaluation.
BAD_CONFIGS = [
    dict(GOOD, pattern="9:4"),
    dict(GOOD, pattern="banana"),
    dict(GOOD, mram_rows=0),
    dict(GOOD, weight_bits=9),
    dict(GOOD, device="mram-warp-drive"),
    dict(GOOD, bus_bits=0),
    dict(GOOD, bus_bits=-64),
    dict(GOOD, workload="imagenet"),
]

#: Valid, but off the spec grid: non-dyadic densities, and levers beyond
#: int64 (bus widths only divide; MRAM capacity only divides).
EDGE_CONFIGS = [
    dict(GOOD, pattern=p, bus_bits=b, mram_rows=r, weight_bits=w, device=d)
    for p, b, r, w, d in [("1:3", 32, 1024, 8, "nominal"),
                          ("2:5", 512, 512, 4, "mram-fast-write"),
                          ("3:7", 96, 2048, 6, "sram-low-leak"),
                          ("5:12", 8, 777, 3, "mram-slow-write"),
                          ("1:4", 10 ** 30, 1024, 8, "nominal"),
                          ("1:8", 128, 10 ** 30, 8, "nominal"),
                          ("1:8", 128, 2 ** 62, 2, "nominal")]]


def interleaved_configs():
    """Every 7th FULL_SPEC config (643, so the 256-config slices end
    mid-batch), with the edge configs and bad configs woven through."""
    good = FULL_SPEC.configs()[::7] + EDGE_CONFIGS
    extras = BAD_CONFIGS * 3
    configs = []
    for i, cfg in enumerate(good):
        configs.append(cfg)
        if i % 23 == 0 and extras:
            configs.append(extras.pop())
    return configs + extras


def keyed(configs):
    out = []
    for raw in configs:
        cfg = normalize_config(raw)
        out.append((config_key(cfg), cfg))
    return out


# ------------------------------------------------------------------- tests
class TestBatchedRecords:
    def test_interleaved_batch_matches_per_config_oracle(self):
        configs = interleaved_configs()
        got = evaluate_records(keyed(configs))
        expect = [oracle_evaluate_record(c) for c in configs]
        assert sum("error" in r for r in expect) == 3 * len(BAD_CONFIGS)
        assert got == expect

    @pytest.mark.parametrize("slice_configs", [1, 7, 256])
    def test_slice_size_never_changes_a_record(self, monkeypatch,
                                               slice_configs):
        configs = FULL_SPEC.configs()[::31] + EDGE_CONFIGS + BAD_CONFIGS
        reference = evaluate_records(keyed(configs))
        monkeypatch.setattr(evaluate_mod, "SLICE_CONFIGS", slice_configs)
        assert evaluate_records(keyed(configs)) == reference

    def test_error_records_match_the_oracle_exactly(self):
        records = evaluate_records(keyed(BAD_CONFIGS))
        expect = [oracle_evaluate_record(c) for c in BAD_CONFIGS]
        assert records == expect
        assert all(r["error"]["message"] for r in records)

    def test_a_formula_failure_sinks_only_its_config(self, monkeypatch):
        """A config that raises inside the batched formulas becomes its
        own error record; its slice-mates keep their records."""
        configs = FULL_SPEC.configs()[::31] + EDGE_CONFIGS + BAD_CONFIGS
        reference = evaluate_records(keyed(configs))

        class Faulty(evaluate_mod.HybridBatch):
            def training_step(self, *args, **kwargs):
                if np.any(self.bus_bits == 96):
                    raise FloatingPointError("bus 96 overflowed")
                return super().training_step(*args, **kwargs)

        monkeypatch.setattr(evaluate_mod, "HybridBatch", Faulty)
        got = evaluate_records(keyed(configs))
        sunk = [i for i, record in enumerate(reference)
                if "error" not in record
                and record["config"]["bus_bits"] == 96]
        assert len(sunk) == 1 and len(reference) > 1
        for i, (record, expect) in enumerate(zip(got, reference)):
            if i in sunk:
                expect = {key: expect[key]
                          for key in ("schema", "key", "config")}
                expect["error"] = {"type": "FloatingPointError",
                                   "message": "bus 96 overflowed"}
            assert record == expect, i
        with pytest.raises(FloatingPointError):
            evaluate_config(configs[sunk[0]])

    def test_total_area_adds_like_a_column_sum(self):
        """A slice finishes ``area_mm2`` with ``total_mm2`` over (C, 1)
        columns and a lone design over floats; both must add left to
        right, although builtin ``sum()`` of floats is compensated from
        Python 3.12 on (there it gives 1.0 for the first row)."""
        rows = [[1e16, 1.0, -1e16], [0.1, 0.2, 0.3], [1e-300, 1e300, -1e300]]
        columns = [np.array([[row[i]] for row in rows]) for i in range(3)]
        by_row = [total_mm2(row) for row in rows]
        assert total_mm2(columns).ravel().tolist() == by_row
        assert by_row[0] == 0.0

    @pytest.mark.parametrize("config", EDGE_CONFIGS + [GOOD],
                             ids=lambda c: f"{c['pattern']}-{c['bus_bits']}"
                                           f"-{c['mram_rows']}")
    def test_evaluate_config_is_a_batch_of_one(self, config):
        assert evaluate_config(config) == oracle_evaluate_config(config)

    @pytest.mark.parametrize("config", BAD_CONFIGS)
    def test_evaluate_config_raises_like_the_oracle(self, config):
        with pytest.raises(Exception) as got:
            evaluate_config(config)
        with pytest.raises(Exception) as expect:
            oracle_evaluate_config(config)
        assert (type(got.value), str(got.value)) == \
            (type(expect.value), str(expect.value))

    def test_full_sweep_runs_in_one_pass_without_hashing_twice(
            self, monkeypatch):
        calls = []
        real = evaluate_mod.HybridBatch

        def counting(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(evaluate_mod, "HybridBatch", counting)
        monkeypatch.setattr(evaluate_mod, "config_key", None)
        monkeypatch.setattr(evaluate_mod, "normalize_config", None)
        result = run_sweep(FULL_SPEC, cache=NullCache())
        assert not result["errors"]
        assert calls == [256] * 17 + [4500 - 17 * 256]

    def test_levers_are_checked_once_per_tech_variant_and_bus(
            self, monkeypatch):
        checks, workloads = [], []
        real_check = evaluate_mod.check_hybrid_levers
        real_workload = evaluate_mod.get_workload

        def counting_check(tech, bus_bits):
            checks.append(bus_bits)
            return real_check(tech, bus_bits)

        def counting_workload(name):
            workloads.append(name)
            return real_workload(name)

        monkeypatch.setattr(evaluate_mod, "check_hybrid_levers",
                            counting_check)
        monkeypatch.setattr(evaluate_mod, "get_workload", counting_workload)
        assert not run_sweep(FULL_SPEC, cache=NullCache())["errors"]
        variants = (len(FULL_SPEC.mram_rows) * len(FULL_SPEC.weight_bits)
                    * len(FULL_SPEC.devices))
        assert len(checks) == variants * len(FULL_SPEC.bus_bits) <= 180
        assert workloads == ["paper"]


    def test_tech_scalars_are_derived_once_per_distinct_tech(
            self, monkeypatch):
        derived = []
        real = designs._tech_levers

        def counting(tech):
            derived.append(tech)
            return real(tech)

        monkeypatch.setattr(designs, "_LEVERS", {})
        monkeypatch.setattr(designs, "_tech_levers", counting)
        run_sweep(FULL_SPEC, cache=NullCache())
        variants = (len(FULL_SPEC.mram_rows) * len(FULL_SPEC.weight_bits)
                    * len(FULL_SPEC.devices))
        assert len(derived) == len({id(t) for t in derived}) == variants


def _make_record(key, vector):
    area, power, edp, density = (float(v) for v in vector)
    return {"schema": RECORD_SCHEMA, "key": key, "config": {"label": key},
            "metrics": {"area_mm2": area, "inference_power_mw": power,
                        "training_edp_js": edp, "density": density,
                        "inference_latency_s": 0.0,
                        "training_latency_s": 0.0}}


class TestParetoAgainstSkyline:
    @pytest.fixture(scope="class")
    def full_records(self):
        return run_sweep(FULL_SPEC, cache=NullCache())["records"]

    def test_full_sweep(self, full_records):
        front = pareto_reduce(full_records)
        assert front == oracle_pareto_reduce(full_records)
        assert len(front) > 1

    @pytest.mark.parametrize("seed", range(5))
    def test_random_subsets_with_duplicates(self, full_records, seed):
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(full_records), size=300, replace=False)
        subset = [full_records[i] for i in picks]
        # Same metrics under a new key: exact-duplicate objective vectors.
        for i in rng.choice(len(subset), size=60, replace=False):
            twin = dict(subset[i], key=f"dup-{seed}-{i:04d}")
            subset.insert(int(rng.integers(len(subset) + 1)), twin)
        subset.insert(7, {"schema": RECORD_SCHEMA, "key": "bad",
                          "config": {}, "error": {"type": "ValueError",
                                                  "message": "x"}})
        assert pareto_reduce(subset) == oracle_pareto_reduce(subset)

    @pytest.mark.parametrize("seed", range(200))
    def test_tie_heavy_integer_vectors(self, seed):
        """Small integer grids: most records tie on some objective, many
        on all of them, and some share a key too."""
        rng = np.random.default_rng(1000 + seed)
        count = int(rng.integers(1, 60))
        values = rng.integers(0, 4, size=(count, 4))
        keys = [f"k{int(k):03d}" for k in rng.integers(0, 2 * count, count)]
        records = [_make_record(key, row) for key, row in zip(keys, values)]
        assert pareto_reduce(records) == oracle_pareto_reduce(records)

    def test_empty_and_all_errors(self):
        error = {"schema": RECORD_SCHEMA, "key": "e", "config": {},
                 "error": {"type": "ValueError", "message": "x"}}
        assert pareto_reduce([]) == oracle_pareto_reduce([]) == []
        assert pareto_reduce([error]) == []
