"""Pareto reduction properties: seeded point clouds, ties, idempotence.

Covers ``repro.dse.pareto.pareto_reduce``, the sweep engine's
record-level reducer.
"""

import numpy as np
import pytest

from repro.dse import (OBJECTIVE_KEYS, dominates, objective_vector,
                       pareto_reduce, record_sort_key)


def make_record(key: str, area, power, edp, density) -> dict:
    return {"schema": "repro.dse/record/1", "key": key,
            "config": {"label": key},
            "metrics": {"area_mm2": float(area),
                        "inference_power_mw": float(power),
                        "training_edp_js": float(edp),
                        "density": float(density),
                        "inference_latency_s": 0.0,
                        "training_latency_s": 0.0}}


def random_records(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.1, 10.0, size=(count, 4))
    return [make_record(f"{i:04d}", *row) for i, row in enumerate(values)]


# ---------------------------------------------------------------------------
# Record-level reducer (repro.dse)
# ---------------------------------------------------------------------------

class TestRecordFrontProperties:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_front_mutually_nondominating(self, seed):
        front = pareto_reduce(random_records(seed, 200))
        vectors = [objective_vector(r) for r in front]
        assert front, "random cloud must have a non-empty front"
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                if i != j:
                    assert not dominates(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
    def test_every_excluded_point_is_dominated(self, seed):
        records = random_records(seed, 200)
        front = pareto_reduce(records)
        front_keys = {r["key"] for r in front}
        front_vectors = [objective_vector(r) for r in front]
        for record in records:
            if record["key"] in front_keys:
                continue
            vec = objective_vector(record)
            assert any(dominates(f, vec) for f in front_vectors), \
                f"excluded record {record['key']} is not dominated"

    @pytest.mark.parametrize("seed", [0, 42])
    def test_idempotent(self, seed):
        front = pareto_reduce(random_records(seed, 200))
        assert pareto_reduce(front) == front

    @pytest.mark.parametrize("seed", [0, 42])
    def test_permutation_invariant(self, seed):
        records = random_records(seed, 120)
        front = pareto_reduce(records)
        rng = np.random.default_rng(seed + 1)
        for _ in range(3):
            shuffled = [records[i] for i in rng.permutation(len(records))]
            assert pareto_reduce(shuffled) == front

    def test_density_is_maximized(self):
        """Sign flip: higher density must win, all else equal."""
        low = make_record("low", 1.0, 1.0, 1.0, 0.125)
        high = make_record("high", 1.0, 1.0, 1.0, 0.5)
        front = pareto_reduce([low, high])
        assert [r["key"] for r in front] == ["high"]

    def test_objective_keys_cover_the_advertised_axes(self):
        assert set(OBJECTIVE_KEYS) == {"area_mm2", "inference_power_mw",
                                       "training_edp_js", "density"}


class TestRecordFrontTies:
    def test_duplicate_vectors_keep_exactly_one_survivor(self):
        a = make_record("bbbb", 1.0, 2.0, 3.0, 0.25)
        b = make_record("aaaa", 1.0, 2.0, 3.0, 0.25)     # identical metrics
        c = make_record("cccc", 5.0, 5.0, 5.0, 0.125)    # dominated
        front = pareto_reduce([a, b, c])
        assert len(front) == 1
        # Canonical representative: the duplicate with the smaller sort key
        # (content hash tie-break), regardless of input order.
        assert front[0]["key"] == "aaaa"
        assert pareto_reduce([c, a, b]) == front
        assert pareto_reduce([b, c, a]) == front

    def test_duplicate_of_a_dominated_point_stays_excluded(self):
        strong = make_record("s", 1.0, 1.0, 1.0, 0.5)
        weak1 = make_record("w1", 2.0, 2.0, 2.0, 0.25)
        weak2 = make_record("w2", 2.0, 2.0, 2.0, 0.25)
        front = pareto_reduce([weak1, strong, weak2])
        assert [r["key"] for r in front] == ["s"]

    def test_error_records_are_excluded(self):
        good = make_record("good", 1.0, 1.0, 1.0, 0.5)
        bad = {"schema": "repro.dse/record/1", "key": "bad",
               "config": {}, "error": {"type": "ValueError", "message": "x"}}
        front = pareto_reduce([bad, good])
        assert [r["key"] for r in front] == ["good"]

    def test_sort_key_total_order(self):
        a = make_record("aaaa", 1.0, 2.0, 3.0, 0.25)
        b = make_record("bbbb", 1.0, 2.0, 3.0, 0.25)
        assert record_sort_key(a) < record_sort_key(b)
