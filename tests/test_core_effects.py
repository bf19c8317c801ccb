"""Runtime behaviour of the @reentrant / @effects contract decorators."""

import pickle

import pytest

from repro.core.effects import (EFFECTS_ATTR, REENTRANT_ATTR, effects,
                                reentrant)


def _top_level_worker(x):
    return x * 2


class TestReentrant:
    def test_bare_form_marks_and_returns_unchanged(self):
        def f(x):
            return x
        marked = reentrant(f)
        assert marked is f
        assert getattr(f, REENTRANT_ATTR) == {"reason": ""}

    def test_called_form_records_reason(self):
        @reentrant(reason="pool worker")
        def f(x):
            return x
        assert getattr(f, REENTRANT_ATTR) == {"reason": "pool worker"}

    def test_decorated_worker_stays_picklable(self):
        """No wrapper means process pools ship the function exactly as
        before — the property R10 exists to protect."""
        marked = reentrant(_top_level_worker)
        clone = pickle.loads(pickle.dumps(marked))
        assert clone(21) == 42


class TestEffects:
    def test_attaches_declared_summary(self):
        @effects("READS_GLOBAL", "IO", reason="reads a config file")
        def f():
            return 0
        assert getattr(f, EFFECTS_ATTR) == {
            "effects": ("READS_GLOBAL", "IO"),
            "reason": "reads a config file",
        }

    def test_empty_names_declare_purity(self):
        @effects(reason="observably pure")
        def f():
            return 0
        assert getattr(f, EFFECTS_ATTR)["effects"] == ()

    def test_unknown_effect_name_rejected(self):
        with pytest.raises(ValueError, match="unknown effect"):
            effects("LAUNDERS_STATE", reason="nope")

    def test_missing_reason_rejected(self):
        with pytest.raises(ValueError, match="reason"):
            effects("IO", reason="")

    def test_real_memo_carries_its_declaration(self):
        from repro.dse.evaluate import get_workload
        declared = getattr(get_workload, EFFECTS_ATTR)
        assert declared["effects"] == ("READS_GLOBAL",)
        assert declared["reason"]

    def test_real_evaluator_carries_its_contract(self):
        from repro.dse.evaluate import evaluate_records
        from repro.dse.spec import config_key, normalize_config
        assert getattr(evaluate_records, REENTRANT_ATTR)
        cfg = normalize_config({"pattern": "1:4", "bus_bits": 64,
                                "mram_rows": 512, "weight_bits": 8,
                                "device": "nominal"})
        (record,) = evaluate_records([(config_key(cfg), cfg)])
        assert "error" not in record
