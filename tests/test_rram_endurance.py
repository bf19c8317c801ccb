"""Tests for the RRAM technology variant and the endurance study."""

import math

import numpy as np
import pytest

from repro.core.designs import DenseCIMDesign, HybridSparseDesign
from repro.core.workload import paper_workload
from repro.energy.endurance import (ENDURANCE_CYCLES, endurance_report,
                                    steps_per_continual_task,
                                    tasks_until_failure,
                                    training_lifetime_study)
from repro.energy.rram import (RRAMCell, RRAMParams, compare_nvm_write_cost,
                               rram_pe_spec, rram_technology)
from repro.sparsity import NMPattern


class TestRRAMDevice:
    def test_two_states(self):
        cell = RRAMCell()
        assert cell.resistance_ohm == 150e3
        cell.write(RRAMCell.STATE_LRS)
        assert cell.resistance_ohm == 10e3

    def test_on_off_ratio(self):
        assert RRAMCell().on_off_ratio == pytest.approx(15.0)

    def test_write_energy_higher_than_mtj(self):
        rram_e, mram_e = compare_nvm_write_cost()
        assert rram_e > 10 * mram_e

    def test_endurance_wearout(self):
        cell = RRAMCell(RRAMParams(endurance_cycles=4))
        for i in range(3):
            assert cell.write(i % 2)  # alternate states
        assert not cell.write(1)      # 4th toggling write fails

    def test_same_state_write_free(self):
        cell = RRAMCell(RRAMParams(endurance_cycles=2), state=RRAMCell.STATE_HRS)
        for _ in range(10):
            assert cell.write(RRAMCell.STATE_HRS)
        assert cell.write_count == 0

    def test_stochastic_early_failure(self):
        rng = np.random.default_rng(0)
        params = RRAMParams(endurance_cycles=100)
        failures = []
        for _ in range(50):
            cell = RRAMCell(params)
            n = 0
            while cell.write(n % 2, rng=rng) and n < 10000:
                n += 1
            failures.append(n)
        # variation: not all cells fail at exactly the nominal endurance
        assert len(set(failures)) > 5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RRAMParams(resistance_lrs_ohm=1e5, resistance_hrs_ohm=1e4)
        with pytest.raises(ValueError):
            RRAMCell(state=7)


class TestRRAMTechnology:
    def test_spec_carries_rram_constants(self):
        spec = rram_pe_spec()
        assert spec.write_energy_pj_per_bit > 1.0
        assert spec.write_latency_cycles >= 25  # ~50 ns at 500 MHz
        assert spec.resistance_ap_ohm == 150e3

    def test_designs_accept_rram_tech(self):
        w = paper_workload()
        tech = rram_technology()
        hybrid = HybridSparseDesign(NMPattern(1, 8), tech=tech)
        report = hybrid.training_step(w)
        assert report.edp_js > 0

    def test_rram_hybrid_still_beats_rram_dense(self):
        """Portability claim: the hybrid structure wins regardless of NVM."""
        w = paper_workload()
        tech = rram_technology()
        hybrid = HybridSparseDesign(NMPattern(1, 8), tech=tech)
        dense = DenseCIMDesign("mram", "all", tech=tech)
        assert dense.training_step(w).edp_js > \
            100 * hybrid.training_step(w).edp_js

    def test_rram_finetune_worse_than_mram_finetune(self):
        """Higher write energy + longer pulses -> RRAM in-place training is
        even worse than MRAM in-place training."""
        w = paper_workload()
        rram = DenseCIMDesign("mram", "all", tech=rram_technology())
        mram = DenseCIMDesign("mram", "all")
        assert rram.training_step(w).energy.write_pj > \
            mram.training_step(w).energy.write_pj


class TestEndurance:
    def test_hybrid_unlimited(self):
        w = paper_workload()
        rows = training_lifetime_study(w)
        hybrid = [r for r in rows if r.config.startswith("Hybrid")]
        assert len(hybrid) == 1
        assert math.isinf(hybrid[0].steps_to_failure)

    def test_rram_finetune_limited(self):
        w = paper_workload()
        rows = {(r.config, r.memory): r for r in training_lifetime_study(w)}
        rram_ft = rows[("Finetune-all", "rram")]
        assert not math.isinf(rram_ft.steps_to_failure)
        # HfOx endurance / 2 writes per step
        assert rram_ft.steps_to_failure == ENDURANCE_CYCLES["rram"] / 2

    def test_mram_outlives_rram(self):
        w = paper_workload()
        rows = {(r.config, r.memory): r for r in training_lifetime_study(w)}
        assert rows[("Finetune-all", "mram")].steps_to_failure > \
            1e4 * rows[("Finetune-all", "rram")].steps_to_failure

    def test_tasks_until_failure(self):
        report = endurance_report("x", "rram", update_weights=1000,
                                  total_cells=10000)
        tasks = tasks_until_failure(report)
        assert 0 < tasks < float("inf")
        steps = steps_per_continual_task()
        assert tasks == pytest.approx(report.steps_to_failure / steps)

    def test_unknown_memory(self):
        with pytest.raises(ValueError):
            endurance_report("x", "flash", 10, 100)

    def test_invalid_cells(self):
        with pytest.raises(ValueError):
            endurance_report("x", "sram", 10, 0)


class TestEnduranceHarness:
    def test_build_and_render(self):
        from repro.harness.endurance import build_endurance, render_endurance
        result = build_endurance()
        assert len(result["lifetime"]) == 7
        out = render_endurance(result)
        assert "endurance" in out.lower()
        assert "RRAM" in out
        # hybrid rows report infinite lifetime
        hybrid = [r for r in result["lifetime"]
                  if r["config"].startswith("Hybrid")]
        assert math.isinf(hybrid[0]["tasks_to_failure"])
