"""Tests for the design-point models: the paper's Fig. 7 / Fig. 8 shapes.

These are the reproduction's headline architecture claims — each test pins
an ordering or rough factor the paper reports.
"""

import dataclasses

import pytest

from repro.core.designs import DenseCIMDesign, HybridSparseDesign
from repro.core.workload import paper_workload
from repro.energy.tech import DEFAULT_TECH, TechnologyModel
from repro.sparsity import NMPattern


@pytest.fixture(scope="module")
def workload():
    return paper_workload()


@pytest.fixture(scope="module")
def designs(workload):
    return {
        "sram": DenseCIMDesign("sram", "all"),
        "mram": DenseCIMDesign("mram", "all"),
        "h14": HybridSparseDesign(NMPattern(1, 4)),
        "h18": HybridSparseDesign(NMPattern(1, 8)),
    }


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            DenseCIMDesign("flash")

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            DenseCIMDesign("sram", "some")


class TestArea(object):
    """Fig. 7 right panel: area normalized to SRAM[29]."""

    def test_mram_half_of_sram(self, workload, designs):
        rel = designs["mram"].area(workload).total_mm2 \
            / designs["sram"].area(workload).total_mm2
        assert rel == pytest.approx(0.48, abs=0.03)

    def test_hybrid_14_about_a_third(self, workload, designs):
        rel = designs["h14"].area(workload).total_mm2 \
            / designs["sram"].area(workload).total_mm2
        assert rel == pytest.approx(0.37, abs=0.06)

    def test_area_ordering(self, workload, designs):
        areas = [designs[k].area(workload).total_mm2
                 for k in ("sram", "mram", "h14", "h18")]
        assert areas[0] > areas[1] > areas[2] > areas[3]

    def test_hybrid_smaller_than_repnet_scope_baselines(self, workload):
        """At the Rep-Net update scope the hybrid also undercuts both
        single-technology designs on area (TestEDP covers their EDP)."""
        hybrid = HybridSparseDesign(NMPattern(1, 8)).area(workload).total_mm2
        for kind in ("sram", "mram"):
            dense = DenseCIMDesign(kind, "learnable").area(workload)
            assert hybrid < dense.total_mm2

    def test_sram_pes_small_fraction_of_hybrid(self, workload, designs):
        """Paper: 'only about 4% of the area is dedicated to SRAM PEs'."""
        report = designs["h14"].area(workload)
        sram_frac = (report.components["sram_pes"]
                     + report.components["sram_storage"]) / report.total_mm2
        # Paper reports ~4%; our Rep-Net fraction (6.6% of weights) and the
        # Table 2 SRAM PE's compute-heavy area land higher, but the SRAM
        # portion must remain a clear minority of the design.
        assert sram_frac < 0.25


class TestPower:
    """Fig. 7 left panel (log scale): inference power normalized to SRAM[29]."""

    def test_sram_highest(self, workload, designs):
        p = {k: d.inference(workload).avg_power_mw
             for k, d in designs.items()}
        assert p["sram"] > 10 * max(p["mram"], p["h14"], p["h18"])

    def test_mram_lowest(self, workload, designs):
        p = {k: d.inference(workload).avg_power_mw
             for k, d in designs.items()}
        assert p["mram"] <= p["h14"]
        assert p["mram"] <= p["h18"] * 1.5  # 1:8 approaches the MRAM floor

    def test_hybrid_between(self, workload, designs):
        """Paper: hybrid power efficiency sits between SRAM and MRAM."""
        p = {k: d.inference(workload).avg_power_mw
             for k, d in designs.items()}
        assert p["mram"] < p["h14"] < p["sram"]

    def test_orders_of_magnitude(self, workload, designs):
        """Log-plot positions: the non-SRAM designs are ~1e-2..1e-3 of SRAM."""
        ref = designs["sram"].inference(workload).avg_power_mw
        for key in ("mram", "h14", "h18"):
            rel = designs[key].inference(workload).avg_power_mw / ref
            assert 1e-4 < rel < 0.1

    def test_sram_leakage_dominated_vs_mram(self, workload, designs):
        """Leakage share must be substantial for SRAM, tiny for MRAM."""
        e_s = designs["sram"].inference(workload).energy
        e_m = designs["mram"].inference(workload).energy
        assert e_s.leakage_pj / e_s.total_pj > 0.2
        assert e_m.leakage_pj / e_m.total_pj < 0.2


class TestEDP:
    """Fig. 8: continual-learning EDP normalized to Ours (1:8)."""

    @pytest.fixture(scope="class")
    def edp(self, workload):
        cfgs = {
            "sram_ft": DenseCIMDesign("sram", "all"),
            "mram_ft": DenseCIMDesign("mram", "all"),
            "sram_rep": DenseCIMDesign("sram", "learnable"),
            "mram_rep": DenseCIMDesign("mram", "learnable"),
            "h14": HybridSparseDesign(NMPattern(1, 4)),
            "h18": HybridSparseDesign(NMPattern(1, 8)),
        }
        return {k: d.training_step(workload).edp_js for k, d in cfgs.items()}

    def test_hybrid_lowest(self, edp):
        """The paper's headline: the hybrid sparse design wins EDP."""
        ours = min(edp["h14"], edp["h18"])
        for key in ("sram_ft", "mram_ft", "sram_rep", "mram_rep"):
            assert edp[key] > ours

    def test_1_8_at_or_below_1_4(self, edp):
        assert edp["h18"] <= edp["h14"]

    def test_finetune_all_worst_per_technology(self, edp):
        assert edp["sram_ft"] > edp["sram_rep"]
        assert edp["mram_ft"] > edp["mram_rep"]

    def test_mram_writes_penalize_training(self, edp):
        """Within each scope, training on MRAM costs orders of magnitude
        more EDP than on SRAM — the reason the backbone is frozen."""
        assert edp["mram_ft"] > 10 * edp["sram_ft"]
        assert edp["mram_rep"] > 10 * edp["sram_rep"]

    def test_log_scale_span(self, edp):
        """The paper's Fig. 8 axis spans ~4 decades; so must ours."""
        span = max(edp.values()) / min(edp.values())
        assert span > 100

    def test_repnet_reduces_edp(self, edp):
        """Moving from full fine-tuning to Rep-Net reduces EDP (paper text)."""
        assert edp["sram_rep"] < edp["sram_ft"]
        assert edp["mram_rep"] < edp["mram_ft"]


class TestTrainingStepDetails:
    def test_include_forward_increases_cost(self, workload):
        d = HybridSparseDesign(NMPattern(1, 8))
        bare = d.training_step(workload)
        full = d.training_step(workload, include_forward=True)
        assert full.latency_s > bare.latency_s
        assert full.energy.total_pj > bare.energy.total_pj

    def test_batch_scales_compute(self, workload):
        d = DenseCIMDesign("sram", "learnable")
        small = d.training_step(workload, batch=8)
        large = d.training_step(workload, batch=64)
        assert large.energy.compute_pj == \
            pytest.approx(8 * small.energy.compute_pj, rel=0.01)

    def test_hybrid_writes_sram_only(self, workload):
        """Hybrid training write energy must be priced at SRAM rates: the
        same bit volume written to MRAM would cost 24x more."""
        d = HybridSparseDesign(NMPattern(1, 4))
        report = d.training_step(workload)
        cost = d.cost
        bits = report.energy.write_pj / cost.e_write_sram_pj_per_bit
        assert bits > 0  # write traffic exists and was priced as SRAM

    def test_perf_report_dict(self, workload):
        r = DenseCIMDesign("sram", "all").inference(workload)
        d = r.as_dict()
        assert d["design"] and d["latency_s"] > 0 and d["total_pj"] > 0


class TestSizing:
    def test_hybrid_pe_pool_from_reference_density(self, workload):
        h14 = HybridSparseDesign(NMPattern(1, 4))
        h18 = HybridSparseDesign(NMPattern(1, 8))
        # pool sized at the 1:8 reference density -> identical for both
        assert h14.sram_compute_pe_count(workload) == \
            h18.sram_compute_pe_count(workload)

    def test_hybrid_storage_shrinks_with_sparsity(self, workload):
        h14 = HybridSparseDesign(NMPattern(1, 4))
        h18 = HybridSparseDesign(NMPattern(1, 8))
        assert h18.backbone_compressed_bits(workload) < \
            h14.backbone_compressed_bits(workload)
        assert h18.mram_array_count(workload) < h14.mram_array_count(workload)


class TestAblations:
    """One architectural lever at a time, and the direction of its effect."""

    PATTERNS = [NMPattern(1, 16), NMPattern(1, 8), NMPattern(1, 4),
                NMPattern(2, 4)]

    @staticmethod
    def _tech_with_mram_write(pj_per_bit):
        mram = dataclasses.replace(DEFAULT_TECH.mram,
                                   write_energy_pj_per_bit=pj_per_bit)
        return TechnologyModel(sram=DEFAULT_TECH.sram, mram=mram,
                               global_blocks=DEFAULT_TECH.global_blocks)

    def test_area_and_training_energy_monotone_in_density(self, workload):
        designs = [HybridSparseDesign(p) for p in self.PATTERNS]
        areas = [d.area(workload).total_mm2 for d in designs]
        energies = [d.training_step(workload).energy_j for d in designs]
        # density 1/16 < 1/8 < 1/4 < 1/2 -> both strictly increasing
        assert areas == sorted(set(areas))
        assert energies == sorted(set(energies))

    def test_write_energy_scales_training_cost(self, workload):
        cheap = DenseCIMDesign(
            "mram", "all", tech=self._tech_with_mram_write(0.002))
        expensive = DenseCIMDesign(
            "mram", "all", tech=self._tech_with_mram_write(0.48))
        e_cheap = cheap.training_step(workload).energy.write_pj
        e_exp = expensive.training_step(workload).energy.write_pj
        assert e_exp == pytest.approx(240 * e_cheap, rel=0.01)

    def test_latency_asymmetry_dominates_edp(self, workload):
        """Even with free writes, MRAM in-place training loses on EDP: the
        hybrid's case rests on the write latency as well as the energy."""
        free_writes = DenseCIMDesign(
            "mram", "all", tech=self._tech_with_mram_write(1e-6))
        sram = DenseCIMDesign("sram", "all")
        assert free_writes.training_step(workload).edp_js > \
            10 * sram.training_step(workload).edp_js

    def test_wider_bus_speeds_dense_baseline(self, workload):
        latencies = []
        for bits in (64, 128, 256, 512, 1024):
            cls = type(f"Bus{bits}", (DenseCIMDesign,),
                       {"ACTIVATION_BUS_BITS": bits})
            latencies.append(cls("sram", "all").inference(workload).latency_s)
        assert latencies == sorted(set(latencies), reverse=True)
