"""Unit tests for the technology, device, cost, and area models."""

import numpy as np
import pytest

from repro.core.stats import PEStats
from repro.energy import (DEFAULT_TECH, MTJ, AreaModel, CostModel,
                          EnergyBreakdown, MTJParams, MRAMPESpec, SRAMPESpec,
                          table2_write_energy_check)


class TestTechSpecs:
    def test_table2_sram_values(self):
        """Leaf constants must equal the published Table 2 numbers."""
        s = SRAMPESpec()
        assert s.decoder_area == 0.0168
        assert s.bitcell_area == 0.0231
        assert s.shift_acc_area == 0.0148
        assert s.index_decoder_area == 0.06
        assert s.adder_area == 0.14
        assert s.adder_power == 12.11

    def test_table2_mram_values(self):
        m = MRAMPESpec()
        assert m.array_area == 0.00686
        assert m.resistance_p_ohm == 4408.0
        assert m.resistance_ap_ohm == 8759.0
        assert m.write_energy_pj_per_bit == 0.048

    def test_sram_pe_geometry(self):
        s = SRAMPESpec()
        assert s.array_bits == 128 * 96
        assert s.total_area == pytest.approx(0.2547, abs=1e-4)

    def test_mram_pe_geometry(self):
        m = MRAMPESpec()
        assert m.array_bits == 1024 * 512
        assert m.storage_bytes == 64 * 1024
        assert m.tmr == pytest.approx(0.987, abs=0.01)

    def test_write_asymmetry(self):
        """The design-driving asymmetry: MRAM writes cost much more."""
        s, m = SRAMPESpec(), MRAMPESpec()
        assert m.write_energy_pj_per_bit > 10 * s.write_energy_pj_per_bit
        assert m.write_latency_cycles > s.write_latency_cycles

    def test_leakage_asymmetry(self):
        """...and SRAM leaks much more per stored megabyte."""
        s, m = SRAMPESpec(), MRAMPESpec()
        sram_leak_per_pe = s.leakage_mw
        assert sram_leak_per_pe > 0
        # MRAM periphery leakage per 64 KB >> smaller than SRAM per 1.5 KB
        # scaled to the same capacity.
        sram_per_mb = s.leakage_mw_per_mb
        mram_per_mb = m.periphery_leakage_mw / (m.storage_bytes / 2**20)
        assert sram_per_mb > 10 * mram_per_mb


class TestMTJ:
    def test_resistance_states(self):
        cell = MTJ()
        assert cell.resistance_ohm == 4408.0
        cell.write(MTJ.STATE_AP)
        assert cell.resistance_ohm == 8759.0

    def test_write_energy_matches_table2(self):
        modelled, paper = table2_write_energy_check()
        assert modelled == pytest.approx(paper, rel=0.25)

    def test_sense_margin_positive(self):
        assert MTJ().sense_margin_ua() > 0

    def test_write_count_tracks(self):
        cell = MTJ()
        cell.write(MTJ.STATE_AP)
        cell.write(MTJ.STATE_P)
        cell.write(MTJ.STATE_P)  # no-op, same state
        assert cell.write_count == 2

    def test_switching_probability_regimes(self):
        cell = MTJ()
        ic = cell.params.critical_current_ua
        # strong overdrive: deterministic
        assert cell.switching_probability(3 * ic, 10.0) == 1.0
        # sub-threshold: rare
        assert cell.switching_probability(0.2 * ic, 3.0) < 0.01
        # monotone in current
        probs = [cell.switching_probability(f * ic, 3.0)
                 for f in (0.3, 0.6, 0.9)]
        assert probs == sorted(probs)

    def test_weak_write_can_fail(self):
        """Failure injection: sub-critical writes fail with high probability."""
        rng = np.random.default_rng(0)
        fails = 0
        for _ in range(50):
            cell = MTJ(state=MTJ.STATE_P)
            ok = cell.write(MTJ.STATE_AP, rng=rng, current_ua=5.0, pulse_ns=1.0)
            fails += (not ok)
        assert fails > 40

    def test_retention_exceeds_ten_years(self):
        assert MTJ().retention_years() > 10

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MTJParams(resistance_p_ohm=9000.0, resistance_ap_ohm=4000.0)
        with pytest.raises(ValueError):
            MTJ(state=5)


class TestCostModel:
    def test_mac_energy_positive_and_monotone(self):
        cost = CostModel()
        assert cost.mac_energy_pj(100, "sram") > 0
        assert cost.mac_energy_pj(200, "sram") == \
            2 * cost.mac_energy_pj(100, "sram")

    def test_sparse_overhead(self):
        cost = CostModel()
        assert cost.mac_energy_pj(100, "sram", sparse=True) > \
            cost.mac_energy_pj(100, "sram", sparse=False)

    def test_unknown_kind(self):
        cost = CostModel()
        with pytest.raises(ValueError):
            cost.mac_energy_pj(1, "dram")

    def test_write_energy_kinds(self):
        cost = CostModel()
        assert cost.write_energy_pj(1000, "mram") > \
            cost.write_energy_pj(1000, "sram")

    def test_write_latency_parallelism(self):
        cost = CostModel()
        serial = cost.write_latency_cycles(1e6, "sram", parallel_arrays=1)
        parallel = cost.write_latency_cycles(1e6, "sram", parallel_arrays=10)
        assert parallel == pytest.approx(serial / 10)
        with pytest.raises(ValueError):
            cost.write_latency_cycles(1e6, "sram", parallel_arrays=0)

    def test_leakage_power(self):
        cost = CostModel()
        assert cost.leakage_power_mw(2**20, 0) == \
            pytest.approx(DEFAULT_TECH.sram.leakage_mw_per_mb)
        assert cost.leakage_power_mw(0, 10) == \
            pytest.approx(10 * DEFAULT_TECH.mram.periphery_leakage_mw)

    def test_pe_stats_energy(self):
        cost = CostModel()
        stats = PEStats(macs=1000, weight_bits_written=800,
                        index_bits_written=400, activation_bits_read=640,
                        adder_tree_ops=10)
        sram = cost.pe_stats_energy(stats, "sram")
        mram = cost.pe_stats_energy(stats, "mram")
        assert sram.total_pj > 0 and mram.total_pj > 0
        assert mram.write_pj > sram.write_pj


class TestEnergyBreakdown:
    def test_totals_and_add(self):
        a = EnergyBreakdown(leakage_pj=1, compute_pj=2, write_pj=3, buffer_pj=4)
        assert a.total_pj == 10
        assert a.read_pj == 9
        b = a + a
        assert b.total_pj == 20

    def test_as_dict(self):
        d = EnergyBreakdown(leakage_pj=1).as_dict()
        assert d["total_pj"] == 1


class TestAreaModel:
    def test_mram_denser_than_sram(self):
        am = AreaModel()
        assert am.dense_macro_mm2(1e8, "mram") < am.dense_macro_mm2(1e8, "sram")
        assert am.dense_macro_mm2(1e8, "mram") == \
            pytest.approx(0.48 * am.dense_macro_mm2(1e8, "sram"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AreaModel().dense_macro_mm2(1e6, "flash")

    def test_dense_design_components(self):
        report = AreaModel().dense_design_area(1e8, "sram")
        assert report.total_mm2 > 0
        assert "sram_macros" in report.components
        assert 0 < report.components["sram_macros"] <= report.total_mm2

    def test_hybrid_design_components(self):
        from repro.core import HybridSparseDesign, paper_workload
        from repro.sparsity import NMPattern
        report = HybridSparseDesign(NMPattern(1, 4)).area(paper_workload())
        for key in ("mram_storage", "mram_sparse_periphery", "sram_storage",
                    "sram_pes"):
            assert report.components[key] > 0

    def test_area_monotone_in_bits(self):
        """A sparser backbone stores fewer bits and takes less area."""
        from repro.core import HybridSparseDesign, paper_workload
        from repro.sparsity import NMPattern
        w = paper_workload()
        sparse, dense = (HybridSparseDesign(NMPattern(n, 16))
                         for n in (1, 4))
        assert (sparse.backbone_compressed_bits(w)
                < dense.backbone_compressed_bits(w))
        assert sparse.area(w).total_mm2 < dense.area(w).total_mm2
