"""Tests for the experiment harness (table/figure regeneration)."""

import json

import pytest

from repro.harness.fig7 import build_fig7, render_fig7
from repro.harness.fig8 import build_fig8, render_fig8
from repro.harness.reporting import format_table, save_json
from repro.harness.table1 import Table1Config, render_table1, run_table1
from repro.harness.table2 import build_table2, render_table2


class TestReporting:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", 0.001]], title="T")
        assert "T" in out and "a" in out and "2.500" in out

    def test_save_json(self, tmp_path):
        path = tmp_path / "out" / "r.json"
        save_json({"x": 1}, str(path))
        assert json.loads(path.read_text()) == {"x": 1}
        save_json({"x": 1}, None)  # no-op


class TestTable2:
    def test_matches_paper_leaf_values(self):
        result = build_table2()
        assert result["sram_pe"]["Adder"]["area_mm2"] == 0.14
        assert result["mram_pe"]["Memory Array (1024x512)"]["area_mm2"] == 0.00686
        assert result["mtj_device"]["resistance_p_ohm"] == 4408.0
        assert result["mtj_device"]["set_reset_energy_pj_paper"] == 0.048

    def test_mtj_model_close_to_paper(self):
        dev = build_table2()["mtj_device"]
        assert dev["set_reset_energy_pj_model"] == \
            pytest.approx(dev["set_reset_energy_pj_paper"], rel=0.25)

    def test_render(self):
        out = render_table2(build_table2())
        assert "SRAM PE" in out and "MRAM PE" in out and "Index Decoder" in out


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return build_fig7()

    def test_four_designs(self, result):
        assert [r["design"] for r in result["rows"]] == \
            ["SRAM[29]", "MRAM[30]", "Hybrid(1:4)", "Hybrid(1:8)"]

    def test_reference_normalized(self, result):
        assert result["rows"][0]["area_rel"] == 1.0
        assert result["rows"][0]["power_rel"] == 1.0

    def test_area_shape_matches_paper(self, result):
        rels = {r["design"]: r["area_rel"] for r in result["rows"]}
        paper = result["paper_area_rel"]
        assert rels["MRAM[30]"] == pytest.approx(paper["MRAM[30]"], abs=0.05)
        assert rels["Hybrid(1:4)"] == pytest.approx(paper["Hybrid(1:4)"],
                                                    abs=0.07)
        # 1:8 saves at least as much as the paper reports
        assert rels["Hybrid(1:8)"] <= paper["Hybrid(1:8)"] + 0.05

    def test_power_series(self, result):
        """Log-scale panel: every other design sits orders of magnitude
        below SRAM, and the hybrid between SRAM and the MRAM floor."""
        rels = {r["design"]: r["power_rel"] for r in result["rows"]}
        for key in ("MRAM[30]", "Hybrid(1:4)", "Hybrid(1:8)"):
            assert rels[key] < 0.1
        assert rels["MRAM[30]"] < rels["Hybrid(1:4)"] < rels["SRAM[29]"]

    def test_leakage_split(self, result):
        rows = {r["design"]: r for r in result["rows"]}
        sram, mram = rows["SRAM[29]"], rows["MRAM[30]"]
        # SRAM's leakage share exceeds the non-volatile MRAM's...
        assert sram["leakage_rel"] / sram["power_rel"] > \
            mram["leakage_rel"] / mram["power_rel"]
        # ...and in absolute terms SRAM leaks orders of magnitude more.
        assert sram["leakage_rel"] > 100 * mram["leakage_rel"]

    def test_power_split_sums(self, result):
        for row in result["rows"]:
            assert row["leakage_rel"] + row["read_rel"] == \
                pytest.approx(row["power_rel"], rel=1e-6)

    def test_render(self, result):
        out = render_fig7(result)
        assert "Fig. 7" in out and "Hybrid(1:4)" in out


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return build_fig8()

    def test_six_bars_in_paper_order(self, result):
        groups = [r["group"] for r in result["rows"]]
        assert groups == ["Finetune All Weight"] * 2 + \
            ["RepNet without Sparsity"] * 2 + ["RepNet with Sparsity"] * 2

    def test_reference_is_one(self, result):
        assert result["rows"][-1]["edp_rel"] == pytest.approx(1.0)

    def test_ours_lowest(self, result):
        ours = [r["edp_rel"] for r in result["rows"]
                if r["group"] == "RepNet with Sparsity"]
        others = [r["edp_rel"] for r in result["rows"]
                  if r["group"] != "RepNet with Sparsity"]
        assert max(ours) < min(others)

    def test_groups_monotone(self, result):
        by = {(r["group"], r["design"]): r["edp_rel"] for r in result["rows"]}
        assert by[("Finetune All Weight", "SRAM[29]")] > \
            by[("RepNet without Sparsity", "SRAM[29]")]
        assert by[("Finetune All Weight", "MRAM[30]")] > \
            by[("RepNet without Sparsity", "MRAM[30]")]

    def test_mram_training_penalty(self, result):
        by = {(r["group"], r["design"]): r["edp_rel"] for r in result["rows"]}
        assert by[("Finetune All Weight", "MRAM[30]")] > \
            10 * by[("Finetune All Weight", "SRAM[29]")]

    def test_decades_of_span(self, result):
        vals = [r["edp_rel"] for r in result["rows"]]
        assert max(vals) / min(vals) > 100

    def test_render(self, result):
        out = render_fig8(result)
        assert "Fig. 8" in out and "Ours (1:8)" in out


class TestTable1Fast:
    """Smoke-level run of the accuracy study at the fast budget."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_table1(Table1Config.fast())

    def test_all_rows_present(self, result):
        assert len(result["rows"]) == 5
        labels = [r["config"] for r in result["rows"]]
        assert labels[0].startswith("Dense")

    def test_accuracies_in_range(self, result):
        for row in result["rows"]:
            for task in result["tasks"]:
                assert 0.0 <= row[task] <= 1.0
            assert 0.0 <= row["backbone@base"] <= 1.0

    def test_dense_backbone_learns(self, result):
        """Even at the fast budget the dense backbone must beat chance."""
        chance = 1.0 / result["config"]["base_classes"]
        assert result["rows"][0]["backbone@base"] > chance

    def test_dense_beats_chance_everywhere(self, result):
        dense = result["rows"][0]
        # fast config: every task has >= 2 classes -> chance <= 0.5
        for task in result["tasks"]:
            assert dense[task] > 0.2

    def test_render(self, result):
        out = render_table1(result)
        assert "Table 1" in out and "Dense RepNet" in out
