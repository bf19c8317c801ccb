"""Regression snapshots: lock in the reproduced headline numbers.

These tests pin the exact values the EXPERIMENTS.md tables record (with
small tolerances for floating-point churn), so refactors of the cost models
cannot silently drift the reproduction away from its documented state.  If
a change *intentionally* moves these numbers, update EXPERIMENTS.md and the
snapshots together.
"""

import json
import pathlib

import pytest

from repro.harness.ablations import build_ablations
from repro.harness.endurance import build_endurance
from repro.harness.fig7 import build_fig7
from repro.harness.fig8 import build_fig8
from repro.harness.reporting import save_json
from repro.harness.table2 import build_table2

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "results"

# -------------------------- recorded 2026-07-04 (see EXPERIMENTS.md) -----
FIG7_AREA_REL = {
    "SRAM[29]": 1.000,
    "MRAM[30]": 0.480,
    "Hybrid(1:4)": 0.373,
    "Hybrid(1:8)": 0.218,
}

FIG7_POWER_REL = {
    "SRAM[29]": 1.000,
    "MRAM[30]": 7.46e-3,
    "Hybrid(1:4)": 1.42e-2,
    "Hybrid(1:8)": 9.17e-3,
}

FIG8_EDP_REL = {
    ("Finetune All Weight", "SRAM[29]"): 23.7,
    ("Finetune All Weight", "MRAM[30]"): 3384.0,
    ("RepNet without Sparsity", "SRAM[29]"): 3.17,
    ("RepNet without Sparsity", "MRAM[30]"): 358.0,
    ("RepNet with Sparsity", "Ours (1:4)"): 1.18,
    ("RepNet with Sparsity", "Ours (1:8)"): 1.00,
}


@pytest.fixture(scope="module")
def fig7():
    return build_fig7()


@pytest.fixture(scope="module")
def fig8():
    return build_fig8()


class TestFig7Snapshot:
    def test_area(self, fig7):
        for row in fig7["rows"]:
            expected = FIG7_AREA_REL[row["design"]]
            assert row["area_rel"] == pytest.approx(expected, rel=0.02), \
                row["design"]

    def test_power(self, fig7):
        for row in fig7["rows"]:
            expected = FIG7_POWER_REL[row["design"]]
            assert row["power_rel"] == pytest.approx(expected, rel=0.05), \
                row["design"]


class TestFig8Snapshot:
    def test_edp(self, fig8):
        for row in fig8["rows"]:
            expected = FIG8_EDP_REL[(row["group"], row["design"])]
            assert row["edp_rel"] == pytest.approx(expected, rel=0.05), \
                (row["group"], row["design"])


class TestTable2Snapshot:
    def test_totals(self):
        result = build_table2()
        assert result["sram_pe"]["TOTAL (one 128x96 PE)"]["area_mm2"] == \
            pytest.approx(0.2547, abs=1e-4)
        assert result["mram_pe"]["TOTAL (one 1024x512 PE)"]["power_mw"] == \
            pytest.approx(19.394, abs=1e-3)
        assert result["mtj_device"]["set_reset_energy_pj_model"] == \
            pytest.approx(0.0460, abs=2e-3)


class TestCommittedResults:
    """``results/*.json`` are exactly what the harness builds today.

    The snapshots above allow a few percent; this pins every value, so a
    reassociated float sum in the cost models fails here.  Regenerate a
    file with ``python -m repro <name> --json results/<name>.json``.
    """

    @pytest.mark.parametrize("name, build", [
        ("fig7", build_fig7),
        ("fig8", build_fig8),
        ("table2", build_table2),
        ("ablations", build_ablations),
        ("endurance", build_endurance),
    ])
    def test_matches_harness_output(self, name, build):
        built = json.loads(json.dumps(build(), default=str))
        committed = json.loads((RESULTS / f"{name}.json").read_text())
        assert built == committed

    @pytest.mark.parametrize("name, build", [
        ("fig7", build_fig7),
        ("fig8", build_fig8),
        ("ablations", build_ablations),
        ("endurance", build_endurance),
    ])
    def test_bytes_match_harness_output(self, name, build, tmp_path):
        """Byte for byte, as ``python -m repro <name> --json`` writes it:
        an int turned float, or a numpy scalar's repr, fails here even
        where the parsed values still compare equal."""
        path = tmp_path / f"{name}.json"
        save_json(build(), str(path))
        assert path.read_bytes() == (RESULTS / f"{name}.json").read_bytes()
