"""Sweep-engine determinism, per-config fault isolation, and the CLI.

The headline guarantees under test: the frontier JSON is a function of
the config set alone, and a warm (fully cached) run reproduces the cold
one exactly.
"""

import hashlib
import json

import pytest

import repro.__main__ as repro_cli
import repro.dse.__main__ as dse_cli
from repro.dse import (FULL_SPEC, SMOKE_SPEC, NullCache, SweepSpec,
                       dumps_canonical, frontier_doc, normalize_config,
                       run_sweep)

SPEC = SweepSpec(patterns=("1:4", "2:8"), bus_bits=(64, 128))

BAD_CONFIG = {"pattern": "9:4", "bus_bits": 128, "mram_rows": 1024,
              "weight_bits": 8, "device": "nominal"}
GOOD_CONFIG = {"pattern": "1:4", "bus_bits": 128, "mram_rows": 1024,
               "weight_bits": 8, "device": "nominal"}


class TestWorkerParity:
    def test_worker_count_is_excluded_from_the_frontier_doc(self):
        result = run_sweep(spec=SPEC)
        doc = frontier_doc(result)
        text = dumps_canonical(doc)
        assert "workers" not in result
        assert "workers" not in doc
        assert "cache" not in doc
        assert '"workers"' not in text


class TestFaultIsolation:
    def test_failing_config_becomes_an_error_record(self):
        result = run_sweep(configs=[GOOD_CONFIG, BAD_CONFIG])
        assert result["configs"] == 2
        assert len(result["errors"]) == 1
        error = result["errors"][0]["error"]
        assert error["type"] and error["message"]
        # The good config still completed and made the frontier.
        assert len(result["frontier"]) == 1
        assert result["frontier"][0]["config"]["pattern"] == "1:4"

    def test_error_records_do_not_depend_on_the_batch(self):
        configs = [GOOD_CONFIG, BAD_CONFIG,
                   dict(GOOD_CONFIG, bus_bits=64)]
        together = run_sweep(configs=configs)
        alone = [run_sweep(configs=[c])["records"][0] for c in configs]
        assert together["records"] == alone
        assert together["errors"] == [alone[1]]

    def test_all_failing_sweep_has_empty_frontier(self):
        result = run_sweep(configs=[BAD_CONFIG])
        assert result["frontier"] == []
        assert len(result["errors"]) == 1


class TestMergeDeterminism:
    def test_input_order_does_not_change_the_frontier_doc(self):
        configs = SPEC.configs()
        forward = run_sweep(configs=configs)
        backward = run_sweep(configs=list(reversed(configs)))
        assert dumps_canonical(frontier_doc(forward)) == \
            dumps_canonical(frontier_doc(backward))

    def test_duplicate_configs_collapse_to_one_evaluation(self):
        result = run_sweep(configs=[GOOD_CONFIG, dict(GOOD_CONFIG),
                                    GOOD_CONFIG])
        assert result["configs"] == 1
        assert len(result["records"]) == 1

    def test_records_follow_enumeration_order(self):
        result = run_sweep(spec=SPEC)
        keys = [r["key"] for r in result["records"]]
        expected = [r["config"] for r in result["records"]]
        assert expected == [normalize_config(c) for c in SPEC.configs()]
        assert len(set(keys)) == SPEC.size

    def test_spec_and_explicit_configs_agree(self):
        via_spec = run_sweep(spec=SPEC)
        via_list = run_sweep(configs=SPEC.configs())
        assert via_spec["records"] == via_list["records"]

    def test_needs_a_spec_or_configs(self):
        with pytest.raises(ValueError):
            run_sweep()


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestFullSweepPinned:
    """Every FULL_SPEC record and the frontier, to the last bit.

    A reassociated float sum in the analytical model moves some record's
    last bit, which changes these hashes on every Python version.
    """

    RECORDS_SHA256 = (
        "836cf8bcbecf5b7b6e5617135605f7beb4566a6606feb5e2501a63a2edb6130b")
    FRONTIER_SHA256 = (
        "56fe38502b399c9164c5739a4a6a536b3e5d671b34597eb47c4a7dfc27a52749")

    def test_records_and_frontier_hashes(self):
        result = run_sweep(FULL_SPEC, cache=NullCache())
        assert result["configs"] == 4500
        assert not result["errors"]
        assert _sha256(result["records"]) == self.RECORDS_SHA256
        assert _sha256(frontier_doc(result)) == self.FRONTIER_SHA256


class TestCli:
    def run(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return dse_cli.main(argv)

    def smoke_args(self, extra):
        return ["--preset", "smoke"] + extra

    def test_cold_then_warm_round_trip(self, tmp_path, monkeypatch, capsys):
        code = self.run(self.smoke_args(["--out", "cold.json"]),
                        tmp_path, monkeypatch)
        assert code == 0
        # Warm run must serve every config from cache and agree exactly.
        code = self.run(self.smoke_args(
            ["--out", "warm.json", "--min-cache-hits",
             str(SMOKE_SPEC.size)]), tmp_path, monkeypatch)
        assert code == 0
        cold = (tmp_path / "cold.json").read_bytes()
        warm = (tmp_path / "warm.json").read_bytes()
        assert cold == warm
        out = capsys.readouterr().out
        assert f"{SMOKE_SPEC.size} hits" in out

    def test_min_cache_hits_fails_a_cold_run(self, tmp_path, monkeypatch):
        code = self.run(self.smoke_args(["--min-cache-hits", "1"]),
                        tmp_path, monkeypatch)
        assert code == 2

    def test_no_cache_writes_nothing(self, tmp_path, monkeypatch):
        code = self.run(self.smoke_args(["--no-cache"]),
                        tmp_path, monkeypatch)
        assert code == 0
        assert not (tmp_path / "results").exists()

    def test_workers_flag_is_gone(self, tmp_path, monkeypatch):
        with pytest.raises(SystemExit) as excinfo:
            self.run(self.smoke_args(["--no-cache", "--workers", "2"]),
                     tmp_path, monkeypatch)
        assert excinfo.value.code == 2

    def test_csv_and_records_exports(self, tmp_path, monkeypatch):
        code = self.run(self.smoke_args(
            ["--no-cache", "--csv", "sweep.csv", "--records", "all.json"]),
            tmp_path, monkeypatch)
        assert code == 0
        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + SMOKE_SPEC.size
        assert csv_lines[0].startswith("key,pattern")
        doc = json.loads((tmp_path / "all.json").read_text())
        assert doc["configs"] == SMOKE_SPEC.size

    def test_lever_overrides_shrink_the_sweep(self, tmp_path, monkeypatch):
        code = self.run(
            ["--patterns", "1:4", "--bus-bits", "128", "--mram-rows", "1024",
             "--weight-bits", "8", "--devices", "nominal", "--no-cache",
             "--records", "one.json"],
            tmp_path, monkeypatch)
        assert code == 0
        doc = json.loads((tmp_path / "one.json").read_text())
        assert doc["configs"] == 1

    def test_invalid_lever_override_is_a_usage_error(self, tmp_path,
                                                     monkeypatch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.run(["--patterns", "banana"], tmp_path, monkeypatch)
        assert excinfo.value.code == 2
        assert "banana" in capsys.readouterr().err

    def test_all_configs_failing_exits_one(self, tmp_path, monkeypatch):
        def all_fail(spec=None, configs=None, cache=None):
            return {"schema": "repro.dse/sweep/1", "spec": None,
                    "configs": 1,
                    "records": [], "frontier": [],
                    "errors": [{"key": "k", "config": {},
                                "error": {"type": "ValueError",
                                          "message": "boom"}}],
                    "cache": None}

        monkeypatch.setattr(dse_cli, "run_sweep", all_fail)
        code = self.run(self.smoke_args(["--no-cache"]),
                        tmp_path, monkeypatch)
        assert code == 1

    def test_trace_writes_sweep_spans(self, tmp_path, monkeypatch):
        code = self.run(self.smoke_args(
            ["--no-cache", "--trace", "dse.trace.json"]),
            tmp_path, monkeypatch)
        assert code == 0
        trace = (tmp_path / "dse.trace.json").read_text()
        assert "dse.sweep" in trace
        assert "dse.reduce" in trace

    def test_top_level_cli_forwards_the_dse_subcommand(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = repro_cli.main(["dse", "--preset", "smoke", "--no-cache",
                               "--out", "fwd.json"])
        assert code == 0
        doc = json.loads((tmp_path / "fwd.json").read_text())
        assert doc["schema"] == "repro.dse/frontier/1"

    def test_dse_is_listed_as_an_experiment(self):
        assert "dse" in repro_cli.EXPERIMENTS
