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
                       config_key, dumps_canonical, evaluate_batch,
                       evaluate_records, frontier_doc, normalize_config,
                       pareto_reduce, run_sweep)
from repro.obs import validate_trace_events

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


def keyed(configs):
    """Normalized ``(key, config)`` pairs, as the engine's callers pass."""
    return [(config_key(cfg), cfg) for cfg in map(normalize_config, configs)]


class TestFaultIsolation:
    def test_failing_config_becomes_an_error_record(self):
        records = evaluate_records(keyed([GOOD_CONFIG, BAD_CONFIG]))
        assert len(records) == 2
        error = records[1]["error"]
        assert error["type"] and error["message"]
        # The good config still completed and made the frontier.
        assert "error" not in records[0]
        frontier = pareto_reduce(records)
        assert len(frontier) == 1
        assert frontier[0]["config"]["pattern"] == "1:4"

    def test_error_records_do_not_depend_on_the_batch(self):
        configs = [GOOD_CONFIG, BAD_CONFIG,
                   dict(GOOD_CONFIG, bus_bits=64)]
        together = evaluate_records(keyed(configs))
        alone = [evaluate_records(keyed([c]))[0] for c in configs]
        assert together == alone
        assert [r for r in together if "error" in r] == [alone[1]]

    def test_all_failing_sweep_has_empty_frontier(self):
        records, served = evaluate_batch(keyed([BAD_CONFIG]),
                                         cache=NullCache())
        assert pareto_reduce(list(records.values())) == []
        assert list(served.values()) == ["miss"]
        assert all("error" in r for r in records.values())


class TestMergeDeterminism:
    def test_records_follow_enumeration_order(self):
        result = run_sweep(spec=SPEC)
        keys = [r["key"] for r in result["records"]]
        expected = [r["config"] for r in result["records"]]
        assert expected == [normalize_config(c) for c in SPEC.configs()]
        assert len(set(keys)) == SPEC.size


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestFullSweepPinned:
    """Every FULL_SPEC and SMOKE_SPEC record and frontier, to the last bit.

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

    SMOKE_RECORDS_SHA256 = (
        "7ba7927480f47ee8f46fc4314694dbde87fe670da07d87d72f28b87373622f81")
    SMOKE_FRONTIER_SHA256 = (
        "8969235065747d917930b5c2915cea87bb71382c54cc0c9a4c1207fd53f1d655")

    def test_smoke_records_and_frontier_hashes(self):
        result = run_sweep(SMOKE_SPEC, cache=NullCache())
        assert result["configs"] == 8
        assert len(result["frontier"]) == 8
        assert not result["errors"]
        assert _sha256(result["records"]) == self.SMOKE_RECORDS_SHA256
        assert _sha256(frontier_doc(result)) == self.SMOKE_FRONTIER_SHA256


class TestCli:
    def run(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return dse_cli.main(argv)

    def smoke_args(self, extra):
        return ["--preset", "smoke"] + extra

    def test_two_runs_write_identical_frontiers(self, tmp_path,
                                                monkeypatch, capsys):
        for name in ("first.json", "second.json"):
            code = self.run(self.smoke_args(["--out", name]),
                            tmp_path, monkeypatch)
            assert code == 0
        first = (tmp_path / "first.json").read_bytes()
        assert (tmp_path / "second.json").read_bytes() == first
        out = capsys.readouterr().out
        assert f"{SMOKE_SPEC.size} configs, " in out
        assert "cache" not in out

    def test_sweep_creates_only_its_output(self, tmp_path, monkeypatch):
        """A sweep recomputes: it reads and writes no record cache, so an
        empty directory ends up holding the frontier file alone."""
        code = self.run(self.smoke_args(["--out", "f.json"]),
                        tmp_path, monkeypatch)
        assert code == 0
        assert sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*")) == ["f.json"]

    def test_workers_flag_is_gone(self, tmp_path, monkeypatch):
        with pytest.raises(SystemExit) as excinfo:
            self.run(self.smoke_args(["--workers", "2"]),
                     tmp_path, monkeypatch)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", [
        ["--cache-dir", "c"], ["--no-cache"], ["--refresh"],
        ["--min-cache-hits", "1"]], ids=lambda flag: flag[0])
    def test_cache_flags_are_gone(self, tmp_path, monkeypatch, flag):
        with pytest.raises(SystemExit) as excinfo:
            self.run(self.smoke_args(flag), tmp_path, monkeypatch)
        assert excinfo.value.code == 2

    def test_csv_and_records_exports(self, tmp_path, monkeypatch):
        code = self.run(self.smoke_args(
            ["--csv", "sweep.csv", "--records", "all.json"]),
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
             "--weight-bits", "8", "--devices", "nominal",
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
                                          "message": "boom"}}]}

        monkeypatch.setattr(dse_cli, "run_sweep", all_fail)
        code = self.run(self.smoke_args([]), tmp_path, monkeypatch)
        assert code == 1

    def test_trace_writes_sweep_spans(self, tmp_path, monkeypatch):
        code = self.run(self.smoke_args(["--trace", "dse.trace.json"]),
                        tmp_path, monkeypatch)
        assert code == 0
        doc = json.loads((tmp_path / "dse.trace.json").read_text())
        assert validate_trace_events(doc) == []
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"dse.sweep", "dse.reduce"} <= names

    def test_top_level_cli_forwards_the_dse_subcommand(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = repro_cli.main(["dse", "--preset", "smoke",
                               "--out", "fwd.json"])
        assert code == 0
        doc = json.loads((tmp_path / "fwd.json").read_text())
        assert doc["schema"] == "repro.dse/frontier/1"

    def test_dse_is_listed_as_an_experiment(self):
        assert "dse" in repro_cli.EXPERIMENTS
