"""Tests for the top-level CLI (python -m repro)."""

import json

import pytest

from repro.__main__ import EXPERIMENTS, main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "experiments:" in out

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig7_with_json(self, tmp_path, capsys):
        path = tmp_path / "fig7.json"
        assert main(["fig7", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data["rows"]) == 4

    def test_fig8_runs(self, capsys):
        assert main(["fig8"]) == 0
        assert "Fig. 8" in capsys.readouterr().out

    def test_figures_runs(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7a" in out and "Fig. 8" in out

    def test_endurance_runs(self, capsys):
        assert main(["endurance"]) == 0
        assert "endurance" in capsys.readouterr().out.lower()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_corpus_is_not_an_experiment(self, capsys):
        """`corpus` is no subcommand: argparse rejects it as unknown."""
        assert "corpus" not in EXPERIMENTS
        with pytest.raises(SystemExit) as exc:
            main(["corpus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "corpus" in err

    def test_experiment_list_complete(self):
        assert set(EXPERIMENTS) >= {"table1", "table2", "fig7", "fig8",
                                    "figures", "endurance", "ablations",
                                    "dse", "serve", "all", "info"}

    def test_serve_forwards_to_serve_main(self, capsys):
        # --help exercises the forwarding path without binding a socket.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "python -m repro.serve" in out
        assert "--cache-dir" in out
        assert "--job-workers" not in out
        assert "--refresh" not in out
        assert "--window-ms" not in out
