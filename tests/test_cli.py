"""Tests for the top-level CLI (python -m repro)."""

import json
import os
import subprocess
import sys
from pathlib import Path

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

    @pytest.mark.parametrize("argv, flag", [
        (["figures", "--json", "figures.json"], "--json"),
        (["table2", "--fast"], "--fast"),
        (["table2", "--out", "d"], "--out"),
        (["fig7", "--fast", "--out", "d"], "--fast, --out"),
        (["all", "--json", "all.json"], "--json"),
        (["all", "--trace", "all.trace.json"], "--trace"),
        (["info", "--fast"], "--fast"),
    ])
    def test_flag_the_experiment_ignores_is_a_usage_error(
            self, argv, flag, tmp_path, monkeypatch, capsys):
        """A flag that would do nothing exits 2 before anything runs, and
        writes no file."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"{argv[0]} takes no {flag}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_only_the_named_experiment_is_imported(self):
        """In a fresh interpreter, ``python -m repro table2`` loads no
        other harness module."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "from repro.__main__ import main\n"
                "main(['table2'])\n"
                "print(*sorted(m for m in sys.modules\n"
                "              if m.startswith('repro.harness')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True,
                             text=True).stdout
        assert out.splitlines()[-1].split() == [
            "repro.harness", "repro.harness.reporting",
            "repro.harness.table2"]
