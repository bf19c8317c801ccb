"""Engine-level tests for repro.lint: registry, reporters, CLI.

The rule-specific positive/negative fixtures live in test_lint_rules.py;
this file covers the machinery those rules run on — rule selection,
report rendering, exit codes and file discovery.
"""

import json

import pytest

from repro.lint import (Finding, all_rules, json_report, lint_paths,
                        lint_sources, text_report)
from repro.lint.cli import (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE,
                            build_parser, main)
from repro.lint.engine import discover_files

# Any path under src/repro triggers R4 on a legacy np.random call — the
# cheapest "known violation" for exercising the engine around a rule.
R4_BAD = "import numpy as np\n\nx = np.random.rand(3)\n"
R4_PATH = "src/repro/harness/sweep.py"


class TestRegistry:
    def test_all_thirteen_rules_registered(self):
        rules = all_rules()
        assert sorted(int(r.code[1:]) for r in rules) == \
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14]
        by_code = {r.code: r for r in rules}
        assert by_code["R2"].severity == "warning"
        assert {r.severity for r in rules if r.code != "R2"} == {"error"}
        assert [r.code for r in rules if r.scope == "file"] == \
            ["R1", "R2", "R3", "R4"]

    def test_code_filtering(self):
        assert [r.code for r in all_rules(["R4"])] == ["R4"]
        assert all_rules(["R1"])[0].name == "dtype-discipline"

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError):
            all_rules(["R99"])

    def test_filtered_run_skips_other_rules(self):
        result = lint_sources({R4_PATH: R4_BAD}, codes=["R1"])
        assert result.ok

    def test_default_run_includes_every_verifier(self):
        """No codes means every rule: a base rule (R4), the effects
        verifier (R8) and the concurrency verifier (R14) all report."""
        result = lint_sources({
            R4_PATH: R4_BAD,
            "src/repro/deep.py": (
                "import threading\n"
                "import numpy as np\n"
                "from repro.core.effects import reentrant\n"
                "@reentrant\n"
                "def draw():\n"
                "    return np.random.rand()\n"
                "def start(work):\n"
                "    threading.Thread(target=work).start()\n")})
        assert {"R4", "R8", "R14"} <= {f.code for f in result.findings}


class TestReporters:
    def _dirty(self):
        return lint_sources({R4_PATH: R4_BAD})

    def test_finding_format_line(self):
        f = self._dirty().findings[0]
        assert f.format().startswith(f"{R4_PATH}:3:4: R4 [determinism/error]")

    def test_text_report_summary(self):
        report = text_report(self._dirty())
        assert "1 finding (1 error, 0 warnings) in 1 files" in report
        assert R4_PATH + ":3" in report

    def test_text_report_clean(self):
        report = text_report(lint_sources({"src/repro/ok.py": "x = 1\n"}))
        assert report == "clean: 1 files, 0 findings"

    def test_json_report_round_trips(self):
        payload = json.loads(json_report(self._dirty()))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"error": 1}
        (finding,) = payload["findings"]
        assert finding["code"] == "R4"
        assert finding["path"] == R4_PATH

    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Finding(code="R1", rule="x", severity="fatal", path="p",
                    line=1, col=0, message="m")


class TestDiscoveryAndParseErrors:
    def test_discover_files_dedups_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "a.py").write_text("y = 2\n")
        files = discover_files([str(tmp_path), str(tmp_path / "b.py")])
        assert [p.name for p in files] == ["b.py", "a.py"]

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        result = lint_paths([str(bad)])
        assert not result.ok
        assert result.findings == []
        assert [f.code for f in result.parse_errors] == ["E0"]
        assert "syntax error" in result.parse_errors[0].message


class TestCLI:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "clean.py"
        p.write_text("x = 1\n")
        assert main([str(p)]) == EXIT_CLEAN
        assert "clean: 1 files" in capsys.readouterr().out

    def test_violation_exits_one_with_readable_report(self, tmp_path,
                                                      capsys):
        p = tmp_path / "src" / "repro" / "harness"
        p.mkdir(parents=True)
        bad = p / "sweep.py"
        bad.write_text(R4_BAD)
        assert main([str(bad)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "R4" in out and ":3:" in out and "np.random" in out

    def test_json_format(self, tmp_path, capsys):
        p = tmp_path / "clean.py"
        p.write_text("x = 1\n")
        assert main([str(p), "--format", "json"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.txt")]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in all_rules():
            assert f"{rule.code}  {rule.name}" in out

    def test_only_paths_format_and_list_rules(self):
        """No option selects, skips or suppresses a rule."""
        options = {opt for action in build_parser()._actions
                   for opt in action.option_strings}
        assert options == {"-h", "--help", "--format", "--list-rules"}
