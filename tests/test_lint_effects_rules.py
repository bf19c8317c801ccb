"""Rules R8/R9 plus the SARIF reporter."""

import json
from pathlib import Path

from repro.lint.engine import lint_sources
from repro.lint.reporters import sarif_report

REPO_ROOT = Path(__file__).resolve().parent.parent


def _real_tree_sources():
    src = REPO_ROOT / "src" / "repro"
    return {p.relative_to(REPO_ROOT).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(src.rglob("*.py"))}


# ---------------------------------------------------------------------------
# R8 — reentrancy
# ---------------------------------------------------------------------------

class TestR8:
    #: The ISSUE's acceptance fixture: ambient RNG three calls deep under
    #: a @reentrant contract, witness chain required end to end.
    THREE_LEVELS = {"repro/deep.py": (
        "import numpy as np\n"
        "from repro.core.effects import reentrant\n"
        "def bottom():\n"
        "    return np.random.rand()\n"
        "def middle():\n"
        "    return bottom()\n"
        "@reentrant\n"
        "def top():\n"
        "    return middle()\n")}

    def test_transitive_ambient_rng_flagged_with_full_witness(self):
        result = lint_sources(self.THREE_LEVELS, codes=["R8"])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.code == "R8"
        assert "AMBIENT_RNG" in f.message
        # The witness chain walks every hop to the local fact.
        for hop in ("repro.deep.top", "repro.deep.middle",
                    "repro.deep.bottom"):
            assert hop in f.message
        assert "numpy.random.rand" in f.message

    def test_clean_contracted_function_passes(self):
        result = lint_sources({"repro/ok.py": (
            "from repro.core.effects import reentrant\n"
            "@reentrant\n"
            "def pure(x):\n"
            "    return x * 2\n")}, codes=["R8"])
        assert result.ok

    def test_io_and_reads_are_allowed_under_contract(self):
        result = lint_sources({"repro/ok.py": (
            "from repro.core.effects import reentrant\n"
            "TABLE = {'a': 1}\n"
            "@reentrant\n"
            "def observe(k, path):\n"
            "    print(TABLE.get(k))\n"
            "    return open(path).read()\n")}, codes=["R8"])
        assert result.ok

    def test_global_write_flagged(self):
        result = lint_sources({"repro/bad.py": (
            "from repro.core.effects import reentrant\n"
            "CACHE = {}\n"
            "@reentrant\n"
            "def memo(k):\n"
            "    CACHE[k] = k\n"
            "    return CACHE[k]\n")}, codes=["R8"])
        assert [f.code for f in result.findings] == ["R8"]
        assert "WRITES_GLOBAL" in result.findings[0].message

    def test_set_iteration_flagged(self):
        result = lint_sources({"repro/bad.py": (
            "from repro.core.effects import reentrant\n"
            "@reentrant\n"
            "def merge(items):\n"
            "    return [x for x in set(items)]\n")}, codes=["R8"])
        assert [f.code for f in result.findings] == ["R8"]
        assert "NONDETERMINISTIC_ORDER" in result.findings[0].message

    def test_effects_override_trusted(self):
        result = lint_sources({"repro/ok.py": (
            "from repro.core.effects import effects, reentrant\n"
            "_MEMO = {}\n"
            "@effects('READS_GLOBAL', reason='idempotent memo')\n"
            "def lookup(k):\n"
            "    if k not in _MEMO:\n"
            "        _MEMO[k] = k\n"
            "    return _MEMO[k]\n"
            "@reentrant\n"
            "def top(k):\n"
            "    return lookup(k)\n")}, codes=["R8"])
        assert result.ok

    def test_malformed_effects_declaration_is_a_finding(self):
        result = lint_sources({"repro/bad.py": (
            "from repro.core.effects import effects\n"
            "@effects('READS_GLOBAL')\n"
            "def f(k):\n"
            "    return k\n")}, codes=["R8"])
        assert [f.code for f in result.findings] == ["R8"]
        assert "reason" in result.findings[0].message

    def test_real_tree_memo_without_override_is_caught(self):
        """Satellite 1's hazard: strip get_workload's @effects declaration
        and the _WORKLOADS memo write must flag every contracted caller."""
        sources = _real_tree_sources()
        ev = "src/repro/dse/evaluate.py"
        text = sources[ev]
        start = text.index('@effects("READS_GLOBAL",')
        end = text.index("def get_workload")
        sources[ev] = text[:start] + text[end:]
        result = lint_sources(sources, codes=["R8"])
        flagged = {f.path for f in result.findings}
        assert "src/repro/dse/engine.py" in flagged       # evaluate_batch
        assert "src/repro/dse/evaluate.py" in flagged     # evaluate_config
        assert any("_WORKLOADS" in f.message for f in result.findings)


# ---------------------------------------------------------------------------
# R9 — cache-key completeness
# ---------------------------------------------------------------------------

class TestR9:
    def test_real_tree_is_complete(self, real_tree_lint):
        assert [f for f in real_tree_lint.findings if f.code == "R9"] == []

    def test_dropping_a_key_from_config_keys_is_caught(self):
        """The ISSUE's mutation test: remove "workload" from CONFIG_KEYS
        and the transitive read plus the normalizer drift must both fire."""
        sources = _real_tree_sources()
        spec = "src/repro/dse/spec.py"
        old = ',\n               "workload")'
        assert old in sources[spec]
        sources[spec] = sources[spec].replace(old, ")", 1)
        result = lint_sources(sources, codes=["R9"])
        assert not result.ok
        messages = [f.message for f in result.findings]
        assert any("reads config['workload']" in m for m in messages)
        assert any("normalize_config emits 'workload'" in m
                   for m in messages)

    def test_fixture_read_of_unkeyed_field_is_caught(self):
        result = lint_sources({
            "repro/dse/spec.py": (
                "CONFIG_KEYS = ('pattern', 'bus_bits')\n"
                "def normalize_config(config):\n"
                "    return {'pattern': str(config['pattern']),\n"
                "            'bus_bits': int(config['bus_bits'])}\n"),
            "repro/dse/evaluate.py": (
                "from .spec import normalize_config\n"
                "def evaluate_config(config):\n"
                "    cfg = normalize_config(config)\n"
                "    return cfg['pattern'], cfg['secret_lever']\n"),
        }, codes=["R9"])
        assert [f.code for f in result.findings] == ["R9"]
        assert "secret_lever" in result.findings[0].message

    def test_normalizer_missing_a_declared_key_is_caught(self):
        result = lint_sources({
            "repro/dse/spec.py": (
                "CONFIG_KEYS = ('pattern', 'bus_bits')\n"
                "def normalize_config(config):\n"
                "    return {'pattern': str(config['pattern'])}\n"),
            "repro/dse/evaluate.py": (
                "def evaluate_config(config):\n"
                "    return config['pattern']\n"),
        }, codes=["R9"])
        assert any("omits 'bus_bits'" in f.message for f in result.findings)

    def test_no_dse_entry_point_means_nothing_to_check(self):
        result = lint_sources({"repro/m.py": "def f(config):\n    return 1\n"},
                              codes=["R9"])
        assert result.ok


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------

class TestSarif:
    def _result(self):
        return lint_sources(TestR8.THREE_LEVELS, codes=["R8"])

    def test_sarif_shape(self):
        doc = json.loads(sarif_report(self._result()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["R8"]
        (res,) = run["results"]
        assert res["ruleId"] == "R8"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "repro/deep.py"
        assert loc["region"]["startLine"] >= 1
        assert loc["region"]["startColumn"] >= 1   # SARIF is 1-based

    def test_clean_run_serializes_empty_results(self):
        result = lint_sources({"repro/ok.py": "X = 1\n"}, codes=["R8"])
        doc = json.loads(sarif_report(result))
        assert doc["runs"][0]["results"] == []

    def test_cli_accepts_sarif_format(self, capsys):
        from repro.lint.cli import EXIT_CLEAN, main
        src = REPO_ROOT / "src" / "repro" / "lint" / "findings.py"
        assert main(["--format", "sarif", str(src)]) == EXIT_CLEAN
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
