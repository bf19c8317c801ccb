"""Every rule always runs: one fixture per rule, judged by the default pass.

``python -m repro.lint`` has no switch that turns a rule off and no
comment that suppresses a finding.  For each of the 13 rules this file
keeps a small violating fixture and checks that

* ``codes=[code]`` (the test seam) isolates exactly that rule,
* a run with no codes, in the library and on the command line in every
  report format, reports it,
* a ``# repro-lint: disable…`` comment naming the rule is inert, and
* the deleted options are usage errors.
"""

import json

import pytest

from repro.lint import all_rules, lint_sources
from repro.lint.cli import EXIT_FINDINGS, EXIT_USAGE, main
from repro.lint.reporters import REPORTERS

from . import test_lint_concurrency as concurrency
from . import test_lint_dataflow_rules as dataflow
from . import test_lint_effects_rules as effects

#: ``code -> {path: source}``: the smallest file set on which the rule fires.
VIOLATIONS = {
    "R1": {"src/repro/core/sram_pe.py":
           "import numpy as np\nbuf = np.zeros(4)\n"},
    "R2": {"src/repro/energy/model.py":
           "def read_energy(bits):\n    return bits\n"},
    "R3": {"src/repro/core/mram_pe.py":
           "class PE:\n    def run(self):\n        self.stats.mac_ops = 5\n"},
    "R4": {"src/repro/harness/sweep.py":
           "import numpy as np\nx = np.random.rand(3)\n"},
    "R5": {"src/repro/core/kernels.py":
           "def spmm_dot(plan):\n    return plan\n"},
    "R6": dataflow._fixture_tree(**{
        "src/repro/core/bad.py": dataflow.UNDERPROVISIONED}),
    "R7": dataflow._fixture_tree(**{
        "src/repro/core/kernels.py": dataflow.ENTRY_POINT.replace(
            'weights="i8"', 'weights="i12"')}),
    "R8": effects.TestR8.THREE_LEVELS,
    "R9": {
        "repro/dse/spec.py": (
            "CONFIG_KEYS = ('pattern', 'bus_bits')\n"
            "def normalize_config(config):\n"
            "    return {'pattern': str(config['pattern']),\n"
            "            'bus_bits': int(config['bus_bits'])}\n"),
        "repro/dse/evaluate.py": (
            "from .spec import normalize_config\n"
            "def evaluate_config(config):\n"
            "    cfg = normalize_config(config)\n"
            "    return cfg['pattern'], cfg['secret_lever']\n")},
    "R11": {"repro/c.py": concurrency.TestR11.COUNTER},
    "R12": {"repro/s.py": (
        "import threading\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def save(self, path, data):\n"
        "        with self._lock:\n"
        "            with open(path, 'w') as fh:\n"
        "                fh.write(data)\n")},
    "R13": {"repro/p.py": concurrency.TestR13.INVERTED},
    "R14": {"repro/t.py": (
        "import threading\n"
        "def fire_and_forget(fn):\n"
        "    t = threading.Thread(target=fn)\n"
        "    t.start()\n")},
}

CODES = [rule.code for rule in all_rules()]

#: The options the one-pass front end no longer has.
REMOVED_OPTIONS = ["--rules=R1", "--dataflow", "--effects", "--concurrency",
                   "--strict", "--list-suppressions"]


def _write(tmp_path, sources):
    for rel, text in sources.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def _with_pragma(source, pragma):
    """``source`` with ``pragma`` on a line of its own at the top and at
    the end of every code line (the fixtures hold no multi-line strings)."""
    comment = f"# repro-lint: {pragma}"
    lines = [f"{line}  {comment}" if line.strip() else line
             for line in source.splitlines()]
    return "\n".join([comment] + lines) + "\n"


def test_every_rule_has_a_fixture():
    assert sorted(VIOLATIONS) == sorted(CODES)


@pytest.mark.parametrize("code", CODES)
def test_codes_seam_isolates_the_rule(code):
    result = lint_sources(VIOLATIONS[code], codes=[code])
    assert result.findings
    assert {f.code for f in result.findings} == {code}


@pytest.mark.parametrize("code", CODES)
def test_default_pass_reports_the_rule(code):
    result = lint_sources(VIOLATIONS[code])
    assert not result.ok
    assert code in {f.code for f in result.findings}


def _reported_codes(fmt, out):
    if fmt == "text":
        return {word for line in out.splitlines()
                for word in line.split()[1:2]}
    if fmt == "json":
        return {f["code"] for f in json.loads(out)["findings"]}
    return {r["ruleId"] for run in json.loads(out)["runs"]
            for r in run["results"]}


@pytest.mark.parametrize("fmt", sorted(REPORTERS))
@pytest.mark.parametrize("code", CODES)
def test_cli_default_run_reports_the_rule(tmp_path, capsys, code, fmt):
    root = _write(tmp_path, VIOLATIONS[code])
    assert main(["--format", fmt, str(root)]) == EXIT_FINDINGS
    assert code in _reported_codes(fmt, capsys.readouterr().out)


@pytest.mark.parametrize("pragma", ["disable-line={code}", "disable={code}"])
@pytest.mark.parametrize("code", CODES)
def test_pragma_comment_suppresses_nothing(code, pragma):
    sources = {path: _with_pragma(text, pragma.format(code=code))
               for path, text in VIOLATIONS[code].items()}
    plain = lint_sources(VIOLATIONS[code], codes=[code]).findings
    commented = lint_sources(sources, codes=[code]).findings
    assert commented
    assert len(commented) == len(plain)


@pytest.mark.parametrize("option", REMOVED_OPTIONS)
def test_removed_option_is_a_usage_error(tmp_path, capsys, option):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\n")
    with pytest.raises(SystemExit) as exc:
        main([option, str(mod)])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
