"""End-to-end tests for dataflow rules R6/R7: fixtures, the real tree and
the CLI.

The two fixtures the PR's acceptance criteria name are here: an
under-provisioned accumulator that R6 must flag with a concrete witness
range, and a width-contract mutation (datapath widened without touching
the energy model) that R7 must flag.
"""

import json

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, main
from repro.lint.engine import lint_sources

# A minimal widths module so fixtures resolve constants without the real
# package (lint_sources never imports code, it only parses).
WIDTHS_FIXTURE = '''
ACTIVATION_BITS = 8
WEIGHT_BITS = 8
INDEX_BITS = 4
ACCUM_BITS = 64
PARTIAL_PRODUCT_BITS = 1

def width_contract(**kwargs):
    def deco(fn):
        return fn
    return deco
'''

SENSING_FIXTURE = '''
SENSED_WEIGHT_BITS = 8
SENSED_INDEX_BITS = 4
SENSE_AMP_RESOLUTION_BITS = 1
'''

COST_FIXTURE = '''
MAC_WEIGHT_BITS = 8
MAC_ACTIVATION_BITS = 8
MAC_ACCUMULATOR_BITS = 64
'''


def _fixture_tree(**extra):
    sources = {
        "src/repro/core/widths.py": WIDTHS_FIXTURE,
        "src/repro/energy/sensing.py": SENSING_FIXTURE,
        "src/repro/energy/cost.py": COST_FIXTURE,
    }
    sources.update(extra)
    return sources


# ---------------------------------------------------------------------------
# R6 bit-growth
# ---------------------------------------------------------------------------

UNDERPROVISIONED = '''
import numpy as np
from repro.core.widths import width_contract


@width_contract(inputs="i8", weights="i8", accum="i16", depth="1024",
                params={"a": "inputs", "w": "weights"})
def bad_dot(a, w):
    acc = np.zeros(4, dtype=np.int16)
    for i in range(1024):
        acc += a[i] * w[i]
    return acc
'''


def test_r6_flags_underprovisioned_accumulator():
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/bad.py": UNDERPROVISIONED}), codes=["R6"])
    r6 = [f for f in res.findings if f.code == "R6"]
    assert len(r6) == 1
    f = r6[0]
    assert f.path == "src/repro/core/bad.py"
    # The finding carries the concrete witness expression and the interval
    # arithmetic: 1024 products of i8 x i8 reach ~2**24, far outside i16.
    assert "acc += a[i] * w[i]" in f.message
    assert "[-16646144, 16777216]" in f.message
    assert "'i16'" in f.message


def test_r6_accepts_adequate_accumulator():
    fixed = UNDERPROVISIONED.replace('accum="i16"', 'accum="i64"').replace(
        "np.int16", "np.int64")
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/ok.py": fixed}), codes=["R6"])
    assert [f for f in res.findings if f.code == "R6"] == []


MATMUL_REDUCTION = '''
import numpy as np
from repro.core.widths import width_contract


@width_contract(inputs="i8", weights="i8", accum="i32", depth="1 << 20",
                params={"a": "inputs", "w": "weights"})
def big_matmul(a, w):
    return a.astype(np.int32) @ w.astype(np.int32)
'''


def test_r6_flags_matmul_against_declared_depth():
    # 2**20 x (2**7)**2 ~ 2**34 does not fit i32; the @ operator is the
    # reduction site.
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/mm.py": MATMUL_REDUCTION}), codes=["R6"])
    r6 = [f for f in res.findings if f.code == "R6"]
    assert len(r6) == 1
    assert "@" in r6[0].message and "'i32'" in r6[0].message


CALLEE_VIOLATION = '''
import numpy as np
from repro.core.widths import width_contract


@width_contract(inputs="i8", params={"x": "inputs"})
def narrow(x):
    return x


@width_contract(inputs="i16", params={"a": "inputs"})
def caller(a):
    return narrow(a * 4)
'''


def test_r6_flags_call_argument_overflow():
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/call.py": CALLEE_VIOLATION}), codes=["R6"])
    r6 = [f for f in res.findings if f.code == "R6"]
    assert len(r6) == 1
    assert "narrow" in r6[0].message and "x=" in r6[0].message


RETURN_VIOLATION = '''
from repro.core.widths import width_contract


@width_contract(inputs="i8", returns="i8", params={"x": "inputs"})
def widens(x):
    return x * 100
'''


def test_r6_flags_return_overflow():
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/ret.py": RETURN_VIOLATION}), codes=["R6"])
    r6 = [f for f in res.findings if f.code == "R6"]
    assert len(r6) == 1
    assert "can return" in r6[0].message


RECEIVERS = '''
from typing import Union
from repro.core.widths import width_contract


class Narrow:
    @width_contract(returns="i8")
    def matmul(self, x):
        return x


class Wide:
    @width_contract(returns="i32")
    def matmul(self, x):
        return x


@width_contract(returns="i8")
def typed(pe: Narrow, x):
    return pe.matmul(x)


@width_contract(returns="i16")
def typed_wide(pe: Wide, x):
    return pe.matmul(x)


@width_contract(returns="i16")
def untyped(pe, x):
    return pe.matmul(x)


@width_contract(returns="i16")
def either(pe: Union[Narrow, Wide], x):
    return pe.matmul(x)
'''


def test_r6_resolves_method_calls_by_receiver_type():
    # A typed receiver is checked against its own class's contract only,
    # an untyped one stays unbounded, and a Union joins both contracts.
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/pes.py": RECEIVERS}), codes=["R6"])
    flagged = sorted(f.message.split("'")[1] for f in res.findings
                     if f.code == "R6" and "can return" in f.message)
    assert flagged == ["either", "typed_wide"]


DISPATCH = '''
from repro.core.widths import width_contract


@width_contract(returns="i8")
def _narrow(x):
    return x


@width_contract(returns="i16")
def _wide(x):
    return x


_IMPLS = {"narrow": _narrow, "wide": _wide}


@width_contract(returns="i8")
def dispatch(name, x):
    return _IMPLS[name](x)
'''


def test_r6_checks_registry_dispatch_against_every_tier():
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/dispatch.py": DISPATCH}), codes=["R6"])
    r6 = [f for f in res.findings if f.code == "R6"]
    assert len(r6) == 1
    assert "'dispatch' can return [-32768, 32767]" in r6[0].message


# ---------------------------------------------------------------------------
# R7 width-consistency
# ---------------------------------------------------------------------------

ENTRY_POINT = '''
from repro.core.widths import width_contract


@width_contract(inputs="i8", weights="i8", accum="i64")
def spmm_gather(a, w):
    return a @ w
'''


def test_r7_clean_when_widths_agree():
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/kernels.py": ENTRY_POINT}), codes=["R7"])
    assert [f for f in res.findings if f.code == "R7"] == []


def test_r7_flags_contract_mutation_without_energy_update():
    # The acceptance fixture: widen the entry point's declared weights
    # while sensing.py/cost.py still charge for 8-bit — R7 must fire.
    mutated = ENTRY_POINT.replace('weights="i8"', 'weights="i12"')
    res = lint_sources(_fixture_tree(**{
        "src/repro/core/kernels.py": mutated}), codes=["R7"])
    r7 = [f for f in res.findings if f.code == "R7"]
    assert len(r7) == 1
    assert "spmm_gather" in r7[0].message
    assert "i12" in r7[0].message and "WEIGHT_BITS" in r7[0].message


def test_r7_flags_energy_model_drift():
    drifted = _fixture_tree()
    drifted["src/repro/energy/sensing.py"] = SENSING_FIXTURE.replace(
        "SENSED_WEIGHT_BITS = 8", "SENSED_WEIGHT_BITS = 4")
    res = lint_sources(drifted, codes=["R7"])
    r7 = [f for f in res.findings if f.code == "R7"]
    assert len(r7) == 1
    assert "SENSED_WEIGHT_BITS" in r7[0].message
    assert r7[0].path == "src/repro/energy/sensing.py"


def test_r7_flags_missing_energy_constant():
    gutted = _fixture_tree()
    gutted["src/repro/energy/cost.py"] = "MAC_WEIGHT_BITS = 8\n"
    res = lint_sources(gutted, codes=["R7"])
    assert "MAC_ACTIVATION_BITS" in " ".join(f.message
                                             for f in res.findings)


# ---------------------------------------------------------------------------
# real tree, CLI
# ---------------------------------------------------------------------------

def test_real_tree_clean_under_dataflow(real_tree_lint):
    res = [f for f in real_tree_lint.all_findings()
           if f.code in ("E0", "R6", "R7")]
    assert res == [], "dataflow findings on the real tree:\n" + "\n".join(
        f.format() for f in res)


def test_cli_dataflow_json_reports_findings(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core"
    bad.mkdir(parents=True)
    (bad / "widths.py").write_text(WIDTHS_FIXTURE)
    (bad / "bad.py").write_text(UNDERPROVISIONED)
    assert main(["--format", "json", str(tmp_path / "src")]) == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert any(f["code"] == "R6" for f in payload["findings"])


def test_cli_builds_the_call_graph_once(tmp_path, monkeypatch, capsys):
    """One lint pass builds one call graph, shared by the dataflow,
    effects and concurrency verifiers."""
    from repro.lint.callgraph import CallGraph
    build = CallGraph.build.__func__
    built = []

    def counting_build(cls, project):
        built.append(project)
        return build(cls, project)

    monkeypatch.setattr(CallGraph, "build", classmethod(counting_build))
    mod = tmp_path / "mod.py"
    mod.write_text("def f():\n    return 1\n")
    assert main([str(mod)]) == EXIT_CLEAN
    capsys.readouterr()
    assert len(built) == 1


# ---------------------------------------------------------------------------
# resolved accumulator bounds on the real tree
# ---------------------------------------------------------------------------

#: ``function -> bits``: the proved return bound is ``±2^bits``.  Each
#: production kernel and PE ``matmul`` is ``MAX_REDUCTION_DEPTH`` x i8 x i8
#: (±2^34); the accelerator's tile sum is ``MAX_ROW_TILES`` of those
#: (±2^46), 16 bits inside the i64 accumulator.  The bit-serial oracle and
#: the dense digital PE return through ``from_partials``, whose contract
#: bounds any plane count (±2^50).
ACCUMULATOR_BOUNDS = {
    "accelerator.HybridAccelerator._run_tiles": 46,
    "accelerator.HybridAccelerator.gemm": 46,
    "kernels.spmm_gather": 34,
    "kernels.spmm_bitserial": 34,
    "kernels.spmm_gather_reference": 34,
    "sram_pe.SRAMSparsePE.matmul": 34,
    "mram_pe.MRAMSparsePE.matmul": 34,
    "mram_pe.MRAMDensePE.matmul": 34,
    "bitcell_array.BitLevelSparsePE.matmul": 34,
    "kernels.spmm_bitserial_reference": 50,
    "sram_pe.DenseDigitalPE.matmul": 50,
}


@pytest.fixture(scope="module")
def real_tree_bounds(real_tree_project):
    """``function -> Interval``: every return bound the verifier proves."""
    from repro.lint.dataflow.rules import _project_contracts
    from repro.lint.dataflow.summaries import SummaryDB

    project = real_tree_project
    pairs, errors, consts = _project_contracts(project)
    assert errors == []
    db = SummaryDB([c for c, _, _ in pairs], consts, project.call_graph)
    return {c.function.removeprefix("repro.core."): db.resolve_returns(c)
            for c, _, _ in pairs}


@pytest.mark.parametrize("function,bits", ACCUMULATOR_BOUNDS.items(),
                         ids=list(ACCUMULATOR_BOUNDS))
def test_real_tree_accumulator_bounds(real_tree_bounds, function, bits):
    """The summaries the dataflow verifier proves on the real tree."""
    iv = real_tree_bounds[function]
    assert (iv.lo, iv.hi) == (-(1 << bits), 1 << bits)
