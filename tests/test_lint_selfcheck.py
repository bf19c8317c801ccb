"""Self-check: the real ``src/repro`` tree passes its own linter.

This is the test-suite mirror of the CI lint gate — if a change introduces
a dtype/unit/stats/determinism/parity violation (or an unjustified
suppression removal breaks one), it fails here before it fails in CI.
"""

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.cli import EXIT_CLEAN, main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_real_tree_is_clean():
    result = lint_paths([str(SRC)])
    assert result.parse_errors == []
    assert result.ok, "lint findings on the real tree:\n" + "\n".join(
        f.format() for f in result.all_findings())
    # The walk must actually have covered the package, not an empty dir.
    assert result.files_checked >= 70


def test_r5_sees_the_real_differential_suite():
    """Kernel parity runs against the on-disk tests/ even when only
    src/repro is linted — the suite lookup walks up from kernels.py."""
    result = lint_paths([str(SRC)], codes=["R5"])
    assert result.ok


def test_cli_gate_matches_ci_invocation(capsys):
    assert main([str(SRC)]) == EXIT_CLEAN
    assert "clean:" in capsys.readouterr().out


def test_real_tree_is_clean_under_dataflow(capsys):
    """The CI gate also runs the opt-in dataflow verifier in strict mode:
    every @width_contract must hold and every pragma must earn its keep."""
    assert main(["--dataflow", "--strict", str(SRC)]) == EXIT_CLEAN
    capsys.readouterr()


def test_real_tree_is_clean_under_effects(capsys):
    """The effect verifier in strict mode: every @reentrant contract in
    the DSE/serve/harness hot paths must prove out over the call graph."""
    assert main(["--effects", "--strict", str(SRC)]) == EXIT_CLEAN
    capsys.readouterr()


def test_real_tree_hot_paths_are_contracted():
    """The certification the ROADMAP's sharding/serve items rely on: the
    batch entry point, the per-point evaluator, the cache paths, the
    serve validators and the harness builders all carry @reentrant."""
    from repro.lint.effects import analyze_project
    from repro.lint.engine import ProjectContext, _parse_paths

    contexts, _ = _parse_paths([str(SRC)])
    analysis = analyze_project(ProjectContext(files=contexts))
    contracted = {s.info.qualname for s in analysis.reentrant_functions()}
    for qualname in (
            "repro.dse.evaluate.evaluate_records",
            "repro.dse.engine.evaluate_batch",
            "repro.dse.evaluate.evaluate_config",
            "repro.dse.evaluate.build_tech",
            "repro.dse.cache.DiskCache.lookup",
            "repro.dse.cache.DiskCache.store",
            "repro.harness.fig7.build_fig7",
            "repro.harness.fig8.build_fig8",
            "repro.harness.table2.build_table2",
            "repro.harness.ablations.build_ablations",
            "repro.harness.endurance.build_endurance",
            "repro.serve.schemas.error_doc",
            "repro.serve.schemas.validate_evaluate_request",
            "repro.serve.schemas.validate_sweep_request",
            "repro.serve.schemas.build_sweep_spec",
            "repro.serve.schemas.validate_experiment_request",
    ):
        assert qualname in contracted, f"{qualname} lost its contract"
