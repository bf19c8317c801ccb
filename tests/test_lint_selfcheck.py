"""Self-check: the real ``src/repro`` tree passes its own linter.

This is the test-suite mirror of the CI lint gate — if a change introduces
a violation of any rule (R1–R9, R11–R14), it fails here before it fails
in CI.  The tree is linted once per session (``real_tree_lint`` in
``conftest.py``); one CLI run checks the gate's own exit status.
"""

from repro.lint.cli import EXIT_CLEAN, main

from .conftest import SRC


def test_real_tree_is_clean(real_tree_lint):
    result = real_tree_lint
    assert result.parse_errors == []
    assert result.ok, "lint findings on the real tree:\n" + "\n".join(
        f.format() for f in result.all_findings())
    # The walk must actually have covered the package, not an empty dir.
    assert result.files_checked >= 70


def test_r5_sees_the_real_differential_suite(real_tree_lint):
    """Kernel parity runs against the on-disk tests/ even when only
    src/repro is linted — the suite lookup walks up from kernels.py."""
    assert [f for f in real_tree_lint.findings if f.code == "R5"] == []


def test_cli_gate_matches_ci_invocation(capsys):
    assert main([str(SRC)]) == EXIT_CLEAN
    assert "clean:" in capsys.readouterr().out


def test_real_tree_hot_paths_are_contracted(real_tree_project):
    """The certification the ROADMAP's sharding/serve items rely on: the
    batch entry point, the per-point evaluator, the cache paths, the
    serve validators and the harness builders all carry @reentrant."""
    from repro.lint.effects import analyze_project

    analysis = analyze_project(real_tree_project)
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
