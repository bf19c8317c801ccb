"""Every workload through ``run.py`` on tiny inputs: correct, and writing
nothing into the repository tree but its own outputs under ``.perfbench/``.

``--small`` shrinks each workload (SMOKE_SPEC sweeps, 20 serve requests, a
minimal Table 1 config, a few GEMMs) and skips the answers pinned for the
full-size inputs; the checks that remain still run.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import run
from e2e.report import per_layer_spec
from e2e.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Interpreter and test-runner caches, which no workload writes.
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def snapshot():
    """Every file of the repository tree: path -> (size, mtime)."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            stat = os.stat(path)
            files[os.path.relpath(path, ROOT)] = (stat.st_size,
                                                  stat.st_mtime_ns)
    return files


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_is_correct_and_writes_only_its_outputs(name, trace):
    before = snapshot()
    done = bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "0",
                 "--trace", trace, "--small")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = ({n for n, _ in run.END_TO_END} if trace == "0"
                else {n for n, _, _ in per_layer_spec()})
    assert set(result["metrics"]) == declared

    after = snapshot()
    outputs = ({f".perfbench/{name}-seed1-{kind}.json"
                for kind in ("trace", "counts")} if trace == "1" else set())
    changed = {path for path in set(before) | set(after)
               if before.get(path) != after.get(path)}
    assert changed <= outputs
    # The run's temporary cache directories are gone.
    assert not [p for p in (ROOT / ".perfbench").iterdir() if p.is_dir()]


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert declared["command"] == ["python3", "perfbench/run.py"]
    # dse-cold and dse-warm run under --workload all but are left out of
    # the declared list, which must fit the whole repeated-run budget.
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()
        if name not in ("dse-cold", "dse-warm")]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == per_layer_spec()


def test_refuses_to_run_without_the_repository(tmp_path):
    """A directory with only the benchmark exits nonzero, printing no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench(tmp_path, "--workload", "dse-null", "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (tmp_path / ".perfbench").exists()
