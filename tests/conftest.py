"""Shared fixtures.

``oracle_kernels`` swaps the reference oracles of ``repro.core.kernels``
in for the production kernels, at the module globals the PE models call
through, so a whole PE or accelerator can be run on either and compared.

``real_tree_lint`` and ``real_tree_project`` parse ``src/repro`` once per
session, so the lint tests that judge the real tree share one run of the
linter's call graph and verifiers instead of repeating it per test.
"""

import contextlib
from pathlib import Path

import pytest

from repro.core import kernels

#: The package the linter gates in CI.
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(module, kernel name)``: every module-level lookup of a kernel.
KERNEL_SITES = (
    ("repro.core.mram_pe", "spmm_gather"),
    ("repro.core.sram_pe", "spmm_bitserial"),
    ("repro.core.bitcell_array", "spmm_bitserial"),
)


@pytest.fixture
def oracle_kernels(monkeypatch):
    """A context manager: inside it, every PE runs ``<kernel>_reference``.

    The oracle is read from ``repro.core.kernels`` on entry, so a test
    that patches an oracle with a spy first sees the spy called.
    """
    @contextlib.contextmanager
    def substituted():
        with monkeypatch.context() as patch:
            for module, name in KERNEL_SITES:
                patch.setattr(f"{module}.{name}",
                              getattr(kernels, f"{name}_reference"))
            yield
    return substituted


@pytest.fixture(scope="session")
def real_tree_lint():
    """Every rule's findings on ``src/repro``, from one lint pass."""
    from repro.lint import lint_paths
    return lint_paths([str(SRC)])


@pytest.fixture(scope="session")
def real_tree_project():
    """``src/repro`` parsed once; the call graph and the verifiers'
    analyses are cached on it, so tests may share them."""
    from repro.lint.engine import ProjectContext, _parse_paths
    contexts, parse_errors = _parse_paths([str(SRC)])
    assert parse_errors == []
    return ProjectContext(files=contexts)
