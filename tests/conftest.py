"""Shared fixtures.

``oracle_kernels`` swaps the reference oracles of ``repro.core.kernels``
in for the production kernels, at the module globals the PE models call
through, so a whole PE or accelerator can be run on either and compared.
"""

import contextlib

import pytest

from repro.core import kernels

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
