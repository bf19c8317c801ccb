"""Every lookup site perfbench's layer trace wraps still exists.

``perfbench/run.py --trace 1`` wraps each ``(module[:Class], attribute)``
site of ``perfbench/e2e/layers.py``'s ``LAYERS`` with ``getattr``, so a
site whose name moved or stopped being imported makes the traced run
raise before it measures anything.  Each site must hold the function the
layer is named after (a module re-exports it by name, or a class defines
it).
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("e2e.layers").LAYERS
    finally:
        sys.path.remove(str(BENCH))


SITES = [(layer.name, site, attr) for layer in _layers()
         for site, attr in layer.sites]


@pytest.mark.parametrize("name, site, attr", SITES,
                         ids=[f"{site}.{attr}" for _, site, attr in SITES])
def test_layer_site_resolves_to_the_named_function(name, site, attr):
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
        assert attr in vars(owner), f"{site} defines no {attr}"
    function = inspect.unwrap(getattr(owner, attr))
    assert f"{function.__module__}.{function.__qualname__}" == name
