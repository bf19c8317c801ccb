"""Experiment harness: one module per paper table/figure.

* ``python -m repro.harness.table1`` — accuracy study (add ``--fast``)
* ``python -m repro.harness.table2`` — hardware specs
* ``python -m repro.harness.fig7``  — inference power & area comparison
* ``python -m repro.harness.fig8``  — continual-learning EDP comparison
* ``python -m repro.harness.endurance`` — NVM lifetime + RRAM portability
  (extension study, paper Sec. 1/Sec. 3 claims)
* ``python -m repro.harness.ablations`` — design-lever ablations (pattern
  sweep, channel permutation, write-verify, sensing margin, fault injection)
* ``python -m repro.harness.figures`` — Fig. 7/8 as ASCII bar charts

The package re-exports each module's entry points, but imports a module
only when one of its names is first read (PEP 562).  Importing every
module here would put ``repro.harness.<exp>`` in ``sys.modules`` before
``python -m repro.harness.<exp>`` runs it, which ``runpy`` warns about.
"""

import importlib

#: Re-exported name -> the harness module that defines it.
_EXPORTS = {
    "run_table1": "table1", "render_table1": "table1",
    "Table1Config": "table1",
    "build_table2": "table2", "render_table2": "table2",
    "build_fig7": "fig7", "render_fig7": "fig7", "fig7_designs": "fig7",
    "build_fig8": "fig8", "render_fig8": "fig8", "fig8_configs": "fig8",
    "build_endurance": "endurance", "render_endurance": "endurance",
    "build_ablations": "ablations", "render_ablations": "ablations",
    "render_fig7_chart": "figures", "render_fig8_chart": "figures",
    "begin_trace": "reporting", "finish_trace": "reporting",
    "harness_cli": "reporting", "render_trace_summary": "reporting",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
