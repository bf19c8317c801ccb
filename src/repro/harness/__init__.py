"""Experiment harness: one module per paper table/figure.

Each module holds a ``build_<name>`` that makes the structured result and
a ``render_<name>`` that turns it into text; ``python -m repro <name>``
runs the pair (see the table in :mod:`repro.__main__`):

* ``python -m repro table1`` — accuracy study (add ``--fast``)
* ``python -m repro table2`` — hardware specs
* ``python -m repro fig7``  — inference power & area comparison
* ``python -m repro fig8``  — continual-learning EDP comparison
* ``python -m repro endurance`` — NVM lifetime + RRAM portability
  (extension study, paper Sec. 1/Sec. 3 claims)
* ``python -m repro ablations`` — design-lever ablations (pattern
  sweep, channel permutation, write-verify, sensing margin, fault injection)
* ``python -m repro figures`` — Fig. 7/8 as ASCII bar charts

Importing the package imports none of its modules; import the names from
the submodules.
"""
