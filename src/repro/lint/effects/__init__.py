"""Interprocedural effect & reentrancy verifier (rules R8–R9).

Layered like the dataflow pass, one level up the call stack:

:mod:`repro.lint.callgraph`
    Package-wide name binding, local typing and call resolution, shared
    with the dataflow and concurrency verifiers.
:mod:`repro.lint.interproc`
    The layer shared with the concurrency verifier: the one global-write
    classifier (``WRITES_GLOBAL`` here, R14's unlocked writes there), the
    one may-summary propagation, the witness walk and reachability.
:mod:`.lattice`
    The effect atoms and the powerset lattice over them.
:mod:`.summaries`
    The external-leaf trust table (stdlib/numpy effect summaries).
:mod:`.transfer`
    Per-function local facts and call edges.
:mod:`.analysis`
    Local facts propagated to fixpoint summaries, ``@effects`` leaves
    held fixed.
:mod:`.rules`
    R8 reentrancy, R9 cache-key completeness.
"""

from .analysis import EffectAnalysis, analyze_project
from ..callgraph import CallGraph, module_name_for
from .lattice import (ALL_EFFECTS, AMBIENT_RNG, IO, NONDETERMINISTIC_ORDER,
                      PURE, READS_GLOBAL, REENTRANT_BANNED, WRITES_GLOBAL,
                      describe, effect_set, join)
from .transfer import LocalFacts, analyze_local

__all__ = [
    "ALL_EFFECTS", "AMBIENT_RNG", "IO", "NONDETERMINISTIC_ORDER", "PURE",
    "READS_GLOBAL", "REENTRANT_BANNED", "WRITES_GLOBAL",
    "CallGraph", "EffectAnalysis", "LocalFacts",
    "analyze_local", "analyze_project", "describe", "effect_set", "join",
    "module_name_for",
]
