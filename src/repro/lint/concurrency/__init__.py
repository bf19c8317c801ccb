"""Static concurrency verifier: rules R11-R14.

One rung above the effects verifier on the repo's static-analysis
ladder: where :mod:`repro.lint.effects` certifies the *process*-parallel
paths (reentrancy for pool workers), this package certifies the
*thread*-parallel ones — the serving stack's locks, condition variables,
events and worker threads.

Layout mirrors :mod:`repro.lint.effects`:

* :mod:`.model` — lock identities, per-class synchronization tables,
  ``@guarded_by`` / ``@holds_no_locks`` contract extraction, and the
  curated blocking-leaf table.
* :mod:`.locksets` — the per-function transfer: a structured walk that
  threads a held-lock set through ``with lock:`` scopes and
  ``acquire()``/``release()`` pairs, recording guarded-field accesses,
  call sites, lock acquisitions, blocking operations, thread creation,
  wait-discipline facts and writes to module-level state (the global-
  write classifier R8 also reads) — each stamped with the lockset held
  there.
* :mod:`.analysis` — the interprocedural summaries over the shared
  :mod:`repro.lint.callgraph`: entry locksets (must-hold intersection
  over call sites, its own fixpoint), then may-block and
  transitively-acquired lock summaries, thread reachability and witness
  chains from the layer shared with the effects verifier
  (:mod:`repro.lint.interproc`), and the global lock-acquisition order
  graph.
* :mod:`.rules` — R11 guarded-field discipline, R12 no-blocking-while-
  locked, R13 deadlock freedom, R14 thread hygiene.
"""

from .analysis import ConcurrencyAnalysis, analyze_concurrency

__all__ = ["ConcurrencyAnalysis", "analyze_concurrency"]
