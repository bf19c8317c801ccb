"""Leaf effect summaries for stdlib/numpy names the analysis cannot see.

The call-graph analysis stops at the package boundary: a call that
resolves to an *external* dotted name is assigned the summary declared
here, by longest-dotted-prefix match — ``numpy.random.shuffle`` matches
the ``numpy.random`` prefix, ``os.path.join`` matches the more specific
``os.path`` entry before the ``os`` catch-all.  Names with no entry are
assumed effect-free: the table *is* the trust boundary, exactly like the
dataflow pass's ``returns=`` summaries, and extending it is how a new
effectful leaf enters the model.

Package-internal functions normally get inferred summaries; the
``@effects(...)`` decorator (:mod:`repro.core.effects`) overrides
inference for leaves like idempotent memos where the implementation is
stateful but the observable behaviour is not.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from .lattice import (AMBIENT_RNG, IO, NONDETERMINISTIC_ORDER, PURE,
                      READS_GLOBAL, WRITES_GLOBAL, effect_set)

#: Dotted external name (or prefix) -> effect summary.  Longest prefix
#: wins, so specific pure entries can carve holes in effectful families.
LEAF_SUMMARIES: Dict[str, FrozenSet[str]] = {
    # --- randomness -------------------------------------------------------
    # Seeded constructions are pure; the legacy module-level API is not.
    "numpy.random.default_rng": PURE,     # argless form special-cased below
    "numpy.random.Generator": PURE,
    "numpy.random.SeedSequence": PURE,
    "numpy.random.PCG64": PURE,
    "numpy.random.Philox": PURE,
    "numpy.random": effect_set(AMBIENT_RNG),
    "random.Random": PURE,
    "random.SystemRandom": effect_set(AMBIENT_RNG, IO),
    "random.seed": effect_set(AMBIENT_RNG, WRITES_GLOBAL),
    "random": effect_set(AMBIENT_RNG),
    "secrets": effect_set(AMBIENT_RNG, IO),
    "uuid.uuid1": effect_set(AMBIENT_RNG, IO),
    "uuid.uuid4": effect_set(AMBIENT_RNG),
    "os.urandom": effect_set(AMBIENT_RNG, IO),
    # --- filesystem / environment / process state ------------------------
    "os.path": PURE,
    "os.fspath": PURE,
    "os.environ": effect_set(IO),
    "os.getenv": effect_set(IO),
    "os.putenv": effect_set(IO, WRITES_GLOBAL),
    "os.listdir": effect_set(IO, NONDETERMINISTIC_ORDER),
    "os.scandir": effect_set(IO, NONDETERMINISTIC_ORDER),
    "os.walk": effect_set(IO, NONDETERMINISTIC_ORDER),
    "glob.glob": effect_set(IO, NONDETERMINISTIC_ORDER),
    "glob.iglob": effect_set(IO, NONDETERMINISTIC_ORDER),
    "os": effect_set(IO),                 # replace/remove/makedirs/getpid/...
    "shutil": effect_set(IO),
    "tempfile": effect_set(IO),
    "pathlib": PURE,                      # path algebra; .read_text is a
                                          # method call resolved elsewhere
    "open": effect_set(IO),
    "io.open": effect_set(IO),
    "print": effect_set(IO),
    "input": effect_set(IO),
    "breakpoint": effect_set(IO),
    "globals": effect_set(READS_GLOBAL),
    "vars": effect_set(READS_GLOBAL),
    "eval": effect_set(IO, WRITES_GLOBAL),
    "exec": effect_set(IO, WRITES_GLOBAL),
    "sys.stdout": effect_set(IO),
    "sys.stderr": effect_set(IO),
    "sys.stdin": effect_set(IO),
    "sys.exit": effect_set(IO),
    "json.load": effect_set(IO),
    "json.dump": effect_set(IO),
    "logging": effect_set(IO),
    "warnings": effect_set(IO),
    "subprocess": effect_set(IO),
    "socket": effect_set(IO),
    "urllib": effect_set(IO),
    # --- clocks (ambient machine state; allowed under R8) -----------------
    "time": effect_set(IO),
    "datetime.datetime.now": effect_set(IO),
    "datetime.datetime.today": effect_set(IO),
    "datetime.datetime.utcnow": effect_set(IO),
    "datetime.date.today": effect_set(IO),
}

def leaf_summary(dotted: str) -> Optional[FrozenSet[str]]:
    """The summary for an external dotted name, by longest-prefix match.

    Returns None when no entry covers the name (the caller treats that
    as effect-free — the documented trust boundary).
    """
    parts = dotted.split(".")
    for n in range(len(parts), 0, -1):
        prefix = ".".join(parts[:n])
        if prefix in LEAF_SUMMARIES:
            return LEAF_SUMMARIES[prefix]
    return None
