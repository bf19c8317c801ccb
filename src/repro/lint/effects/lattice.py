"""The effect lattice: what a function may do besides compute its result.

Elements are *sets* of effect atoms ordered by inclusion —
``PURE = {}`` at the bottom, joins are unions — giving the partial order
the rules reason over::

    PURE  ⊑  {READS_GLOBAL}  ⊑  {READS_GLOBAL, WRITES_GLOBAL, ...}

Atoms:

``READS_GLOBAL``
    Reads module-level mutable state (a memo dict, the tracer registry).
    Benign for reentrancy — equal inputs still give equal outputs — but
    tracked because a read today is a write-site candidate tomorrow.
``WRITES_GLOBAL``
    Mutates module-level state: what
    :func:`repro.lint.interproc.global_write` classifies as a write
    (``global`` rebinding, stores and ``del`` through module-level
    objects, mutating method calls on them).
``AMBIENT_RNG``
    Draws from process-global randomness (``np.random.*``, ``random.*``,
    argless ``default_rng()``) — output depends on what ran before.
``IO``
    Touches the world outside the process: filesystem, environment,
    clocks, stdout.  Allowed under the reentrancy contract (the disk
    cache *is* IO) but part of every summary.
``NONDETERMINISTIC_ORDER``
    Iterates a hash-ordered collection (``set``/``frozenset``) or an
    unsorted directory listing where element order feeds the result.

Rule R8's reentrancy contract bans exactly
:data:`REENTRANT_BANNED` = {WRITES_GLOBAL, AMBIENT_RNG,
NONDETERMINISTIC_ORDER}: a contracted function may observe the world, it
may not let one call perturb the next or depend on hash seeds.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

READS_GLOBAL = "READS_GLOBAL"
WRITES_GLOBAL = "WRITES_GLOBAL"
AMBIENT_RNG = "AMBIENT_RNG"
IO = "IO"
NONDETERMINISTIC_ORDER = "NONDETERMINISTIC_ORDER"

#: Every atom, in canonical report order.
ALL_EFFECTS = (READS_GLOBAL, WRITES_GLOBAL, AMBIENT_RNG, IO,
               NONDETERMINISTIC_ORDER)

#: The bottom element: no observable effects.
PURE: FrozenSet[str] = frozenset()

#: The atoms rule R8 forbids under a ``@reentrant`` contract.
REENTRANT_BANNED: FrozenSet[str] = frozenset(
    {WRITES_GLOBAL, AMBIENT_RNG, NONDETERMINISTIC_ORDER})


def effect_set(*names: str) -> FrozenSet[str]:
    """A validated effect set (raises on unknown atom names)."""
    unknown = [n for n in names if n not in ALL_EFFECTS]
    if unknown:
        raise ValueError(f"unknown effect atom(s) {unknown}; "
                         f"known: {ALL_EFFECTS}")
    return frozenset(names)


def join(*sets: Iterable[str]) -> FrozenSet[str]:
    """Least upper bound: the union of effect sets."""
    out: FrozenSet[str] = frozenset()
    for s in sets:
        out = out | frozenset(s)
    return out


def describe(effects: FrozenSet[str]) -> str:
    """Canonical human form: ``PURE`` or a sorted-by-rank atom list."""
    if not effects:
        return "PURE"
    return "{" + ", ".join(e for e in ALL_EFFECTS if e in effects) + "}"
