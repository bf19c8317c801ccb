"""The interprocedural layer the effects and concurrency verifiers share.

R8 and R14 read one global-write classifier: the same statement must be
flagged under a ``@reentrant`` contract (R8) and inside a thread target
that holds no lock (R14), or under neither.  The may-summary
propagation, the witness walk and reachability are tested on toy call
graphs.
"""

import pytest

from repro.lint.engine import lint_sources
from repro.lint.interproc import (CallEdge, Origin, propagate, reachable,
                                  witness)

GLOBALS = (
    "import collections\n"
    "import os\n"
    "import threading\n"
    "from repro.core.effects import reentrant\n"
    "RESULTS = []\n"
    "TABLE = {}\n"
    "COUNT = 0\n"
    "Q = collections.deque()\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self.items = []\n"
    "BOX = Box()\n"
)

#: One statement per case, each a write to module-level state.  Before
#: the two rules shared a classifier, R14 missed sort, reverse,
#: setitem-call and nested-append, and R8 missed deque-appendleft.
WRITES = {
    "append": "RESULTS.append(1)",
    "sort": "RESULTS.sort()",
    "reverse": "RESULTS.reverse()",
    "subscript-store": "TABLE['k'] = 1",
    "setitem-call": "TABLE.__setitem__('k', 1)",
    "del": "del TABLE['k']",
    "nested-append": "BOX.items.append(1)",
    "attribute-store": "BOX.flag = True",
    "deque-appendleft": "Q.appendleft(1)",
    "global-rebinding": "global COUNT\n    COUNT = 1",
}


def _r8(body):
    source = GLOBALS + f"@reentrant\ndef work():\n    {body}\n"
    return lint_sources({"repro/m.py": source}, codes=["R8"]).findings


def _r14(body):
    source = GLOBALS + (
        f"def work():\n    {body}\n"
        "def start():\n"
        "    threading.Thread(target=work, daemon=True).start()\n")
    return lint_sources({"repro/m.py": source}, codes=["R14"]).findings


@pytest.mark.parametrize("body", list(WRITES.values()), ids=list(WRITES))
def test_r8_and_r14_agree(body):
    r8, r14 = _r8(body), _r14(body)
    assert bool(r8) == bool(r14), (r8, r14)
    assert r8 and r14
    assert "WRITES_GLOBAL" in r8[0].message
    assert "mutates module-level state" in r14[0].message


@pytest.mark.parametrize("body", [
    "TABLE['k'].append(1)",
    "first, BOX.flag = 1, 2",
    "os.environ['X'] = '1'",
    "global COUNT\n    for COUNT in range(3):\n        pass",
    "with open('p') as BOX.f:\n        pass",
], ids=["through-subscript", "tuple-unpacking", "into-imported-module",
        "for-target", "with-target"])
def test_every_write_is_flagged_by_both(body):
    assert _r8(body) and _r14(body)


@pytest.mark.parametrize("body", [
    "out = []\n    out.append(1)",
    "out = {}\n    out['k'] = 1",
    "box = Box()\n    box.items.sort()",
    "return sorted(RESULTS)",
    "os.remove('p')",
], ids=["local-list", "local-dict", "local-object", "read",
        "module-function"])
def test_local_state_is_flagged_by_neither(body):
    assert _r8(body) == [] and _r14(body) == []


# ---------------------------------------------------------------------------
# propagation, witness, reachability on toy call graphs
# ---------------------------------------------------------------------------

def _local(line, detail="leaf"):
    return Origin(line=line, kind="local", detail=detail)


def test_propagation_keeps_the_first_origin_and_skips_deferred_edges():
    edges = {"a": [CallEdge("b", 3)],
             "b": [CallEdge("c", 7)],
             "c": [],
             "d": [CallEdge("c", 9, deferred=True)],
             "e": [CallEdge("c", 5), CallEdge("b", 6)]}
    out = propagate({q: {} for q in "abde"} | {"c": {"X": _local(12)}},
                    edges)
    assert out["a"]["X"] == Origin(line=3, kind="call", detail="calls b",
                                   callee="b")
    assert out["e"]["X"].callee == "c"         # the first edge that has it
    assert out["d"] == {}
    assert [(q, o.line) for q, o in witness(out, "a", "X")] == [
        ("a", 3), ("b", 7), ("c", 12)]
    assert witness(out, "d", "X") == []


def test_fixed_summaries_do_not_grow():
    edges = {"memo": [CallEdge("leaf", 2)], "leaf": []}
    out = propagate({"memo": {"R": _local(1, "declared")},
                     "leaf": {"W": _local(5)}}, edges, fixed={"memo"})
    assert set(out["memo"]) == {"R"}


def test_recursion_reaches_a_fixpoint_and_witnesses_end_locally():
    edges = {"f": [CallEdge("g", 1)], "g": [CallEdge("f", 2),
                                            CallEdge("h", 3)], "h": []}
    out = propagate({"f": {}, "g": {}, "h": {"X": _local(8)}}, edges)
    for start in ("f", "g"):
        chain = witness(out, start, "X")
        assert chain[-1] == ("h", _local(8))


def test_reachability_follows_only_non_deferred_edges():
    edges = {"root": [CallEdge("a", 1), CallEdge("later", 2, deferred=True)],
             "a": [CallEdge("b", 3)], "b": [], "later": []}
    assert reachable(["root"], edges) == {"root", "a", "b"}
    assert reachable(["unknown"], edges) == set()
