"""Rules R11-R14 (the static concurrency verifier).

Fixture tests pin each rule's core judgment on minimal sources; the
mutation tests take the real tree, plant one specific concurrency bug
(removed lock, inverted acquisition order, unguarded field, non-daemon
unjoined thread) and require *exactly* the expected finding, witness
chain included — the acceptance seeds from the verifier's design issue.
"""

from pathlib import Path

import pytest

from repro.lint.engine import lint_sources

REPO_ROOT = Path(__file__).resolve().parent.parent

CONCURRENCY = ["R11", "R12", "R13", "R14"]


def _real_tree_sources():
    src = REPO_ROOT / "src" / "repro"
    return {p.relative_to(REPO_ROOT).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(src.rglob("*.py"))}


# ---------------------------------------------------------------------------
# R11 — guarded-field discipline
# ---------------------------------------------------------------------------

class TestR11:
    COUNTER = (
        "import threading\n"
        "from repro.core.concurrency import guarded_by\n"
        "@guarded_by('_lock', 'count')\n"
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self.count += 1\n"
        "    def peek(self):\n"
        "        return self.count\n")

    def test_unguarded_read_flagged_guarded_access_not(self):
        result = lint_sources({"repro/c.py": self.COUNTER}, codes=["R11"])
        assert [f.code for f in result.findings] == ["R11"]
        f = result.findings[0]
        assert "peek" in f.message and "read of Counter.count" in f.message
        assert "witness:" in f.message

    def test_init_is_exempt(self):
        # The fixture's __init__ writes count with no lock; only peek fires.
        result = lint_sources({"repro/c.py": self.COUNTER}, codes=["R11"])
        assert all("__init__" not in f.message for f in result.findings)

    def test_entry_lockset_proves_private_snapshot_builders(self):
        result = lint_sources({"repro/c.py": (
            "import threading\n"
            "from repro.core.concurrency import guarded_by\n"
            "@guarded_by('_lock', 'count')\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def snapshot(self):\n"
            "        with self._lock:\n"
            "            return self._doc()\n"
            "    def _doc(self):\n"
            "        return {'count': self.count}\n")}, codes=["R11"])
        assert result.ok

    def test_one_lock_free_call_site_breaks_the_entry_proof(self):
        result = lint_sources({"repro/c.py": (
            "import threading\n"
            "from repro.core.concurrency import guarded_by\n"
            "@guarded_by('_lock', 'count')\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def snapshot(self):\n"
            "        with self._lock:\n"
            "            return self._doc()\n"
            "    def leak(self):\n"
            "        return self._doc()\n"
            "    def _doc(self):\n"
            "        return {'count': self.count}\n")}, codes=["R11"])
        assert len(result.findings) == 1
        f = result.findings[0]
        # The access reports once, inside _doc, with the lock-free caller
        # on the witness chain.
        assert "_doc" in f.message and "leak" in f.message

    def test_cross_class_owner_lock_contract(self):
        result = lint_sources({"repro/c.py": (
            "import threading\n"
            "from repro.core.concurrency import guarded_by\n"
            "@guarded_by('Store._lock', 'state')\n"
            "class Item:\n"
            "    def __init__(self):\n"
            "        self.state = 'new'\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.items = {}\n"
            "    def poke(self, item: Item):\n"
            "        item.state = 'old'\n")}, codes=["R11"])
        assert [f.code for f in result.findings] == ["R11"]
        assert "write of Item.state" in result.findings[0].message

    def test_undeclared_lock_attr_is_a_declaration_finding(self):
        result = lint_sources({"repro/c.py": (
            "from repro.core.concurrency import guarded_by\n"
            "@guarded_by('_missing', 'count')\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n")}, codes=["R11"])
        assert [f.code for f in result.findings] == ["R11"]

    def test_mutation_unlocking_cache_memory_peek_fires_exactly_once(self):
        """The motivating bug: read DiskCache's memory tier before taking
        the lock (a concurrent store may be evicting from it) and R11
        reports that access — and only it."""
        sources = _real_tree_sources()
        cache = "src/repro/dse/cache.py"
        old = ("        with self._lock:\n"
               "            text = self._memory.get(key)\n"
               "            if text is not None:\n")
        assert old in sources[cache]
        sources[cache] = sources[cache].replace(old, (
            "        text = self._memory.get(key)\n"
            "        with self._lock:\n"
            "            if text is not None:\n"), 1)
        result = lint_sources(sources, codes=["R11"])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.path == cache
        assert "DiskCache.lookup" in f.message
        assert "DiskCache._memory" in f.message
        assert "witness:" in f.message

    def test_mutation_new_unguarded_field_fires_exactly_once(self):
        """Declare a new guarded field on _Flight and read it lock-free."""
        sources = _real_tree_sources()
        batching = "src/repro/serve/batching.py"
        text = sources[batching]
        old = '@guarded_by("BatchingQueue._lock", "members")'
        assert old in text
        text = text.replace(
            old, '@guarded_by("BatchingQueue._lock", "members", "notes")', 1)
        old = "    def stats(self) -> Dict[str, object]:"
        assert old in text
        text = text.replace(old, (
            "    def peek_notes(self, flight: _Flight) -> object:\n"
            "        return flight.notes\n\n"
            + old), 1)
        sources[batching] = text
        result = lint_sources(sources, codes=["R11"])
        assert len(result.findings) == 1
        assert "read of _Flight.notes" in result.findings[0].message


# ---------------------------------------------------------------------------
# R12 — no blocking while locked
# ---------------------------------------------------------------------------

class TestR12:
    def test_file_io_under_lock_flagged(self):
        result = lint_sources({"repro/s.py": (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def save(self, path, data):\n"
            "        with self._lock:\n"
            "            with open(path, 'w') as fh:\n"
            "                fh.write(data)\n")}, codes=["R12"])
        assert [f.code for f in result.findings] == ["R12"]
        assert "open" in result.findings[0].message

    def test_interprocedural_block_reports_at_the_locked_call_site(self):
        result = lint_sources({"repro/s.py": (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def _write(self, path):\n"
            "        open(path, 'w').close()\n"
            "    def save(self, path):\n"
            "        with self._lock:\n"
            "            self._write(path)\n")}, codes=["R12"])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert "save" in f.message and "_write" in f.message
        assert "->" in f.message          # witness chain to the leaf

    def test_condition_wait_releases_its_own_lock(self):
        result = lint_sources({"repro/q.py": (
            "import threading\n"
            "class Queue:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "        self._items = []\n"
            "    def get(self):\n"
            "        with self._cond:\n"
            "            while not self._items:\n"
            "                self._cond.wait(timeout=1.0)\n"
            "            return self._items.pop(0)\n")}, codes=["R12"])
        assert result.ok

    def test_event_wait_under_a_different_lock_flagged(self):
        result = lint_sources({"repro/q.py": (
            "import threading\n"
            "class Gate:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._ready = threading.Event()\n"
            "    def pass_through(self):\n"
            "        with self._lock:\n"
            "            self._ready.wait(timeout=5.0)\n")}, codes=["R12"])
        assert [f.code for f in result.findings] == ["R12"]

    def test_holds_no_locks_callee_under_lock_flagged(self):
        result = lint_sources({"repro/s.py": (
            "import threading\n"
            "from repro.core.concurrency import holds_no_locks\n"
            "@holds_no_locks(reason='opaque engine call')\n"
            "def heavy():\n"
            "    return 1\n"
            "class Driver:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def run(self):\n"
            "        with self._lock:\n"
            "            return heavy()\n")}, codes=["R12"])
        assert [f.code for f in result.findings] == ["R12"]
        assert "heavy" in result.findings[0].message


# ---------------------------------------------------------------------------
# R13 — deadlock freedom
# ---------------------------------------------------------------------------

class TestR13:
    INVERTED = (
        "import threading\n"
        "class Pair:\n"
        "    def __init__(self):\n"
        "        self._x = threading.Lock()\n"
        "        self._y = threading.Lock()\n"
        "    def xy(self):\n"
        "        with self._x:\n"
        "            with self._y:\n"
        "                return 1\n"
        "    def yx(self):\n"
        "        with self._y:\n"
        "            with self._x:\n"
        "                return 2\n")

    def test_mutation_inverted_order_is_exactly_one_cycle(self):
        result = lint_sources({"repro/p.py": self.INVERTED},
                              codes=["R13"])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert "lock-order cycle" in f.message
        assert "xy" in f.message and "yx" in f.message   # both witnesses

    def test_consistent_order_is_clean(self):
        fixed = self.INVERTED.replace(
            "        with self._y:\n"
            "            with self._x:\n"
            "                return 2\n",
            "        with self._x:\n"
            "            with self._y:\n"
            "                return 2\n")
        result = lint_sources({"repro/p.py": fixed}, codes=["R13"])
        assert result.ok

    def test_interprocedural_cycle_found(self):
        result = lint_sources({"repro/p.py": (
            "import threading\n"
            "class Pair:\n"
            "    def __init__(self):\n"
            "        self._x = threading.Lock()\n"
            "        self._y = threading.Lock()\n"
            "    def _take_y(self):\n"
            "        with self._y:\n"
            "            return 1\n"
            "    def xy(self):\n"
            "        with self._x:\n"
            "            return self._take_y()\n"
            "    def _take_x(self):\n"
            "        with self._x:\n"
            "            return 2\n"
            "    def yx(self):\n"
            "        with self._y:\n"
            "            return self._take_x()\n")}, codes=["R13"])
        assert len(result.findings) == 1
        assert "lock-order cycle" in result.findings[0].message

    @staticmethod
    def ring(n):
        """``n`` locks where method ``i`` takes lock ``i`` then ``i + 1``."""
        lines = ["import threading", "class Ring:", "    def __init__(self):"]
        lines += [f"        self._l{i:02d} = threading.Lock()"
                  for i in range(n)]
        for i in range(n):
            lines += [f"    def step{i:02d}(self):",
                      f"        with self._l{i:02d}:",
                      f"            with self._l{(i + 1) % n:02d}:",
                      "                return 1"]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("n", [3, 16, 17, 40])
    def test_lock_ring_of_any_length_is_exactly_one_cycle(self, n):
        result = lint_sources({"repro/r.py": self.ring(n)}, codes=["R13"])
        assert len(result.findings) == 1
        message = result.findings[0].message
        ring, _, witnesses = message.partition("witnesses: ")
        assert ring.startswith("lock-order cycle ")
        assert all(f"_l{i:02d}" in ring for i in range(n))
        shown = [i for i in range(n) if f"step{i:02d}:" in witnesses]
        assert shown == list(range(min(n, 16)))
        note = f"... {n - 16} more edges not shown"
        assert (note in witnesses) == (n > 16)

    def test_two_cycles_through_one_lock_are_two_findings(self):
        result = lint_sources({"repro/p.py": (
            "import threading\n"
            "class Three:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "        self._c = threading.Lock()\n"
            "    def ab(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                return 1\n"
            "    def ba(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                return 2\n"
            "    def bc(self):\n"
            "        with self._b:\n"
            "            with self._c:\n"
            "                return 3\n"
            "    def cb(self):\n"
            "        with self._c:\n"
            "            with self._b:\n"
            "                return 4\n")}, codes=["R13"])
        assert len(result.findings) == 2
        assert all("lock-order cycle" in f.message for f in result.findings)

    def test_reacquiring_a_plain_lock_flagged(self):
        result = lint_sources({"repro/p.py": (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            return 1\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            return self.inner()\n")}, codes=["R13"])
        assert [f.code for f in result.findings] == ["R13"]
        assert "re-acquires" in result.findings[0].message

    def test_rlock_reacquisition_is_allowed(self):
        result = lint_sources({"repro/p.py": (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            return 1\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            return self.inner()\n")}, codes=["R13"])
        assert result.ok


# ---------------------------------------------------------------------------
# R14 — thread hygiene
# ---------------------------------------------------------------------------

class TestR14:
    def test_mutation_non_daemon_unjoined_thread_fires_exactly_once(self):
        result = lint_sources({"repro/t.py": (
            "import threading\n"
            "def fire_and_forget(fn):\n"
            "    t = threading.Thread(target=fn)\n"
            "    t.start()\n")}, codes=CONCURRENCY)
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.code == "R14" and "non-daemon" in f.message

    def test_daemon_thread_is_clean(self):
        result = lint_sources({"repro/t.py": (
            "import threading\n"
            "def fire_and_forget(fn):\n"
            "    t = threading.Thread(target=fn, daemon=True)\n"
            "    t.start()\n")}, codes=["R14"])
        assert result.ok

    def test_attr_stored_thread_joined_elsewhere_is_clean(self):
        result = lint_sources({"repro/t.py": (
            "import threading\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self._thread = threading.Thread(target=self._run)\n"
            "        self._thread.start()\n"
            "    def _run(self):\n"
            "        pass\n"
            "    def shutdown(self):\n"
            "        self._thread.join(timeout=10)\n")}, codes=["R14"])
        assert result.ok

    def test_condition_wait_outside_a_loop_flagged(self):
        result = lint_sources({"repro/t.py": (
            "import threading\n"
            "class Queue:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "    def wait_once(self):\n"
            "        with self._cond:\n"
            "            self._cond.wait(timeout=1.0)\n")}, codes=["R14"])
        assert [f.code for f in result.findings] == ["R14"]
        assert "predicate loop" in result.findings[0].message

    def test_event_wait_without_timeout_flagged(self):
        result = lint_sources({"repro/t.py": (
            "import threading\n"
            "def stall():\n"
            "    ev = threading.Event()\n"
            "    ev.wait()\n")}, codes=["R14"])
        assert [f.code for f in result.findings] == ["R14"]
        assert "timeout" in result.findings[0].message

    def test_event_wait_with_timeout_is_clean(self):
        result = lint_sources({"repro/t.py": (
            "import threading\n"
            "def stall():\n"
            "    ev = threading.Event()\n"
            "    return ev.wait(timeout=5.0)\n")}, codes=["R14"])
        assert result.ok

    def test_module_global_written_from_thread_target_flagged(self):
        result = lint_sources({"repro/t.py": (
            "import threading\n"
            "RESULTS = []\n"
            "def worker():\n"
            "    RESULTS.append(1)\n"
            "def start():\n"
            "    t = threading.Thread(target=worker, daemon=True)\n"
            "    t.start()\n")}, codes=["R14"])
        assert [f.code for f in result.findings] == ["R14"]
        assert "RESULTS" in result.findings[0].message

    def test_locked_global_write_from_thread_target_is_clean(self):
        result = lint_sources({"repro/t.py": (
            "import threading\n"
            "RESULTS = []\n"
            "_LOCK = threading.Lock()\n"
            "def worker():\n"
            "    with _LOCK:\n"
            "        RESULTS.append(1)\n"
            "def start():\n"
            "    t = threading.Thread(target=worker, daemon=True)\n"
            "    t.start()\n")}, codes=["R14"])
        assert result.ok


# ---------------------------------------------------------------------------
# The real tree
# ---------------------------------------------------------------------------

class TestRealTree:
    def test_real_tree_is_concurrency_clean(self, real_tree_lint):
        found = [f for f in real_tree_lint.findings if f.code in CONCURRENCY]
        assert found == [], "\n".join(f.message for f in found)
