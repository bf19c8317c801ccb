"""Runtime behavior of the lock-discipline contracts (repro.core.concurrency).

The decorators are declaration-only: they attach metadata attributes and
return their target unchanged, so contracted classes stay picklable and
method calls pay zero overhead.  The *enforcement* lives in the static
verifier (rules R11-R14, tests/test_lint_concurrency.py); these tests pin
the metadata shape that verifier and the decorators agree on.
"""

import pickle
import threading

import pytest

from repro.core.concurrency import (GUARDED_BY_ATTR, HOLDS_NO_LOCKS_ATTR,
                                    guarded_by, holds_no_locks)


def guarded_fields(cls: type) -> dict:
    """The merged ``{field: lock}`` map declared on ``cls`` (possibly {})."""
    return dict(getattr(cls, GUARDED_BY_ATTR, None) or {})


@guarded_by("_lock", "count", "total")
class _Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0


@guarded_by("Registry._lock", "state")
class _Record:
    """Lock-less guarded record (the ``_Flight`` pattern): must stay
    picklable."""

    def __init__(self):
        self.state = "queued"


class TestGuardedBy:
    def test_attaches_field_to_lock_map(self):
        assert getattr(_Counter, GUARDED_BY_ATTR) == {
            "count": "_lock", "total": "_lock"}

    def test_undecorated_class_has_empty_map(self):
        class Plain:
            pass
        assert guarded_fields(Plain) == {}

    def test_stacked_decorations_merge(self):
        @guarded_by("_cond", "pending")
        @guarded_by("_lock", "closed")
        class Queue:
            pass
        assert guarded_fields(Queue) == {"pending": "_cond",
                                         "closed": "_lock"}

    def test_subclass_merge_does_not_mutate_the_base(self):
        @guarded_by("_lock", "extra")
        class Sub(_Counter):
            pass
        assert guarded_fields(Sub) == {"count": "_lock", "total": "_lock",
                                       "extra": "_lock"}
        assert guarded_fields(_Counter) == {"count": "_lock",
                                            "total": "_lock"}

    def test_instances_stay_picklable(self):
        # The contract is a class attribute; instances carry no wrapper
        # state, so a guarded class without a lock field round-trips.
        clone = pickle.loads(pickle.dumps(_Record()))
        assert clone.state == "queued"

    def test_rejects_empty_lock_name(self):
        with pytest.raises(ValueError):
            guarded_by("", "field")

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="declares no fields"):
            guarded_by("_lock")

    def test_rejects_non_string_fields(self):
        with pytest.raises(ValueError, match="non-empty strings"):
            guarded_by("_lock", "ok", 3)


class TestHoldsNoLocks:
    def test_bare_form_marks_and_returns_the_function(self):
        @holds_no_locks
        def block():
            return 42
        assert block() == 42
        assert getattr(block, HOLDS_NO_LOCKS_ATTR) == {"reason": ""}

    def test_called_form_records_the_reason(self):
        @holds_no_locks(reason="joins the worker")
        def shutdown():
            return "down"
        assert shutdown() == "down"
        assert getattr(shutdown, HOLDS_NO_LOCKS_ATTR) == {
            "reason": "joins the worker"}

    def test_no_wrapper_is_introduced(self):
        def original():
            pass
        assert holds_no_locks(original) is original


class TestRealTreeContracts:
    """The serving stack's own declarations, as the verifier reads them."""

    def test_batching_queue_guards_its_counters(self):
        from repro.serve.batching import BatchingQueue, _Flight
        assert guarded_fields(BatchingQueue) == {
            "_flights": "_lock", "_closed": "_lock", "requests": "_lock",
            "batches": "_lock", "coalesced": "_lock"}
        assert guarded_fields(_Flight) == {
            "members": "BatchingQueue._lock"}

    def test_latency_histograms_guard_their_buckets(self):
        from repro.serve.api import LatencyHistograms
        assert guarded_fields(LatencyHistograms) == {
            "_counts": "_lock", "_sums_ns": "_lock"}

    def test_blocking_entry_points_declare_lock_freedom(self):
        from repro.dse.engine import evaluate_batch, run_sweep
        from repro.serve.batching import BatchingQueue
        for fn in (evaluate_batch, run_sweep, BatchingQueue.submit):
            assert hasattr(fn, HOLDS_NO_LOCKS_ATTR)
