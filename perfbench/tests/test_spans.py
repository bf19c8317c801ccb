"""Self-time accounting and the outside-in wrappers."""

import threading
import types

from e2e.spans import (Recorder, Span, SpanStore, aggregate, covered_ns,
                       self_times)


def make(index, start, end, parent=None, name="s"):
    span = Span(index, name, start, parent, tid=0, rid=None)
    span.end = end
    return span


def test_covered_merges_overlaps_and_clips():
    assert covered_ns([], 0, 10) == 0
    assert covered_ns([(2, 4), (6, 8)], 0, 10) == 4
    assert covered_ns([(2, 6), (4, 8)], 0, 10) == 6          # overlap
    assert covered_ns([(2, 6), (2, 6)], 0, 10) == 4          # duplicate
    assert covered_ns([(-5, 3), (9, 20)], 0, 10) == 4        # clipped
    assert covered_ns([(12, 20)], 0, 10) == 0                # outside


def test_self_time_nested():
    # root [0, 100] > child [10, 60] > grandchild [20, 30]
    spans = [make(0, 0, 100), make(1, 10, 60, parent=0),
             make(2, 20, 30, parent=1)]
    own = self_times(spans)
    assert own == {0: 50, 1: 40, 2: 10}
    # Self times of one tree add up to the root's duration.
    assert sum(own.values()) == 100


def test_self_time_overlapping_children():
    # Two concurrent children (e.g. from two threads) overlap on [40, 50]:
    # the parent loses their union (50), not their sum (60).
    spans = [make(0, 0, 100), make(1, 10, 50, parent=0),
             make(2, 40, 60, parent=0)]
    assert self_times(spans)[0] == 50


def test_open_spans_are_ignored():
    root = make(0, 0, 100)
    child = Span(1, "open", 10, 0, tid=0, rid=None)          # never closed
    assert self_times([root, child]) == {0: 100}


def test_store_nests_per_thread_and_links_ops_across_threads():
    store = SpanStore()
    op = store.open_op("bench.op", rid=7)
    inner = store.open("inner")
    store.close(inner)

    def handler():
        # Another thread attaches to the open operation by its run id.
        span = store.open("remote", rid=7, parent=store.op_index(7))
        store.close(span)

    t = threading.Thread(target=handler)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    store.close_op(op)
    spans = {s.name: s for s in store.finished()}
    assert spans["inner"].parent == op.index and spans["inner"].rid == 7
    assert spans["remote"].parent == op.index
    assert spans["remote"].tid != spans["inner"].tid
    assert store.op_index(7) is None


def test_recorder_wraps_module_and_class_then_restores():
    module = types.SimpleNamespace(double=lambda x: 2 * x)

    class Thing:
        def triple(self, x):
            return 3 * module.double(x) // 2

    original_fn, original_method = module.double, Thing.__dict__["triple"]
    store = SpanStore()
    recorder = Recorder(store)
    recorder.wrap(module, "double", "mod.double")
    recorder.wrap(Thing, "triple", "Thing.triple")
    assert Thing().triple(4) == 12
    recorder.uninstall()
    assert module.double is original_fn
    assert Thing.__dict__["triple"] is original_method

    table = aggregate(store.finished())
    assert table["mod.double"]["calls"] == 1
    assert table["Thing.triple"]["calls"] == 1
    outer = next(s for s in store.finished() if s.name == "Thing.triple")
    inner = next(s for s in store.finished() if s.name == "mod.double")
    assert inner.parent == outer.index


def test_recorder_closes_span_when_the_call_raises():
    module = types.SimpleNamespace()

    def boom():
        raise RuntimeError("x")

    module.boom = boom
    store = SpanStore()
    recorder = Recorder(store)
    recorder.wrap(module, "boom", "boom")
    try:
        module.boom()
    except RuntimeError:
        pass
    recorder.uninstall()
    assert [s.name for s in store.finished()] == ["boom"]
