"""Unit suite for the observability layer (``repro.obs``).

Covers the span model (nesting, parents, thread ids), the disabled-mode
no-op contract (singleton null span, zero recorded spans, bit-identical
kernel results), counter helpers, Chrome trace_events export with
schema-level validation and JSON round-trip, and the end-to-end invariant
from the acceptance criteria: fig7's per-design span counters sum to the
same totals the harness reports.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import (NULL_SPAN, Tracer, as_counters, counter_delta,
                       flatten_stats, nonzero, summarize, to_trace_events,
                       validate_trace_events, write_chrome_trace)
from repro.core.stats import PEStats


@pytest.fixture()
def tracer():
    return Tracer(enabled=True)


@pytest.fixture(autouse=True)
def _isolate_global_tracer():
    """Tests must not leak global tracer state into each other."""
    yield
    obs.configure(enabled=False, reset=True)


class TestSpanModel:
    def test_span_records_duration_and_attrs(self, tracer):
        with tracer.span("phase", design="hybrid") as sp:
            sp.set(extra=1)
            sp.count(cycles=10)
            sp.count(cycles=5)
        (span,) = tracer.finished_spans()
        assert span.name == "phase"
        assert span.attrs == {"design": "hybrid", "extra": 1}
        assert span.counters == {"cycles": 15}
        assert span.duration_ns >= 0

    def test_nesting_tracks_depth_and_parent(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        spans = {s.name: s for s in tracer.finished_spans()}
        assert spans["outer"].depth == 0 and spans["outer"].parent is None
        assert spans["inner"].depth == 1
        assert spans["inner"].parent == spans["outer"].index
        assert spans["leaf"].depth == 2
        assert spans["leaf"].parent == spans["inner"].index
        assert spans["sibling"].parent == spans["outer"].index

    def test_current_span_inside_context(self, tracer):
        assert tracer.current() is None
        with tracer.span("a") as sp:
            assert tracer.current() is sp
        assert tracer.current() is None

    def test_reset_clears_spans(self, tracer):
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.finished_spans() == []

    def test_exception_still_closes_span(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.finished_spans()
        assert span.end_ns is not None
        assert tracer.current() is None


class TestDisabledNoOp:
    def test_disabled_span_is_singleton_null(self):
        t = Tracer(enabled=False)
        with t.span("anything", k=1) as sp:
            assert sp is NULL_SPAN
            sp.set(a=1)      # all mutators are no-ops
            sp.count(b=2)
        assert t.finished_spans() == []

    def test_global_tracer_disabled_by_default(self):
        assert Tracer().enabled is False

    def test_kernel_results_identical_with_and_without_tracing(self):
        from repro.core.sram_pe import SRAMSparsePE
        from repro.sparsity import NMPattern, compute_nm_mask

        rng = np.random.default_rng(3)
        pattern = NMPattern(1, 4)
        dense = rng.integers(-127, 128, size=(64, 8))
        mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
        weights = (dense * mask).astype(np.int64)
        x = rng.integers(-128, 128, size=(4, 64))

        def run():
            pe = SRAMSparsePE()
            pe.load(weights, pattern)
            return pe.matmul(x)

        obs.configure(enabled=False, reset=True)
        off = run()
        obs.configure(enabled=True, reset=True)
        on = run()
        assert len(obs.get_tracer().finished_spans()) > 0
        np.testing.assert_array_equal(off, on)


class TestCounters:
    def test_as_counters_flattens_pe_stats(self):
        stats = PEStats(macs=3, cycles=7)
        flat = as_counters(stats, prefix="sram.")
        assert flat["sram.macs"] == 3 and flat["sram.cycles"] == 7

    def test_flatten_and_delta(self):
        before = flatten_stats({"sram": PEStats(cycles=5)})
        after = flatten_stats({"sram": PEStats(cycles=9, macs=2)})
        delta = counter_delta(before, after)
        assert delta["sram.cycles"] == 4 and delta["sram.macs"] == 2

    def test_nonzero_drops_zeros(self):
        assert nonzero({"a": 0, "b": 1, "c": 0.0}) == {"b": 1}


class TestChromeTraceExport:
    def _traced(self):
        t = Tracer(enabled=True)
        with t.span("outer", design="hybrid") as sp:
            sp.count(cycles=4)
            with t.span("inner"):
                pass
        return t

    def test_export_validates_and_round_trips(self, tmp_path):
        t = self._traced()
        doc = to_trace_events(t, process_name="test")
        assert validate_trace_events(doc) == []

        path = tmp_path / "out" / "trace.json"
        write_chrome_trace(path, t, process_name="test")
        loaded = json.loads(path.read_text())
        assert validate_trace_events(loaded) == []
        assert loaded["otherData"]["schema"] == obs.TRACE_SCHEMA
        assert loaded["otherData"]["spans"] == 2

    def test_x_events_carry_counters_and_attrs(self):
        doc = to_trace_events(self._traced())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["outer", "inner"]
        outer = xs[0]
        assert outer["args"]["design"] == "hybrid"
        assert outer["args"]["cycles"] == 4
        assert outer["dur"] >= xs[1]["dur"]  # parent encloses child

    def test_validator_reports_malformed_docs(self):
        assert validate_trace_events({"traceEvents": "nope"})
        assert validate_trace_events(
            {"traceEvents": [{"ph": "X", "name": "a"}]})  # missing fields
        bad_dur = {"traceEvents": [{"ph": "X", "name": "a", "pid": 1,
                                    "tid": 1, "ts": 0.0, "dur": -1.0}]}
        assert validate_trace_events(bad_dur)

    def test_summarize_aggregates_by_name(self):
        t = Tracer(enabled=True)
        for _ in range(3):
            with t.span("step") as sp:
                sp.count(n=2)
        summary = summarize(t)
        (row,) = summary["spans"]
        assert row["name"] == "step" and row["count"] == 3
        assert row["counters"] == {"n": 6}


class TestHarnessIntegration:
    def test_fig7_span_counters_match_reported_totals(self):
        """Acceptance: per-design span counters == harness row totals."""
        from repro.harness.fig7 import build_fig7

        obs.configure(enabled=True, reset=True)
        result = build_fig7()
        spans = [s for s in obs.get_tracer().finished_spans()
                 if s.name == "fig7.design"]
        assert len(spans) == len(result["rows"])
        by_design = {s.attrs["design"]: s for s in spans}
        for row in result["rows"]:
            sp = by_design[row["design"]]
            assert sp.counters["energy_pj"] == pytest.approx(row["energy_pj"])
            assert sp.counters["area_mm2"] == pytest.approx(row["area_mm2"])
        span_total = sum(s.counters["energy_pj"] for s in spans)
        row_total = sum(r["energy_pj"] for r in result["rows"])
        assert span_total == pytest.approx(row_total)

    def test_fig7_cli_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "fig7.trace.json"
        assert main(["fig7", "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert validate_trace_events(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "fig7.design" in names and "fig7.build" in names
        assert "Trace summary" in capsys.readouterr().out


class TestContextLocalTracer:
    """The contextvars-based tracer registry behind ``repro.serve``:
    ``use_tracer`` routes module-level ``obs.span`` to a context-local
    tracer without ever touching the process-global one."""

    def test_use_tracer_scopes_span_routing(self):
        local = Tracer(enabled=True)
        assert obs.get_tracer() is obs.configure()
        with obs.use_tracer(local):
            assert obs.get_tracer() is local
            with obs.span("scoped") as sp:
                sp.count(widgets=3)
        assert obs.get_tracer() is obs.configure()
        (span,) = local.finished_spans()
        assert span.name == "scoped"
        assert span.counters == {"widgets": 3}
        assert obs.configure().finished_spans() == []

    def test_use_tracer_nests_and_restores(self):
        outer, inner = Tracer(enabled=True), Tracer(enabled=True)
        with obs.use_tracer(outer):
            with obs.use_tracer(inner):
                with obs.span("deep"):
                    pass
            assert obs.get_tracer() is outer
        assert [s.name for s in inner.finished_spans()] == ["deep"]
        assert outer.finished_spans() == []

    def test_configure_still_targets_the_global_tracer(self):
        local = Tracer(enabled=True)
        with obs.use_tracer(local):
            obs.configure(enabled=True, reset=True)
            assert local.enabled            # untouched by configure
        assert obs.configure().enabled
        obs.configure(enabled=False, reset=True)

    def test_interleaved_threads_never_cross_attach_counters(self):
        """Regression for the serve-layer fix: two threads with their own
        context tracers interleave spans; every span and counter lands on
        its own tracer, parents stay within-thread."""
        import threading

        tracers = [Tracer(enabled=True), Tracer(enabled=True)]
        barrier = threading.Barrier(2)

        def run(i):
            with obs.use_tracer(tracers[i]):
                barrier.wait()
                with obs.span("work", lane=i) as sp:
                    barrier.wait()
                    sp.count(steps=100 + i)
                    with obs.span("step"):
                        pass
                    barrier.wait()

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        for i, tracer in enumerate(tracers):
            spans = {s.name: s for s in tracer.finished_spans()}
            assert set(spans) == {"work", "step"}
            assert spans["work"].attrs == {"lane": i}
            assert spans["work"].counters == {"steps": 100 + i}
            assert spans["step"].parent == spans["work"].index
        assert obs.configure().finished_spans() == []
