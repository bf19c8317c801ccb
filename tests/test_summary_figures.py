"""Tests for the ASCII figure rendering."""


class TestFigureCharts:
    def test_fig7_chart(self):
        from repro.harness.fig7 import build_fig7
        from repro.harness.figures import render_fig7_chart
        out = render_fig7_chart(build_fig7())
        assert "Fig. 7a" in out and "Fig. 7b" in out
        assert "SRAM[29]" in out and "Hybrid(1:8)" in out
        # leakage/read split markers present
        assert "L" in out and "r" in out

    def test_fig8_chart_groups(self):
        from repro.harness.fig8 import build_fig8
        from repro.harness.figures import render_fig8_chart
        out = render_fig8_chart(build_fig8())
        assert "[Finetune All Weight]" in out
        assert "[RepNet with Sparsity]" in out

    def test_log_bar_monotone(self):
        from repro.harness.figures import _log_bar
        short = _log_bar(0.01, 0.001, 10.0)
        long = _log_bar(1.0, 0.001, 10.0)
        assert len(long) > len(short) > 0

    def test_log_bar_edge_cases(self):
        from repro.harness.figures import _log_bar
        assert _log_bar(0.0, 0.1, 1.0) == ""
        assert len(_log_bar(5.0, 1.0, 1.0)) > 0  # degenerate span
