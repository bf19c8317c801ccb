"""Unit tests for the PEStats counters and report plumbing."""

import numpy as np

from repro.core.stats import PEStats


class TestPEStats:
    def test_merge_accumulates(self):
        a = PEStats(cycles=10, macs=100)
        b = PEStats(cycles=5, macs=50, weight_bits_read=8)
        a.merge(b)
        assert a.cycles == 15
        assert a.macs == 150
        assert a.weight_bits_read == 8

    def test_merge_returns_self(self):
        a = PEStats()
        assert a.merge(PEStats(cycles=1)) is a

    def test_add_operator(self):
        c = PEStats(cycles=3) + PEStats(cycles=4)
        assert c.cycles == 7

    def test_mac_efficiency(self):
        s = PEStats(macs=25, dense_equivalent_macs=100)
        assert s.mac_efficiency == 0.25
        assert PEStats().mac_efficiency == 0.0

    def test_as_dict_roundtrip(self):
        s = PEStats(cycles=2, mux_ops=9)
        d = s.as_dict()
        assert d["cycles"] == 2 and d["mux_ops"] == 9
        assert set(d) >= {"cycles", "macs", "weight_bits_read",
                          "weight_bits_written", "pipeline_stalls"}


class TestStatsThroughSimulators:
    """Counters stay mutually consistent across a simulated run."""

    def test_sram_pe_counter_relations(self):
        from repro.core.sram_pe import SRAMSparsePE
        from repro.sparsity import NMPattern, compute_nm_mask

        rng = np.random.default_rng(5)
        pattern = NMPattern(1, 4)
        dense = rng.integers(-50, 50, size=(64, 8))
        mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
        w = (dense * mask).astype(np.int64)
        pe = SRAMSparsePE()
        pe.load(w, pattern)
        batch = 3
        pe.matmul(rng.integers(-8, 8, size=(batch, 64)))

        nnz = int((w != 0).sum())
        s = pe.stats
        # each stored pair written once; read on every bit plane per vector
        assert s.weight_bits_written == nnz * 8
        assert s.weight_bits_read == nnz * 8 * 8 * batch
        # comparators evaluate every index phase per pair per vector
        assert s.comparator_ops == nnz * pattern.m * batch
        # dense-equivalent work is the full matrix per vector
        assert s.dense_equivalent_macs == 64 * 8 * batch

    def test_counters_monotone_across_calls(self):
        from repro.core.mram_pe import MRAMSparsePE
        from repro.sparsity import NMPattern, compute_nm_mask

        rng = np.random.default_rng(6)
        pattern = NMPattern(2, 8)
        dense = rng.integers(-50, 50, size=(32, 4))
        mask = compute_nm_mask(np.abs(dense).astype(float), pattern, axis=0)
        pe = MRAMSparsePE()
        pe.load((dense * mask).astype(np.int64), pattern)
        x = rng.integers(-8, 8, size=(1, 32))
        pe.matmul(x)
        snapshot = pe.stats.as_dict()
        pe.matmul(x)
        after = pe.stats.as_dict()
        for key, before_val in snapshot.items():
            assert after[key] >= before_val, key


class TestFieldCoverage:
    """Every counter field — present and future — is exercised generically.

    A field added to the ``PEStats`` dataclass without test coverage is
    exactly the silent drift lint rule R3 guards against at the call-site
    level; these tests close the loop on the dataclass side by deriving
    the field list from ``dataclasses.fields`` instead of hard-coding it.
    """

    @staticmethod
    def _distinct(offset: int = 0) -> "PEStats":
        import dataclasses as _dc
        return PEStats(**{f.name: (i + 1) * 10 + offset
                          for i, f in enumerate(_dc.fields(PEStats))})

    def test_merge_accumulates_every_field(self):
        import dataclasses as _dc
        a, b = self._distinct(0), self._distinct(7)
        expect = {f.name: getattr(a, f.name) + getattr(b, f.name)
                  for f in _dc.fields(PEStats)}
        a.merge(b)
        for name, value in expect.items():
            assert getattr(a, name) == value, name

    def test_as_dict_covers_every_field_and_round_trips(self):
        import dataclasses as _dc
        a = self._distinct(1)
        d = a.as_dict()
        assert set(d) == {f.name for f in _dc.fields(PEStats)}
        assert PEStats(**d) == a  # dataclass equality: field-wise

    def test_add_round_trips_through_dict(self):
        total = self._distinct(0) + self._distinct(9)
        rebuilt = PEStats(**total.as_dict())
        assert rebuilt == total
