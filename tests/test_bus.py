"""Tests for the shared-bus interconnect model."""

import pytest

from repro.core.bus import BusConfig, SharedBus


class TestConfig:
    def test_defaults(self):
        cfg = BusConfig()
        assert cfg.width_bits == 128
        assert cfg.energy_pj_per_bit == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BusConfig(width_bits=0)
        with pytest.raises(ValueError):
            BusConfig(energy_pj_per_bit_mm=-1.0)


class TestTransfers:
    def test_cycles_quantized_to_width(self):
        bus = SharedBus(BusConfig(width_bits=128))
        assert bus.transfer_cycles(128) == 1
        assert bus.transfer_cycles(129) == 2
        assert bus.transfer_cycles(0) == 0

    def test_contention_serializes(self):
        bus = SharedBus(BusConfig(width_bits=128))
        a = bus.request("a", 256)           # 2 cycles: [0, 2)
        b = bus.request("b", 128)           # 1 cycle:  [2, 3)
        assert a.start_cycle == 0 and a.end_cycle == 2
        assert b.start_cycle == 2 and b.end_cycle == 3
        assert bus.total_cycles() == 3

    def test_at_cycle_respected(self):
        bus = SharedBus()
        bus.request("a", 128)                       # [0, 1)
        c = bus.request("b", 128, at_cycle=10.0)    # waits for data
        assert c.start_cycle == 10.0

    def test_idle_gap_counts_against_utilization(self):
        bus = SharedBus()
        bus.request("a", 128)
        bus.request("b", 128, at_cycle=9.0)
        assert bus.utilization() == pytest.approx(2.0 / 10.0)

    def test_receiver_validation(self):
        with pytest.raises(ValueError):
            SharedBus().request("a", 8, receivers=0)
        with pytest.raises(ValueError):
            SharedBus().transfer_cycles(-1)


class TestEnergy:
    def test_energy_proportional_to_bits(self):
        bus = SharedBus()
        bus.request("a", 1000)
        e1 = bus.energy_pj()
        bus.request("b", 1000)
        assert bus.energy_pj() == pytest.approx(2 * e1)

    def test_broadcast_cheaper_than_unicast(self):
        broadcast, unicast = SharedBus(), SharedBus()
        broadcast.request("w", 1024, receivers=16)
        for _ in range(16):
            unicast.request("w", 1024)
        assert broadcast.energy_pj() < unicast.energy_pj() / 5  # one trunk
        assert broadcast.total_cycles() < unicast.total_cycles()

    def test_single_receiver_equal(self):
        broadcast, unicast = SharedBus(), SharedBus()
        broadcast.request("w", 512, receivers=1)
        unicast.request("w", 512)
        assert broadcast.energy_pj() == pytest.approx(unicast.energy_pj())

    @pytest.mark.parametrize("receivers", [1, 2, 4, 16, 36])
    def test_energy_matches_tap_model(self, receivers):
        """Trunk charged once, plus a fixed fraction per extra receiver."""
        cfg = BusConfig(energy_pj_per_bit_mm=0.15, avg_distance_mm=3.0)
        bus = SharedBus(cfg)
        t = bus.request("act", 4096, receivers=receivers)
        taps = (receivers - 1) * 0.05
        assert bus.energy_pj() == pytest.approx(
            4096 * 0.15 * 3.0 * (1.0 + taps))
        assert t.cycles == bus.transfer_cycles(4096)  # taps cost no cycles

    def test_traffic_by_tag(self):
        bus = SharedBus()
        bus.request("act", 100)
        bus.request("act", 50)
        bus.request("wgt", 10)
        assert bus.traffic_by_tag() == {"act": 150, "wgt": 10}

    def test_reset(self):
        bus = SharedBus()
        bus.request("a", 128)
        bus.reset()
        assert bus.total_cycles() == 0
        assert bus.energy_pj() == 0.0


class TestSIMTScenario:
    def test_layer_broadcast_accounting(self):
        """One layer's SIMT broadcast: in_dim x 8 bits to all its tiles in
        one transaction — matching the designs' bus-cycle floor."""
        bus = SharedBus(BusConfig(width_bits=128))
        in_dim = 1152
        t = bus.request("stage3.conv", in_dim * 8, receivers=36)
        assert t.cycles == (in_dim * 8) / 128
        assert bus.energy_pj() > 0
