"""Tests for the reliability models: write-verify and sense-margin analysis."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.write_verify import WriteVerifyController
from repro.energy.sensing import (SenseConfig, margin_study,
                                  read_bit_error_rate, state_currents_ua)


class TestWriteVerifyAnalytic:
    def test_strong_drive_needs_one_pulse(self):
        ctrl = WriteVerifyController(write_current_ua=200.0)
        assert ctrl.switch_probability == 1.0
        assert ctrl.expected_attempts_per_bit() == pytest.approx(1.0)
        assert ctrl.expected_failure_rate() == 0.0

    def test_weak_drive_retries(self):
        ctrl = WriteVerifyController(write_current_ua=20.0, max_retries=5)
        assert 0.0 < ctrl.switch_probability < 1.0
        assert ctrl.expected_attempts_per_bit() > 1.0
        assert 0.0 < ctrl.expected_failure_rate() < 1.0

    def test_more_retries_fewer_failures(self):
        weak = dict(write_current_ua=15.0)
        few = WriteVerifyController(max_retries=1, **weak)
        many = WriteVerifyController(max_retries=8, **weak)
        assert many.expected_failure_rate() < few.expected_failure_rate()

    def test_energy_scales_with_attempts(self):
        strong = WriteVerifyController(write_current_ua=200.0)
        # identical pulse energy comparison requires same current; compare
        # attempts ratio instead
        weak = WriteVerifyController(write_current_ua=25.0, max_retries=10)
        assert weak.expected_energy_pj_per_bit() / weak._pulse_energy_pj == \
            pytest.approx(weak.expected_attempts_per_bit())
        assert strong.expected_attempts_per_bit() <= \
            weak.expected_attempts_per_bit()

    def test_invalid_retries(self):
        with pytest.raises(ValueError):
            WriteVerifyController(max_retries=-1)


class TestWriteVerifyMonteCarlo:
    def test_reliable_write_converges(self):
        ctrl = WriteVerifyController(write_current_ua=200.0)
        rng = np.random.default_rng(0)
        current = np.zeros(256, dtype=np.int8)
        target = rng.integers(0, 2, 256).astype(np.int8)
        result, report = ctrl.write_bits(current, target, rng)
        np.testing.assert_array_equal(result, target)
        assert report.failures == 0
        assert report.attempts == int(target.sum())  # only toggling bits

    def test_same_state_bits_cost_nothing(self):
        ctrl = WriteVerifyController(write_current_ua=200.0)
        bits = np.ones(64, dtype=np.int8)
        _, report = ctrl.write_bits(bits, bits, np.random.default_rng(0))
        assert report.attempts == 0
        assert report.energy_pj == 0.0

    def test_weak_drive_leaves_failures(self):
        ctrl = WriteVerifyController(write_current_ua=5.0, max_retries=1)
        rng = np.random.default_rng(1)
        current = np.zeros(512, dtype=np.int8)
        target = np.ones(512, dtype=np.int8)
        result, report = ctrl.write_bits(current, target, rng)
        assert report.failures > 0
        assert report.failures / report.bits > 0.5  # nearly nothing switches

    def test_monte_carlo_matches_analytic(self):
        ctrl = WriteVerifyController(write_current_ua=32.0, max_retries=3)
        rng = np.random.default_rng(2)
        current = np.zeros(20000, dtype=np.int8)
        target = np.ones(20000, dtype=np.int8)
        _, report = ctrl.write_bits(current, target, rng)
        mc_attempts = report.attempts / 20000
        assert mc_attempts == pytest.approx(ctrl.expected_attempts_per_bit(),
                                            rel=0.05)

    def test_shape_mismatch(self):
        ctrl = WriteVerifyController()
        with pytest.raises(ValueError):
            ctrl.write_bits(np.zeros(4, dtype=np.int8),
                            np.zeros(5, dtype=np.int8))


class TestDeploymentStudy:
    def test_paper_scale_deployment(self):
        """Deploying the compressed 26 MB backbone is a one-time, bounded cost."""
        bits = int(9.75 * 2**20 * 8)   # 1:4-compressed backbone
        ctrl = WriteVerifyController(max_retries=3)
        assert ctrl.expected_failure_rate() < 1e-3
        # half the bits toggle when random data lands on an erased array
        assert bits / 2 * ctrl.expected_energy_pj_per_bit() > 0
        # energy per bit within ~2x of the Table 2 figure (retry overhead)
        assert ctrl.expected_energy_pj_per_bit() < 0.2


class TestSensing:
    def test_state_currents_ordered(self):
        cur = state_currents_ua()
        assert cur["i_p_ua"] > cur["i_ref_ua"] > cur["i_ap_ua"]

    def test_low_variation_negligible_ber(self):
        ber = read_bit_error_rate(config=SenseConfig(resistance_sigma=0.02))
        assert ber < 1e-9

    def test_ber_monotone_in_variation(self):
        bers = [read_bit_error_rate(config=SenseConfig(resistance_sigma=s))
                for s in (0.02, 0.05, 0.10, 0.15)]
        assert bers == sorted(bers)

    def test_margin_study_keys(self):
        study = margin_study()
        assert study["tmr"] == pytest.approx(0.987, abs=0.01)
        assert study["sense_margin_ua"] > 0
        assert study["ber@sigma=0.05"] < study["ber@sigma=0.15"]

    def test_digital_readout_robust_at_nominal_variation(self):
        """The headline: at typical 5% variation the all-digital read path
        is effectively error-free — no ADC precision cliff."""
        assert read_bit_error_rate() < 1e-5

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            SenseConfig(resistance_sigma=0.7)


def fresh_modules(code: str, package: str) -> list:
    """The modules of ``package`` that ``code`` leaves loaded when it runs
    in a fresh interpreter on this tree's ``src``."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code += ("\nimport sys\n"
             f"print(*sorted(m for m in sys.modules if m == {package!r}\n"
             f"              or m.startswith({package + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


@pytest.mark.parametrize("module", ["repro", "repro.serve", "repro.dse",
                                    "repro.harness", "repro.energy",
                                    "repro.core"])
def test_package_import_does_not_load_the_linter(module):
    """No ``repro.lint`` module is loaded by importing the package, the
    server, the sweep engine, the experiment harness or the hardware
    models in a fresh interpreter: the linter is on no path these
    packages run."""
    assert fresh_modules(f"import {module}", "repro.lint") == []


def test_ablations_build_loads_no_scipy():
    """The package depends on numpy alone: the sense-margin BER, the only
    statistic that ever needed scipy, is a closed-form ``math.erfc``, so
    building every ablation in a fresh interpreter loads no scipy."""
    code = ("from repro.harness.ablations import build_ablations\n"
            "build_ablations()")
    assert fresh_modules(code, "scipy") == []
