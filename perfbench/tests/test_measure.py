"""Percentiles, the ten-samples-beyond rule, and host-speed scaling."""

import time

import pytest

from e2e.measure import beyond, min_samples, percentile


def test_nearest_rank_percentile():
    samples = list(range(1, 101))          # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_beyond_counts_samples_above_the_rank():
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert beyond(100, 90) == 10
    assert beyond(40, 75) == 10


def test_min_samples_is_the_smallest_qualifying_count():
    assert min_samples(99) == 1000
    assert min_samples(90) == 100
    assert min_samples(75) == 40
    assert min_samples(50) == 1
    for pct in (99, 90, 75):
        n = min_samples(pct)
        assert beyond(n, pct) >= 10 > beyond(n - 1, pct)


def test_host_slowness_is_kernel_time_over_the_reference(monkeypatch):
    from e2e import measure

    def slow_kernel():
        time.sleep(2 * measure.REFERENCE_MS / 1e3)

    monkeypatch.setattr(measure, "reference_kernel", slow_kernel)
    assert 1.9 < measure.host_slowness() < 3.0
