"""Statistics rules the benchmark reports by.

* A timing is reported as a median plus a tail percentile that each
  workload fixes up front.  The workload measures at least
  :func:`min_samples` operations, so :data:`MIN_BEYOND` samples always lie
  beyond its tail percentile and the percentile never changes from one
  run to the next.
* Percentiles use the nearest-rank definition: the ``p``-th percentile of
  ``n`` sorted samples is the one at rank ``ceil(p * n / 100)``, and the
  samples beyond it are the ``n - rank`` above that rank.
* Times of CPU-bound work are divided by the host's slowness at the time
  (:func:`host_slowness`).  On a shared host the CPU speed swings by half
  or more for minutes at a time; a fixed reference kernel timed next to
  each operation slows by the same factor, so the scaled time reads as
  milliseconds at :data:`REFERENCE_MS` speed whatever the neighbours do.
  The kernel is the benchmark's own code, so a change to the package under
  test never moves it.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from typing import Sequence

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(n: int, pct: float) -> int:
    """1-based rank of the ``pct``-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return min(n, max(1, math.ceil(pct * n / 100.0)))


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the ``pct``-th percentile."""
    return n - nearest_rank(n, pct)


def percentile(samples: Sequence[float], pct: float) -> float:
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def min_samples(pct: float) -> int:
    """Fewest samples for which ``pct`` has ``MIN_BEYOND`` beyond it
    (1 for the median, which needs no samples beyond it)."""
    if pct <= 50.0:
        return 1
    n = 1
    while beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Median milliseconds of :func:`reference_kernel` on the 2-core x86
#: container this benchmark was tuned on, with the core already busy (the
#: clock ramps up under load: right after an idle second the kernel takes
#: about 1.8 times as long) and the neighbours quiet.
REFERENCE_MS = 4.0

_REF_INTS = np.arange(4096, dtype=np.int64).reshape(64, 64)
# Every array stays under glibc's 128 KiB mmap threshold, so the kernel's
# allocations cost the same in every process.
_REF_FLOATS = np.linspace(-1.0, 1.0, 1 << 13)
_REF_INDEX = (np.arange(1 << 13) * 7919) % (1 << 13)
_REF_STARTS = np.arange(0, 1 << 13, 64)


def reference_kernel() -> None:
    """Fixed work in the mix the workloads do: interpreter loops over
    dicts and floats, hashing of JSON, small integer matrix products,
    gathers, segmented sums and elementwise float math.  Nothing here
    goes through a threaded BLAS, whose thread start-up would swamp it."""
    acc: dict = {}
    for i in range(12000):
        acc[i % 97] = acc.get(i % 97, 0) + i * i
    text = json.dumps(acc, sort_keys=True).encode("utf-8")
    for _ in range(20):
        text = hashlib.sha256(text).hexdigest().encode("ascii") + text[:1500]
    ints = _REF_INTS
    for _ in range(12):
        ints = (ints @ ints.T) % 1009
    floats = _REF_FLOATS
    for _ in range(32):
        floats = np.tanh(np.take(floats, _REF_INDEX) * 1.5)
        np.add.reduceat(floats, _REF_STARTS)


def host_slowness(repeats: int = 3) -> float:
    """Median time of :func:`reference_kernel` now, over REFERENCE_MS."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3 / REFERENCE_MS
