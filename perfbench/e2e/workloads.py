"""The benchmark's workloads: the four user paths of the repro package.

Every workload is one process driving the library's public API with the
library defaults (``workers=1``, the 25 ms batching window, the kernel
``REPRO_KERNEL`` selects).  Inputs come from the workload seed only; the
DSE workloads sweep the fixed ``FULL_SPEC`` and take no input from it.

A workload has four phases:

* ``setup`` — imports plus :meth:`Workload.prepare` (server boot,
  accelerator load, cache fill): everything before the first timed
  operation.  ``setup_s`` measures it.
* ``measure`` — repeat the timed operation for a time budget (or a fixed
  count, in a traced run), checking each result outside the timed region.
* ``counts`` — exact counts that must repeat from run to run.
* ``teardown`` — stop what ``prepare`` started.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import shutil
import time
import urllib.request
from typing import Dict, List, Optional, Sequence

from .client import ClosedLoop
from .measure import host_slowness, min_samples
from .spans import SpanStore


@dataclasses.dataclass
class Measurement:
    """Latencies of the operations that completed, and what went wrong."""

    latencies_s: List[float] = dataclasses.field(default_factory=list)
    #: Host slowness around each completed operation (1.0 when the
    #: workload's times are not scaled): its latency over this is the
    #: scaled time.
    slowness: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: Seconds spent inside operations: their sum for a serial loop, the
    #: wall time for concurrent clients.  Not scaled.
    busy_s: float = 0.0
    problems: List[str] = dataclasses.field(default_factory=list)

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)


class Workload:
    """Base: a serial loop of one timed operation."""

    name = ""
    why = ""
    #: Fixed tail percentile; the run measures at least enough operations
    #: for it to have ten samples beyond it.
    tail_pct = 50.0
    #: Fewest operations a timed run measures, whatever its time budget.
    #: On a shared 2-core host the CPU speed drifts by a fifth within
    #: seconds, so a median needs several operations to be steady from
    #: run to run.
    least_ops = 1
    #: Operations in a traced run (fixed, so its counts repeat exactly).
    trace_ops = 1
    #: Whether a traced run also traces :meth:`prepare` (sim-step: the
    #: accelerator load is the set-up a kernel change can move).
    trace_prepare = False
    #: Whether operation times are divided by the host's slowness
    #: (:func:`host_slowness`): true for CPU-bound operations.
    host_scaled = True

    def __init__(self, seed: int, root: pathlib.Path, tmp: pathlib.Path,
                 small: bool = False):
        self.seed = seed
        self.root = root
        self.tmp = tmp
        #: Tiny inputs and no pinned answers: for the benchmark's own tests.
        self.small = small

    @property
    def min_ops(self) -> int:
        if self.small:
            return 1
        return max(self.least_ops, min_samples(self.tail_pct))

    # ------------------------------------------------------------ phases
    def setup(self) -> None:
        self.imports()
        self.prepare()

    def imports(self) -> None:
        """Import the library modules the workload drives."""

    def prepare(self) -> None:
        """Build the state the timed operations run against."""

    def restart(self) -> None:
        """Fresh state for a second pass over the same fixed work."""
        self.prepare()

    def teardown(self) -> None:
        """Stop what :meth:`prepare` started."""

    def before_op(self) -> None:
        """Untimed per-operation preparation."""

    def op(self) -> None:
        raise NotImplementedError

    def check_op(self) -> List[str]:
        """Problems with the last operation's outputs (empty = correct)."""
        return []

    def counts(self) -> Dict[str, float]:
        """Exact counts of the last traced run."""
        return {}

    def measure(self, seconds: float, max_ops: Optional[int] = None,
                store: Optional[SpanStore] = None) -> Measurement:
        m = Measurement()
        slow_before = host_slowness() if self.host_scaled else 1.0
        start = time.perf_counter()
        while True:
            if max_ops is not None:
                if m.attempted >= max_ops:
                    break
            elif (m.attempted >= self.min_ops
                  and time.perf_counter() - start >= seconds):
                break
            self.before_op()
            m.attempted += 1
            span = store.open_op("bench.op", m.attempted) if store else None
            t0 = time.perf_counter()
            try:
                self.op()
            except Exception as exc:  # noqa: BLE001 — counted, run goes on
                m.fail(f"op {m.attempted}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if span is not None:
                    store.close_op(span)
            # The host's speed on both sides of the operation, untimed.
            slow_after = host_slowness() if self.host_scaled else 1.0
            m.latencies_s.append(elapsed)
            m.slowness.append((slow_before + slow_after) / 2)
            slow_before = slow_after
            problems = self.check_op()
            if problems:
                m.fail(f"op {m.attempted}: " + "; ".join(problems))
        m.wall_s = time.perf_counter() - start
        m.busy_s = sum(m.latencies_s)
        return m


# --------------------------------------------------------------------- DSE

#: SHA-256 of the canonical JSON of ``frontier_doc(run_sweep(FULL_SPEC))``.
FULL_FRONTIER_SHA256 = (
    "56fe38502b399c9164c5739a4a6a536b3e5d671b34597eb47c4a7dfc27a52749")


def canonical_sha256(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DSEWorkload(Workload):
    """``run_sweep(FULL_SPEC)``, serial, through one kind of cache."""

    mode = ""

    def imports(self) -> None:
        from repro.dse import cache, engine, evaluate, spec
        self.cache_mod, self.engine = cache, engine
        self.spec = spec.SMOKE_SPEC if self.small else spec.FULL_SPEC
        # The per-process workload memo is lazy set-up every sweep pays once.
        evaluate.get_workload("paper")
        self.passes = 0

    def new_cache_dir(self) -> pathlib.Path:
        self.passes += 1
        path = self.tmp / f"{self.mode}-cache-{self.passes}"
        return path

    def op(self) -> None:
        self.result = self.engine.run_sweep(spec=self.spec, cache=self.cache)

    def check_op(self) -> List[str]:
        problems = []
        result = self.result
        if result["errors"]:
            problems.append(f"{len(result['errors'])} error records")
        if not self.small:
            sha = canonical_sha256(self.engine.frontier_doc(result))
            if sha != FULL_FRONTIER_SHA256:
                problems.append(f"frontier sha256 {sha} != pinned")
        stats = self.cache.stats()
        expect = self.expected_cache(result["configs"])
        got = {k: stats[k] for k in expect}
        if got != expect:
            problems.append(f"cache counters {got} != {expect}")
        return problems

    def expected_cache(self, configs: int) -> Dict[str, int]:
        raise NotImplementedError

    def counts(self) -> Dict[str, float]:
        stats = self.cache.stats()
        lookups = stats["hits"] + stats["misses"]
        return {"repro.dse.cache.DiskCache.hits": stats["hits"],
                "repro.dse.cache.DiskCache.misses": stats["misses"],
                "repro.dse.cache.hit_ratio": stats["hits"] / lookups,
                "dse.frontier_records": len(self.result["frontier"])}


class DSENull(DSEWorkload):
    name = "dse-null"
    why = ("FULL_SPEC sweep (4500 configs) with NullCache: the analytical "
           "model does nearly all the work")
    mode = "null"
    least_ops = 7

    def before_op(self) -> None:
        self.cache = self.cache_mod.NullCache()

    def expected_cache(self, configs: int) -> Dict[str, int]:
        return {"hits": 0, "misses": configs, "stored": 0}


class DSECold(DSEWorkload):
    name = "dse-cold"
    why = ("FULL_SPEC sweep into an empty DiskCache: model plus cache "
           "writes")
    mode = "cold"
    least_ops = 3

    def before_op(self) -> None:
        previous = self.tmp / f"{self.mode}-cache-{self.passes}"
        shutil.rmtree(previous, ignore_errors=True)
        self.cache = self.cache_mod.DiskCache(self.new_cache_dir())

    def expected_cache(self, configs: int) -> Dict[str, int]:
        return {"hits": 0, "misses": configs, "stored": configs}


class DSEWarm(DSEWorkload):
    name = "dse-warm"
    why = ("FULL_SPEC sweep from a filled DiskCache: only hashing, cache "
           "reads and Pareto reduction run")
    mode = "warm"
    least_ops = 25

    def prepare(self) -> None:
        self.warm_dir = self.new_cache_dir()
        self.engine.run_sweep(spec=self.spec,
                              cache=self.cache_mod.DiskCache(self.warm_dir))

    def restart(self) -> None:
        """The filled cache is reused: a warm pass never writes to it."""

    def before_op(self) -> None:
        self.cache = self.cache_mod.DiskCache(self.warm_dir)

    def expected_cache(self, configs: int) -> Dict[str, int]:
        return {"hits": configs, "misses": 0, "stored": 0}


# ------------------------------------------------------------------- serve

class Serve(Workload):
    """Closed loop of 2 keep-alive clients against an in-process server.

    A run sends whole rounds of :attr:`round_requests` requests, each round
    against a freshly booted server with an empty cache, until the time
    budget is spent.  The requests of a round are fixed by the seed, so
    its hits and misses are too: a faster server sends more rounds, never
    a cheaper mix.
    """

    name = "serve"
    why = ("2 closed-loop clients POST /v1/evaluate with seeded draws from "
           "DEFAULT_SPEC (~30% misses): batching window, HTTP and JSON")
    tail_pct = 99.0
    #: A request's latency is mostly the batching window and TCP timers,
    #: which do not slow with the CPU.
    host_scaled = False
    trace_ops = 200
    clients = 2

    def imports(self) -> None:
        import numpy as np
        from repro.dse.cache import DiskCache
        from repro.dse.evaluate import evaluate_config
        from repro.dse.spec import DEFAULT_SPEC, SMOKE_SPEC, canonical_json
        from repro.serve import ServeApp, make_server
        self._DiskCache, self._ServeApp = DiskCache, ServeApp
        self._make_server, self._evaluate = make_server, evaluate_config
        self._canonical = canonical_json
        self.configs = (SMOKE_SPEC if self.small else DEFAULT_SPEC).configs()
        rng = np.random.default_rng(self.seed)
        self.choice = rng.integers(0, len(self.configs),
                                   size=self.round_requests)
        encoded = [json.dumps({"config": c}).encode("utf-8")
                   for c in self.configs]
        self.bodies = [encoded[i] for i in self.choice]
        self.boots = 0
        self.server = None

    @property
    def round_requests(self) -> int:
        """Requests per round: enough for ten of them beyond p99."""
        return 20 if self.small else min_samples(self.tail_pct)

    def prepare(self) -> None:
        import threading
        self.boots += 1
        cache = self._DiskCache(self.tmp / f"serve-cache-{self.boots}")
        self.app = self._ServeApp(cache=cache)
        self.server = self._make_server("127.0.0.1", 0, self.app)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="perfbench-serve")
        self.thread.start()
        self._get("/v1/health")

    def restart(self) -> None:
        self.teardown()
        self.prepare()

    def teardown(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.app.shutdown()
        self.thread.join()
        self.server = None

    def _get(self, path: str) -> dict:
        url = f"http://127.0.0.1:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=30) as resp:
            return json.loads(resp.read())

    def measure(self, seconds: float, max_ops: Optional[int] = None,
                store: Optional[SpanStore] = None) -> Measurement:
        """Whole rounds until ``seconds`` passed; with ``max_ops``, one
        round of that many requests in lockstep, so that its batch counts
        repeat exactly."""
        requests = self.round_requests if max_ops is None else max_ops
        m = Measurement()
        start = time.perf_counter()
        while True:
            if m.attempted:
                self.restart()          # a fresh cache: the same mix again
            loop = ClosedLoop(self.port, self.bodies, clients=self.clients)
            t0 = time.perf_counter()
            replies = loop.run(requests, lockstep=max_ops is not None,
                               store=store)
            m.busy_s += time.perf_counter() - t0
            m.attempted += len(replies)
            m.latencies_s += [r.latency_s for r in replies]
            m.slowness += [1.0] * len(replies)
            self.check_round(replies, m)
            if max_ops is not None or time.perf_counter() - start >= seconds:
                break
        m.wall_s = time.perf_counter() - start
        return m

    def check_round(self, replies: Sequence, m: Measurement) -> None:
        """Each record equals a direct ``evaluate_config``; the replies'
        cache and batch fields agree with ``/v1/stats``."""
        direct: Dict[int, str] = {}
        batches: Dict[int, dict] = {}
        served = {"hit": set(), "miss": set()}
        for reply in replies:
            if reply.failed:
                m.fail(f"request {reply.index}: status {reply.status} "
                       f"{reply.error or ''}".strip())
                continue
            index = int(self.choice[reply.index])
            if index not in direct:
                direct[index] = self._canonical(
                    self._evaluate(self.configs[index]))
            doc = reply.doc
            if self._canonical(doc["record"]) != direct[index]:
                m.fail(f"request {reply.index}: record differs from "
                       "evaluate_config")
            batch = doc["batch"]
            batches[batch["index"]] = batch
            served[doc["cache"]].add((batch["index"], doc["key"]))
        self.stats = self._get("/v1/stats")
        cache, batching = self.stats["cache"], self.stats["batching"]
        agree = {
            "requests": (batching["requests"], len(replies)),
            "batches": (batching["batches"], len(batches)),
            "coalesced": (batching["coalesced"],
                          sum(b["requests"] - b["unique"]
                              for b in batches.values())),
            "hits": (cache["hits"], len(served["hit"])),
            "misses": (cache["misses"], len(served["miss"])),
        }
        for what, (stats_value, reply_value) in agree.items():
            if stats_value != reply_value:
                m.fail(f"/v1/stats {what}={stats_value} but replies "
                       f"say {reply_value}")

    def counts(self) -> Dict[str, float]:
        cache, batching = self.stats["cache"], self.stats["batching"]
        lookups = cache["hits"] + cache["misses"]
        return {"repro.dse.cache.DiskCache.hits": cache["hits"],
                "repro.dse.cache.DiskCache.misses": cache["misses"],
                "repro.dse.cache.hit_ratio": cache["hits"] / lookups,
                "serve.requests": batching["requests"],
                "serve.batches": batching["batches"],
                "serve.coalesced": batching["coalesced"],
                "serve.requests_per_batch": (batching["requests"]
                                             / batching["batches"])}


# ------------------------------------------------------------ train-table1

class TrainTable1(Workload):
    name = "train-table1"
    why = ("run_table1 on Table1Config.fast(): the only path through "
           "repro.nn and repnet (im2col, col2im, the autograd tape)")
    #: One run takes seconds; the median of two is steadier than one.
    least_ops = 2
    #: Its matrix products run on threaded BLAS across both cores, whose
    #: worker threads are still spinning when an operation returns; the
    #: single-threaded reference kernel timed then reads them, not the
    #: host, so these times stay unscaled.
    host_scaled = False

    def imports(self) -> None:
        from repro.harness import table1
        self.table1 = table1
        config = table1.Table1Config.fast()
        if self.small:
            config = dataclasses.replace(
                config, base_train_per_class=4, base_test_per_class=2,
                pretrain_epochs=1, recovery_epochs=1, task_scale=0.1,
                task_epochs=1, tasks=("pets",))
        self.config = dataclasses.replace(config, seed=self.seed)
        self.reference: Optional[dict] = None
        if self.seed == 0 and not self.small:
            path = self.root / "results" / "table1_fast.json"
            with open(path, encoding="utf-8") as fh:
                pinned = json.load(fh)
            self.reference = self._accuracies(pinned)

    @staticmethod
    def _accuracies(result: dict) -> dict:
        return {"base_accuracy_dense": result["base_accuracy_dense"],
                "rows": result["rows"]}

    def op(self) -> None:
        self.result = self.table1.run_table1(self.config)

    def check_op(self) -> List[str]:
        got = self._accuracies(self.result)
        if self.reference is None:
            # Other seeds have no pinned answer: every repeat must agree.
            self.reference = got
            return []
        if got != self.reference:
            return ["accuracies differ from "
                    + ("results/table1_fast.json" if self.seed == 0
                       and not self.small else "this run's first repeat")]
        return []


# ---------------------------------------------------------------- sim-step

#: Per-step ``PEStats`` deltas at seed 0 (``{"sram": {...}, "mram": {...}}``).
SIM_STEP_STATS_SEED0: Dict[str, Dict[str, int]] = {
    "sram": {"cycles": 106752, "weight_bits_read": 37612544,
             "weight_bits_written": 117856, "index_bits_read": 9403136,
             "index_bits_written": 58928, "activation_bits_read": 1001248,
             "macs": 587696, "dense_equivalent_macs": 2116320,
             "adder_tree_ops": 188992, "shift_acc_ops": 188992,
             "comparator_ops": 2350784, "mux_ops": 0, "rowwise_acc_ops": 8,
             "pipeline_stalls": 0},
    "mram": {"cycles": 354944, "weight_bits_read": 13336576,
             "weight_bits_written": 0, "index_bits_read": 6668288,
             "index_bits_written": 0, "activation_bits_read": 13336576,
             "macs": 1667072, "dense_equivalent_macs": 6664192,
             "adder_tree_ops": 40496, "shift_acc_ops": 1667072,
             "comparator_ops": 0, "mux_ops": 1667072, "rowwise_acc_ops": 0,
             "pipeline_stalls": 3872},
}

#: The ``PEStats`` fields reported as exact per-layer counts.
SIM_COUNTERS = ("macs", "cycles", "weight_bits_written",
                "index_bits_written")


class _SimLayer:
    __slots__ = ("name", "learnable", "weight", "mask", "x", "delta")

    def __init__(self, name, learnable, weight, mask, x, delta):
        self.name, self.learnable = name, learnable
        self.weight, self.mask, self.x, self.delta = weight, mask, x, delta


class SimStep(Workload):
    """One bit-true training step over the Table 1 Rep-Net's 35 GEMMs."""

    name = "sim-step"
    why = ("HybridAccelerator (1:4, INT8) runs gemm on all 35 Rep-Net "
           "GEMMs plus error, gradient and update on the learnable ones")
    tail_pct = 75.0
    least_ops = 150
    trace_ops = 10
    trace_prepare = True
    #: Activation rows the transposed gradient buffer holds at once.
    micro_batch = 4
    lr_shift = 8

    def imports(self) -> None:
        import numpy as np
        from repro.core import HybridAccelerator, extract_repnet_workload
        from repro.repnet.model import build_repnet_model
        from repro.sparsity import NMPattern, compute_nm_mask
        self.np = np
        self._Accelerator = HybridAccelerator
        self.pattern = NMPattern(1, 4)
        self._mask = compute_nm_mask
        layers = extract_repnet_workload(
            build_repnet_model(seed=0, repnet_width=16), 16).layers
        self.geometry = layers[::6] if self.small else layers

    def _nonzero(self, rng, shape, high: int):
        """Values in ``±[1, high]``: no zeros, so every count is fixed."""
        np = self.np
        magnitude = rng.integers(1, high + 1, size=shape)
        return np.where(rng.random(shape) < 0.5, -magnitude,
                        magnitude).astype(np.int64)

    def prepare(self) -> None:
        np = self.np
        rng = np.random.default_rng(self.seed)
        self.acc = self._Accelerator(self.pattern)
        self.layers: List[_SimLayer] = []
        for geo in self.geometry:
            dense = self._nonzero(rng, (geo.in_dim, geo.out_dim), 127)
            mask = self._mask(np.abs(dense).astype(np.float64), self.pattern,
                              axis=0).astype(bool)
            weight = np.where(mask, dense, 0)
            x = self._nonzero(rng, (geo.positions, geo.in_dim), 63)
            rows = min(self.micro_batch, geo.positions)
            delta = (self._nonzero(rng, (rows, geo.out_dim), 15)
                     if geo.learnable else None)
            self.acc.load_gemm(geo.name, weight, learnable=geo.learnable)
            self.layers.append(_SimLayer(geo.name, geo.learnable, weight,
                                         mask, x, delta))
        self.step_stats: Optional[Dict[str, Dict[str, int]]] = None

    def _stats(self) -> Dict[str, Dict[str, int]]:
        return {kind: s.as_dict() for kind, s in self.acc.stats().items()}

    def before_op(self) -> None:
        self.stats_before = self._stats()

    def op(self) -> None:
        np, acc = self.np, self.acc
        self.outputs = []
        for layer in self.layers:
            weight = layer.weight
            y = acc.gemm(layer.name, layer.x)
            if not layer.learnable:
                self.outputs.append((layer, weight, y, None, None))
                continue
            dx = acc.propagate_error(layer.name, layer.delta)
            grad = acc.weight_gradient(layer.name, layer.x[:len(layer.delta)],
                                       layer.delta)
            stepped = np.clip(weight - (grad >> self.lr_shift), -127, 127)
            # Keep the N:M support: an entry that would reach zero keeps
            # its old value, so the step's counts never depend on the data.
            updated = np.where(layer.mask,
                               np.where(stepped == 0, weight, stepped), 0)
            acc.update_gemm(layer.name, updated)
            layer.weight = updated
            self.outputs.append((layer, weight, y, dx, grad))

    def check_op(self) -> List[str]:
        problems = []
        for layer, weight, y, dx, grad in self.outputs:
            if not (y == layer.x @ weight).all():
                problems.append(f"{layer.name}: gemm != x @ W")
            if dx is None:
                continue
            if not (dx == layer.delta @ weight.T).all():
                problems.append(f"{layer.name}: propagate_error != d @ W.T")
            x = layer.x[:len(layer.delta)]
            if not (grad == x.T @ layer.delta).all():
                problems.append(f"{layer.name}: weight_gradient != x.T @ d")
        after = self._stats()
        step = {kind: {k: after[kind][k] - self.stats_before[kind][k]
                       for k in after[kind]} for kind in after}
        if self.step_stats is None:
            self.step_stats = step
            if (not self.small and self.seed == 0
                    and step != SIM_STEP_STATS_SEED0):
                problems.append(f"step PEStats {step} != pinned seed-0 stats")
        elif step != self.step_stats:
            problems.append("step PEStats differ from the first step's")
        return problems

    def counts(self) -> Dict[str, float]:
        return {f"sim.{kind}.{field}": self.step_stats[kind][field]
                for kind in ("sram", "mram") for field in SIM_COUNTERS}


#: Exact counts, reported by the workloads they apply to and as 0 by the
#: rest; the ratios among them are unit ``ratio``.
COUNT_NAMES = (
    ("repro.dse.cache.DiskCache.hits", "repro.dse.cache.DiskCache.misses",
     "repro.dse.cache.hit_ratio", "dse.frontier_records", "serve.requests",
     "serve.batches", "serve.coalesced", "serve.requests_per_batch")
    + tuple(f"sim.{kind}.{field}" for kind in ("sram", "mram")
            for field in SIM_COUNTERS))
RATIOS = ("repro.dse.cache.hit_ratio", "serve.requests_per_batch")


WORKLOADS = {cls.name: cls for cls in (DSENull, DSECold, DSEWarm, Serve,
                                       TrainTable1, SimStep)}
