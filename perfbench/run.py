#!/usr/bin/env python3
"""End-to-end benchmark of the repro package (see README.md here).

    python3 perfbench/run.py --workload serve --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
amount of work twice, untraced then traced, and reports per-layer calls and
self time.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation was correct.

Run from a checkout of the repository: the package is imported from the
``src`` directory next to this one.  Everything a run writes stays inside
the checkout, under ``.perfbench/``: each run's cache directories go to a
fresh temporary directory there, removed when the run ends, and a traced
run leaves its spans and exact counts there.
"""

import time

T0 = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: End-to-end metrics every workload reports, with units.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("ops_per_s", "1/s"))

#: Extra set-up samples, each in a fresh interpreter, run side by side on
#: the host's two cores; with the run's own set-up, ``setup_s`` is the
#: median of three.
SETUP_PROBES = 2

#: The per-path names of the end-to-end numbers ``--workload all``
#: prints: (name, unit, workload, metric, scale).
NAMED = (
    ("dse.nocache_ms", "ms", "dse-null", "op_p50_ms", 1.0),
    ("dse.cold_ms", "ms", "dse-cold", "op_p50_ms", 1.0),
    ("dse.warm_ms", "ms", "dse-warm", "op_p50_ms", 1.0),
    ("serve.evaluate.p50_ms", "ms", "serve", "op_p50_ms", 1.0),
    ("serve.evaluate.p99_ms", "ms", "serve", "op_tail_ms", 1.0),
    ("serve.evaluate.rps", "1/s", "serve", "ops_per_s", 1.0),
    ("table1_fast_s", "s", "train-table1", "op_p50_ms", 1e-3),
    ("sim.step_ms", "ms", "sim-step", "op_p50_ms", 1.0),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    # Tiny inputs and no pinned answers, for the benchmark's own tests.
    parser.add_argument("--small", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


# ------------------------------------------------------------ timed runs

def probe_setups(args):
    """Set-up seconds of :data:`SETUP_PROBES` fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.small:
        cmd.append("--small")
    probes = [subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                               text=True) for _ in range(SETUP_PROBES)]
    try:
        outs = [probe.communicate(timeout=170)[0] for probe in probes]
    finally:
        for probe in probes:
            if probe.poll() is None:
                probe.kill()
            probe.wait()
    if any(probe.returncode for probe in probes):
        raise RuntimeError("a set-up probe failed")
    return [json.loads(out.strip().splitlines()[-1])["setup_s"]
            for out in outs]


def setup_seconds():
    """This process's set-up time so far, scaled by the host's slowness."""
    from e2e.measure import host_slowness
    raw = time.perf_counter() - T0
    return raw / host_slowness()


def timed_run(wl, args):
    from e2e.measure import peak_rss_mb, percentile, beyond

    wl.setup()
    setups = [setup_seconds()]
    setups += probe_setups(args)
    m = wl.measure(args.seconds)

    raw_ms = [s * 1e3 for s in m.latencies_s]
    lat_ms = [t / slow for t, slow in zip(raw_ms, m.slowness)]
    n = len(lat_ms)
    if n < wl.min_ops:
        m.fail(f"only {n} operations completed; p{wl.tail_pct:g} needs "
               f"{wl.min_ops}", ops=0)

    def tail(samples):
        if wl.tail_pct > 50:
            return percentile(samples, wl.tail_pct)
        return statistics.median(samples)

    # Busy time scaled like the latencies: their scaled sum for a serial
    # loop, the unchanged wall time for serve's concurrent clients.
    busy_s = m.busy_s * sum(lat_ms) / sum(raw_ms) if n else 0.0
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "op_p50_ms": metric(statistics.median(lat_ms) if n else 0.0, "ms"),
        "op_tail_ms": metric(tail(lat_ms) if n else 0.0, "ms"),
        "ops_per_s": metric(n / busy_s if busy_s else 0.0, "1/s"),
    }
    tail_beyond = beyond(n, wl.tail_pct) if n else 0
    print(f"[perfbench] {wl.name} seed={args.seed}: {m.attempted} operations "
          f"attempted, {m.failed} failed, {m.wall_s:.1f} s measured")
    print(f"  setup samples (s, scaled): "
          + ", ".join(f"{s:.4f}" for s in setups))
    print(f"  op_tail_ms is p{wl.tail_pct:g} of {n} samples "
          f"({tail_beyond} beyond it)")
    if wl.host_scaled and n:
        print(f"  host slowness median {statistics.median(m.slowness):.3f}; "
              f"unscaled host time: p50 {statistics.median(raw_ms):.4f} ms, "
              f"tail {tail(raw_ms):.4f} ms")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {metrics[name]['value']:>14.4f} {unit}")
    for problem in m.problems:
        print(f"  FAILED: {problem}")
    correct = m.failed == 0 and not m.problems
    emit(correct, m.attempted, m.failed, metrics)
    return correct


# ----------------------------------------------------------- traced runs

def traced_run(wl, args):
    from e2e import layers
    from e2e.report import per_layer_metrics, self_time_table
    from e2e.spans import SpanStore, write_chrome_trace

    ops = min(wl.trace_ops, 2) if args.small else wl.trace_ops
    wl.setup()
    untraced = wl.measure(args.seconds, max_ops=ops)

    store = SpanStore()
    if not wl.trace_prepare:
        wl.restart()
    recorder = layers.install(store)
    try:
        if wl.trace_prepare:
            wl.restart()
        traced = wl.measure(args.seconds, max_ops=ops, store=store)
    finally:
        recorder.uninstall()

    spans = store.finished()
    metrics = per_layer_metrics(spans, sum(untraced.latencies_s) * 1e3,
                                wl.counts())
    exact = {k: v["value"] for k, v in metrics.items()
             if v["unit"] in ("count", "ratio")}
    stem = f"{wl.name}-seed{args.seed}"
    write_chrome_trace(OUT / f"{stem}-trace.json", spans)
    with open(OUT / f"{stem}-counts.json", "w", encoding="utf-8") as fh:
        json.dump(exact, fh, indent=1, sort_keys=True)

    value = {k: v["value"] for k, v in metrics.items()}
    print(f"[perfbench] {wl.name} seed={args.seed} traced: "
          f"{value['bench.op.calls']} operations, {value['bench.op.ms']:.1f} "
          f"ms traced vs {value['bench.untraced_op.ms']:.1f} ms untraced "
          f"(tracing overhead {value['bench.trace_overhead_ms']:+.1f} ms)")
    print("\n".join(self_time_table(metrics)))
    print(f"  exact counts: {OUT / (stem + '-counts.json')}; "
          f"spans: {OUT / (stem + '-trace.json')}")
    failed = untraced.failed + traced.failed
    problems = untraced.problems + traced.problems
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = failed == 0 and not problems
    emit(correct, untraced.attempted + traced.attempted, failed, metrics)
    return correct


# ---------------------------------------------------------- all workloads

def run_all(args):
    """Every workload in its own process; prints the named metrics."""
    from e2e.workloads import WORKLOADS

    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 1,
                             "metrics": {}}
        ok = ok and done.returncode == 0 and results[name]["correct"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"\n[perfbench] all workloads, seed={args.seed}: {attempted} "
          f"operations attempted, {failed} failed")
    named = {}
    if not args.trace:
        for name, unit, workload, key, scale in NAMED:
            value = results[workload]["metrics"].get(key, {}).get("value")
            if value is not None:
                named[name] = metric(value * scale, unit)
        for workload, result in results.items():
            for key, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
                value = result["metrics"].get(key, {}).get("value")
                if value is not None:
                    named[f"{key}.{workload}"] = metric(value, unit)
        for name, m in named.items():
            print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
    emit(ok, attempted, failed, named)
    return ok


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return 0 if run_all(args) else 1

    from e2e.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    wl = WORKLOADS[args.workload](args.seed, ROOT, tmp, small=args.small)
    try:
        if args.setup_probe:
            wl.setup()
            print(json.dumps({"setup_s": setup_seconds()}))
            return 0
        correct = traced_run(wl, args) if args.trace else timed_run(wl, args)
    finally:
        wl.teardown()
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
