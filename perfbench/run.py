"""One benchmark for the whole stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ticketing-local --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a deterministic count probe and then alternates
untraced and traced epochs, printing every per-layer metric and the
tracing overhead. Every input is generated from ``--seed`` through
``repro.sim.rng.WorkloadRNG``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
import traceback
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "ticketing-local": "wl_ticketing",
    "auction-rpc": "wl_auction",
    "durable-churn": "wl_churn",
    "parked-wake": "wl_parked",
}
#: the gated end-to-end metrics (the JSON line with --trace 0). The
#: report also prints latency_p99_us, failed_ratio and the move times:
#: the p99 median of unchanged code moved by up to 37% between two sets
#: of runs 15 minutes apart on a shared host, past the largest bound a
#: gate may have; the others are 0 or absent on some workloads
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
)
#: a run is a sequence of epochs, each a freshly built system doing a
#: fixed amount of work, repeated until ``--seconds`` have passed; every
#: figure is a median over epochs
MIN_EPOCHS = 5


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    The program is bound by the interpreter lock, so a second CPU adds
    no parallelism; on a virtual machine it adds cross-CPU thread
    handoffs, which measured ~2x slower than same-CPU ones and flipped
    between fast and slow modes within a run. Pinned, the figures are
    steady. Called before any thread starts, so every thread inherits
    the mask; the environment line records it.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass  # left unpinned; the environment line shows the mask


def import_program() -> Any:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {source}: "
                         f"{exc}") from None
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"perfbench: repro resolved outside {source}")
    return repro


def run_epoch(module: Any, rng: Any,
              spans: Any) -> Tuple[Any, Dict[str, float]]:
    """Build, warm, drive and verify one fresh system."""
    from harness import Epoch

    epoch = Epoch()
    started = time.perf_counter()
    system = module.Workload(rng, spans=spans)
    counters: Dict[str, float] = {}
    try:
        system.warm()
        epoch.setup_s = time.perf_counter() - started
        system.drive(epoch)
        system.verify()
    finally:
        counters = system.close()
    return epoch, counters


def untraced_run(module: Any, rng: Any, name: str,
                 seconds: float) -> Tuple[Dict[str, float], Dict[str, Any],
                                          List[str]]:
    from harness import calibrate, peak_rss_mb, summarize

    epochs = []
    ends = time.perf_counter() + seconds
    before = calibrate()
    while len(epochs) < MIN_EPOCHS or time.perf_counter() < ends:
        epoch = run_epoch(module, rng.fork(f"{name}:epoch{len(epochs)}"),
                          None)[0]
        after = calibrate()
        epoch.slowness = (before + after) / 2.0
        before = after
        epochs.append(epoch)
    summary = summarize(epochs)
    metrics = {key: summary[key] for key, _unit in END_TO_END
               if key in summary}
    metrics["peak_rss_mb"] = peak_rss_mb()
    level = summary["tail_level"]
    clock = summary["measured"]
    lines = [
        f"slowness           {summary['slowness']:.4f}   (calibration block "
        f"time / reference, median of {summary['epochs']} epochs; timed "
        "figures are scaled by it, the clock's reading follows in [])",
        f"setup_s            {metrics['setup_s']:.6f} s   "
        f"[{clock['setup_s']:.6f}]   (median of {summary['epochs']} set-ups)",
        f"throughput_ops_s   {metrics['throughput_ops_s']:.1f} 1/s   "
        f"[{clock['throughput_ops_s']:.1f}]   (median of "
        f"{summary['epochs']} epochs, {summary['attempted']} ops)",
        f"latency_p50_us     {metrics['latency_p50_us']:.2f} us   "
        f"[{clock['latency_p50_us']:.2f}]",
        f"latency_p99_us     {summary['latency_p99_us']:.2f} us   "
        f"[{clock['latency_p99_us']:.2f}]   "
        f"(p{level:g} per epoch, median of {summary['epochs']}; "
        f"{summary['samples']} samples, >= {summary['min_epoch_samples']} "
        f"per epoch)",
        f"failed_ratio       {summary['failed_ratio']:.6f}   "
        f"({summary['failed']} failed of {summary['attempted']}; "
        f"{summary['rejected']} expected rejections checked)",
        f"peak_rss_mb        {metrics['peak_rss_mb']:.2f} MB",
    ]
    for key, label in (("move_downtime_ms", "move_downtime_p50_ms"),
                       ("failover_ms", "failover_p50_ms")):
        value, count = summary["extra"].get(key, (0.0, 0))
        lines.append(f"{label:<21}{value:.3f} ms   ({count} samples)"
                     if count else f"{label:<21}n/a (workload does not "
                     "move services)")
    return metrics, summary, lines


def traced_run(module: Any, rng: Any, name: str,
               seconds: float) -> Tuple[Dict[str, float], Dict[str, Any],
                                        List[str]]:
    from harness import Spans, check, median, summarize
    import layers

    # the first probe also fills process-wide caches; the next two must
    # then agree exactly (they also agree across processes)
    module.probe(rng.fork(f"{name}:probe"))
    first = module.probe(rng.fork(f"{name}:probe"))
    second = module.probe(rng.fork(f"{name}:probe"))
    check(first[:2] == second[:2],
          f"count probe did not repeat: {first[:2]} then {second[:2]}")
    spans = Spans()
    counters: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    throughput: Dict[bool, List[float]] = {False: [], True: []}
    epochs = []
    ends = time.perf_counter() + seconds
    while len(epochs) < MIN_EPOCHS or time.perf_counter() < ends:
        traced = len(epochs) % 2 == 1
        epoch, epoch_counters = run_epoch(
            module, rng.fork(f"{name}:traced-epoch{len(epochs)}"),
            spans if traced else None)
        epochs.append(epoch)
        throughput[traced].append(epoch.throughput)
        if traced:
            # counters pair with span call counts, so only traced epochs
            for key, value in epoch_counters.items():
                counters[key] = counters.get(key, 0) + value
        else:
            # clock samples around public calls, free of wrapper cost
            for key, values in epoch.samples.items():
                samples.setdefault(key, []).extend(values)
    if len(first) > 2:
        samples.update(first[2])
    untraced_p99 = summarize(epochs[::2])["latency_p99_us"]
    metrics = layers.per_layer(
        spans, counters, samples, first[:2], untraced_p99,
        median(throughput[False]), median(throughput[True]))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    trace_path = os.path.join(ROOT, ".perfbench",
                              f"spans-{name}-seed{rng.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"totals": spans.totals, "counters": spans.counters,
                   "spans": spans.export()}, handle)
    units = dict(layers.PER_LAYER)
    lines = [f"{key:<42}{value:.4f} {units[key]}"
             for key, value in metrics.items()]
    lines.append(f"(last {len(spans.kept)} spans written to "
                 f"{os.path.relpath(trace_path, ROOT)})")
    summary = {
        "attempted": sum(e.ops for e in epochs),
        "failed": sum(e.failed for e in epochs),
    }
    return metrics, summary, lines


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="whole-stack benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    import_program()
    from repro.sim.rng import WorkloadRNG
    from harness import CheckFailed, environment
    import layers

    module = importlib.import_module(WORKLOADS[args.workload])
    rng = WorkloadRNG(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    correct = True
    try:
        run = traced_run if args.trace else untraced_run
        metrics, summary, lines = run(module, rng, args.workload,
                                      args.seconds)
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}")
        correct = False
        metrics, summary, lines = {}, {"attempted": 1, "failed": 1}, []
    for line in lines:
        print(line)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(summary["attempted"])),
        "failed": int(summary["failed"]),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:  # noqa: BLE001 - no result line on a crash
        traceback.print_exc()
        sys.exit(1)
