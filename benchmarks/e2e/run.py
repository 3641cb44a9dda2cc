#!/usr/bin/env python3
"""End-to-end benchmark of the SubZero reproduction.

    python3 benchmarks/e2e/run.py --seed 1                 # every workload
    python3 benchmarks/e2e/run.py --seed 1 --trace         # ... plus a traced re-run
    python3 benchmarks/e2e/run.py --workload query-hot --seed 1 --seconds 15 --trace 0

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics of ``BENCHMARK.json``
for ``--trace 0``, its per-layer metrics for ``--trace 1``.  Without it,
each workload runs in a subprocess of its own.  The exit code is non-zero
when any operation failed, was refused, or answered wrongly.

See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

WORKLOAD_NAMES = ("capture-flush", "query-hot", "query-lsm", "daemon-mixed")

#: name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_durable_s": "s",
    "capture_overhead_ratio": "ratio",
    "append_s": "s",
    "lineage_bytes_per_input_byte": "ratio",
    "point_p50_ms": "ms",
    "point_p99_ms": "ms",
    "scan_p50_ms": "ms",
    "payload_scan_p50_ms": "ms",
    "cold_first_query_ms": "ms",
    "compact_slice_s": "s",
    "queries_per_s": "1/s",
}


def default_seconds() -> int:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return int(json.load(fh)["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 15


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="directory for result files (<workload>.jsonl, trace-<workload>.json)")
    return parser.parse_args(argv)


# -- one workload, in process -----------------------------------------------------


def fingerprint() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def spin_loops_per_s(seconds: float) -> float:
    """Iterations of a fixed pure-Python loop per second: the same machine
    with a noisy neighbour reads lower."""
    loops, start = 0, time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for _ in range(10_000):
            pass
        loops += 10_000
    return loops / (time.perf_counter() - start)


def end_to_end(harness, setup_seconds) -> dict:
    """``name -> (value, samples behind it)`` for every end-to-end metric."""

    import numpy as np

    def median_of(samples):
        return statistics.median(samples), len(samples)

    values = harness.values
    point = harness.samples("point")
    # the 99th percentile is taken per block of >= 400 consecutive samples
    # and the median block reported: one slow second on a shared box lands
    # in one block, not in the answer (a run has >= 1000 samples in all)
    blocks = max(1, len(point) // 400)
    size = len(point) // blocks
    p99 = [float(np.percentile(point[i * size:(i + 1) * size], 99)) for i in range(blocks)]
    out = {
        "setup_s": median_of(setup_seconds),
        "peak_rss_mb": (values["peak_rss_mb"][-1], 1),
        "run_durable_s": median_of(harness.samples("durable_run")),
        "capture_overhead_ratio": median_of(values["capture_overhead_ratio"]),
        "append_s": median_of(harness.samples("append")),
        "lineage_bytes_per_input_byte": median_of(values["lineage_bytes_per_input_byte"]),
        "point_p50_ms": (1e3 * statistics.median(point), len(point)),
        "point_p99_ms": (1e3 * statistics.median(p99), len(point)),
        "queries_per_s": median_of(values["queries_per_s"]),
        "compact_slice_s": median_of(harness.samples("compact_slice")),
    }
    for name, cls in (
        ("scan_p50_ms", "scan"),
        ("payload_scan_p50_ms", "payload_scan"),
        ("cold_first_query_ms", "cold_first_query"),
    ):
        value, n = median_of(harness.samples(cls))
        out[name] = (1e3 * value, n)
    return out


def trace_tables(tracer, harness, workload: str) -> dict:
    """The traced run's tables: the per-layer metrics over the workload's
    own traffic, and per op class the mean latency and the mean self
    milliseconds each ``layer.kind`` contributed."""
    from layers import LayerTotals
    from workloads import QUERY_CLASSES, QUERY_ONLY, QUERY_OPS

    table = tracer.table()
    own = {
        cls: row for cls, row in table.items()
        if cls != "unattributed" and (workload not in QUERY_ONLY or cls in QUERY_CLASSES)
    }
    totals = LayerTotals(own, harness.stats, tracer.missing, QUERY_OPS)
    classes = {}
    for cls, row in sorted(table.items()):
        ops = max(1, row["ops"])
        classes[cls] = {
            "ops": row["ops"],
            "mean_ms": 1e3 * row["seconds"] / ops,
            "self_ms": {
                name: 1e3 * cell[0] / ops for name, cell in sorted(row["layers"].items())
            },
            "calls": {name: cell[1] / ops for name, cell in sorted(row["layers"].items())},
            "counters": {name: value / ops for name, value in sorted(row["counters"].items())},
        }
    return {
        "classes": classes,
        "accounted_classes": sorted(own),
        "missing": {f"{layer}.missing": 1 for layer in sorted(tracer.missing)},
        "per_layer": totals.metrics(),
    }


def run_one(args) -> int:
    from layers import PER_LAYER_METRICS, Tracer
    from workloads import SCALES, run_workload

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(ROOT, ".bench_e2e_work", str(os.getpid()))
    loops = spin_loops_per_s(0.2)
    try:
        harness, setup_seconds, digest = run_workload(
            args.workload, SCALES[args.scale], args.seed, args.seconds, workdir, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it

    attempted = len(harness.log)
    failed = sum(1 for entry in harness.log if not entry[2])
    e2e = end_to_end(harness, setup_seconds)
    machine = fingerprint()
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"{harness.rounds} rounds in {args.seconds:g} s  trace {args.trace}")
    print(f"load sha256 {digest}")
    print(f"machine {json.dumps(machine)}  spin {loops:.0f} loops/s")
    print(f"failed_share {failed / attempted:.6f}  ({failed} of {attempted} operations)")
    for error in harness.errors:
        print(f"  failure: {error}")
    for name, unit in END_TO_END.items():
        value, n = e2e[name]
        print(f"  {name:<32} {value:>14.4f} {unit:<6} n={n}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "rounds": harness.rounds,
        "digest": digest,
        "machine": machine,
        "spin_loops_per_s": loops,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {n: {"value": v, "unit": END_TO_END[n], "n": k} for n, (v, k) in e2e.items()},
    }
    if tracer is None:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, (v, _k) in e2e.items()}
    else:
        tables = trace_tables(tracer, harness, args.workload)
        metrics = {
            n: {"value": v, "unit": PER_LAYER_METRICS[n][0]}
            for n, v in tables["per_layer"].items()
        }
        print("per-layer (self ms and counts per operation of: %s):" % ", ".join(tables["accounted_classes"]))
        for name, value in {**tables["per_layer"], **tables["missing"]}.items():
            unit = PER_LAYER_METRICS[name][0] if name in PER_LAYER_METRICS else "flag"
            print(f"  {name:<44} {value:>14.6f} {unit}")
        print("per op class (mean ms; self ms by layer):")
        for cls, row in tables["classes"].items():
            covered = sum(v for k, v in row["self_ms"].items() if k != "e2e.op")
            print(f"  {cls:<18} n={row['ops']:<6} mean {row['mean_ms']:>10.3f} ms  "
                  f"in layers {covered:>10.3f} ms")
        record["per_layer"] = metrics
        out = args.out or os.path.join(ROOT, ".bench_e2e")
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"trace-{args.workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **{k: record[k] for k in ("workload", "seed", "seconds", "scale", "digest", "rounds")},
                    **tables,
                    "kinds": ["%s.%s" % k for k in tracer.kinds],
                    "span_fields": ["kind", "start", "end", "self_s", "op", "span", "parent"],
                    "spans": tracer.spans[:20000],
                    "spans_total": len(tracer.spans),
                },
                fh,
            )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        suffix = ".trace.jsonl" if args.trace else ".jsonl"
        with open(os.path.join(args.out, args.workload + suffix), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


# -- every workload, one subprocess each ----------------------------------------------


def run_all(args) -> int:
    print(f"calibration: {spin_loops_per_s(1.0):.0f} spin loops/s over 1 s")
    status = 0
    point = {}
    for trace in (0, 1) if args.trace else (0,):
        for workload in WORKLOAD_NAMES:
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", args.scale,
            ]
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                status = 1
                print(f"workload {workload} (trace {trace}) exited {done.returncode}")
            for line in lines:
                if line.lstrip().startswith("point_p50_ms"):
                    point[workload, trace] = float(line.split()[1])
            print()
    for workload in WORKLOAD_NAMES:
        if (workload, 0) in point and (workload, 1) in point:
            ratio = point[workload, 1] / point[workload, 0]
            print(f"trace_overhead_ratio {workload:<14} {ratio:.3f} "
                  f"(traced {point[workload, 1]:.3f} ms / untraced {point[workload, 0]:.3f} ms point_p50_ms)")
    return status


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_one(arguments) if arguments.workload else run_all(arguments))
