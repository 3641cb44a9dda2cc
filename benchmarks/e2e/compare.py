#!/usr/bin/env python3
"""Compare result sets written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A/        # run-to-run spread of one set
    python3 benchmarks/e2e/compare.py A/ B/     # B against A (parent vs change)

One row per (end-to-end metric, workload): each side's median and
quartiles (``statistics.quantiles(values, n=4)``) over the runs in
``<dir>/<workload>.jsonl``, and a verdict against the metric's bound in
``BENCHMARK.json``:

* one set  — ``steady`` (quartile distance / median within a third of the
  bound), ``within bound``, or ``noisy``;
* two sets — ``unresolved`` when either side's spread is wider than the
  bound (the runs cannot tell), else ``worse`` when B's median is worse
  than A's by more than the bound, else ``within bound``.

When both sets hold traced runs (``<workload>.trace.jsonl``), the count
metrics of the single-caller workloads are checked to repeat exactly.
The exit code is 1 when any row is ``worse``, ``noisy`` or ``differs``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: traced counts that must not move between two runs of one commit
EXACT_COUNTS = (
    "ops.map_p_calls",
    "core.capture.jobs",
    "core.lineage_store.probe_calls",
    "storage.codecs.encoded_bytes",
    "storage.codecs.batchprobe_calls",
    "storage.segment.opens",
    "storage.segment.write_bytes",
    "core.catalog.evictions",
    "core.overlay.generations_probed_per_op",
    "storage.partition.partitions_probed_per_op",
)
SINGLE_CALLER = ("capture-flush", "query-hot", "query-lsm")


def load(directory: str, suffix: str) -> dict[str, list[dict]]:
    """``workload -> [run records]`` from ``<directory>/<workload><suffix>``."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(suffix) and not (suffix == ".jsonl" and name.endswith(".trace.jsonl")):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out[name[: -len(suffix)]] = [json.loads(line) for line in fh if line.strip()]
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, quartile distance / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    sets = [load(directory, ".jsonl") for directory in argv]
    bad = 0
    side = "{:>12} [{:>10} {:>10}] {:>6}"
    print(f"{'metric':<30} {'workload':<14} " + "  ".join(
        side.format(f"median {x}", "q1", "q3", "spread") for x in "AB"[: len(sets)]
    ) + "  verdict")
    for metric in benchmark["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in (w["name"] for w in benchmark["workloads"]):
            sides = []
            for runs in sets:
                values = [r["end_to_end"][name]["value"] for r in runs.get(workload, [])]
                if values:
                    sides.append(summary(values))
            if len(sides) != len(sets):
                continue
            spread = max(s[3] for s in sides)
            if len(sides) == 1:
                verdict = (
                    "steady" if spread <= bound / 3
                    else "within bound" if spread <= bound else "noisy"
                )
            elif spread > bound:
                verdict = "unresolved"
            else:
                delta = worse_by(sides[0][0], sides[1][0], better)
                verdict = f"worse ({delta:+.1%})" if delta > bound else f"within bound ({delta:+.1%})"
            bad += verdict.startswith(("worse", "noisy"))
            print(f"{name:<30} {workload:<14} " + "  ".join(
                side.format(f"{m:.5g}", f"{q1:.5g}", f"{q3:.5g}", f"{s:.1%}") for m, q1, q3, s in sides
            ) + f"  {verdict} (bound {bound:.0%})")
    if len(argv) == 2:
        traced = [load(directory, ".trace.jsonl") for directory in argv]
        for workload in SINGLE_CALLER:
            if not all(t.get(workload) for t in traced):
                continue
            for name in EXACT_COUNTS:
                seen = {
                    (r["seed"], r["per_layer"][name]["value"])
                    for t in traced for r in t[workload]
                }
                exact = len(seen) == len({seed for seed, _v in seen})
                bad += not exact
                print(f"{name:<44} {workload:<14} {'repeats exactly' if exact else 'differs'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
