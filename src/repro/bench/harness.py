"""Experiment drivers that regenerate every figure of the evaluation (§VIII).

Each ``run_*`` function executes one paper experiment and returns structured
results; ``benchmarks/figures.py`` asserts the paper's shapes on them and
prints the paper-shaped tables.  Scales default to
laptop-friendly sizes; pass the paper's full parameters (astronomy
512x2000, genomics scale 100, micro 1000x1000) to reproduce at scale.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace

from repro.core.modes import (
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_ONE_B,
    FULL_ONE_F,
    PAY_MANY_B,
    PAY_ONE_B,
    StorageStrategy,
)
from repro.core.subzero import SubZero
from repro.bench.astronomy import AstronomyBenchmark
from repro.bench.astronomy import UDF_NODES as ASTRO_UDFS
from repro.bench.genomics import GenomicsBenchmark
from repro.bench.genomics import UDF_NODES as GENOMICS_UDFS
from repro.bench.micro import MicroBenchmark
from repro.bench.report import ResultTable

__all__ = [
    "StrategyRun",
    "ASTRONOMY_CONFIGS",
    "GENOMICS_CONFIGS",
    "MICRO_CONFIGS",
    "run_astronomy",
    "run_genomics",
    "run_genomics_optimizer",
    "run_micro",
    "astronomy_table",
    "genomics_table",
    "micro_overhead_table",
    "micro_query_table",
]


@dataclass
class StrategyRun:
    """Measurements for one (benchmark, strategy) execution."""

    label: str
    disk_mb: float
    runtime_s: float
    input_mb: float
    query_seconds: dict[str, float] = field(default_factory=dict)
    query_counts: dict[str, int] = field(default_factory=dict)
    plan: dict[str, list[str]] = field(default_factory=dict)


# Table II, astronomy: which strategies each named configuration assigns.
ASTRONOMY_CONFIGS: dict[str, dict] = {
    "BlackBox": {"map_builtins": False, "udf": None},
    "BlackBoxOpt": {"map_builtins": True, "udf": None},
    "FullOne": {"map_builtins": True, "udf": [FULL_ONE_B]},
    "FullMany": {"map_builtins": True, "udf": [FULL_MANY_B]},
    "SubZero": {"map_builtins": True, "udf": [COMP_ONE_B]},
}

# Table II, genomics: built-ins always use mapping lineage.
GENOMICS_CONFIGS: dict[str, list[StorageStrategy] | None] = {
    "BlackBox": None,
    "FullOne": [FULL_ONE_B],
    "FullMany": [FULL_MANY_B],
    "FullForw": [FULL_ONE_F],
    "FullBoth": [FULL_ONE_B, FULL_ONE_F],
    "PayOne": [PAY_ONE_B],
    "PayMany": [PAY_MANY_B],
    "PayBoth": [PAY_ONE_B, FULL_ONE_F],
}

# §VIII-C: the strategies compared by the microbenchmark.
MICRO_CONFIGS: dict[str, StorageStrategy | None] = {
    "<-PayMany": PAY_MANY_B,
    "<-PayOne": PAY_ONE_B,
    "<-FullMany": FULL_MANY_B,
    "<-FullOne": FULL_ONE_B,
    "->FullOne": FULL_ONE_F,
    "BlackBox": None,
}


def _timed_queries(sz: SubZero, queries):
    seconds, counts = {}, {}
    for name, query in queries.items():
        start = time.perf_counter()
        result = sz.query(query)
        seconds[name] = time.perf_counter() - start
        counts[name] = result.count
    return seconds, counts


# -- astronomy (Figure 5) ----------------------------------------------------


def run_astronomy(
    shape: tuple[int, int] = (512, 2000),
    configs: list[str] | None = None,
    seed: int = 0,
    query_opt: bool = True,
    n_stars: int = 60,
    n_cosmic: int = 40,
) -> list[StrategyRun]:
    """Figure 5: disk/runtime overhead and BQ0-BQ4 / FQ0 / FQ0Slow costs."""
    bench = AstronomyBenchmark(
        shape=shape, seed=seed, n_stars=n_stars, n_cosmic=n_cosmic
    )
    runs = []
    for label in configs or list(ASTRONOMY_CONFIGS):
        config = ASTRONOMY_CONFIGS[label]
        sz = SubZero(bench.build_spec(), enable_query_opt=query_opt)
        if config["map_builtins"]:
            sz.use_mapping_where_possible()
        if config["udf"]:
            for udf in ASTRO_UDFS:
                sz.set_strategy(udf, *config["udf"])
        start = time.perf_counter()
        instance = sz.run(bench.inputs())
        runtime = time.perf_counter() - start
        queries = bench.queries(instance)
        seconds, counts = _timed_queries(sz, queries)
        # FQ0Slow: the same forward query without the entire-array shortcut.
        start = time.perf_counter()
        slow = sz.query(replace(queries["FQ0"], entire_array=False))
        seconds["FQ0Slow"] = time.perf_counter() - start
        counts["FQ0Slow"] = slow.count
        runs.append(
            StrategyRun(
                label=label,
                disk_mb=sz.lineage_disk_bytes() / 1e6,
                runtime_s=runtime,
                input_mb=sz.input_bytes() / 1e6,
                query_seconds=seconds,
                query_counts=counts,
            )
        )
    return runs


def astronomy_table(runs: list[StrategyRun]) -> tuple[ResultTable, ResultTable]:
    overhead = ResultTable(
        "Figure 5(a): astronomy disk and runtime overhead",
        ["strategy", "disk_mb", "runtime_s", "input_mb"],
    )
    for run in runs:
        overhead.add_row(run.label, run.disk_mb, run.runtime_s, run.input_mb)
    query_names = list(runs[0].query_seconds) if runs else []
    queries = ResultTable(
        "Figure 5(b): astronomy query costs (seconds)",
        ["strategy"] + query_names,
    )
    for run in runs:
        queries.add_row(run.label, *[run.query_seconds[q] for q in query_names])
    return overhead, queries


# -- genomics (Figures 6 and 7) ------------------------------------------------


def run_genomics(
    scale: int = 100,
    configs: list[str] | None = None,
    seed: int = 0,
    query_opt: bool = False,
) -> list[StrategyRun]:
    """Figure 6: static strategies, with (6c) or without (6b) the
    query-time optimizer."""
    bench = GenomicsBenchmark(scale=scale, seed=seed)
    runs = []
    for label in configs or list(GENOMICS_CONFIGS):
        strategies = GENOMICS_CONFIGS[label]
        sz = SubZero(bench.build_spec(), enable_query_opt=query_opt)
        sz.use_mapping_where_possible()
        if strategies:
            for udf in GENOMICS_UDFS:
                sz.set_strategy(udf, *strategies)
        start = time.perf_counter()
        instance = sz.run(bench.inputs())
        runtime = time.perf_counter() - start
        seconds, counts = _timed_queries(sz, bench.queries(instance))
        runs.append(
            StrategyRun(
                label=label,
                disk_mb=sz.lineage_disk_bytes() / 1e6,
                runtime_s=runtime,
                input_mb=sz.input_bytes() / 1e6,
                query_seconds=seconds,
                query_counts=counts,
            )
        )
    return runs


def run_genomics_optimizer(
    budgets_mb: tuple[float, ...] = (1, 10, 20, 50, 100),
    scale: int = 100,
    seed: int = 0,
) -> list[StrategyRun]:
    """Figure 7: the strategy optimizer under increasing storage budgets."""
    bench = GenomicsBenchmark(scale=scale, seed=seed)
    runs = []
    for budget in budgets_mb:
        sz = SubZero(bench.build_spec(), enable_query_opt=True)
        sz.use_mapping_where_possible()
        instance = sz.profile(bench.inputs())
        workload = list(bench.queries(instance).values())
        result = sz.optimize(workload, max_disk_bytes=budget * 1e6)
        start = time.perf_counter()
        instance = sz.run(bench.inputs())
        runtime = time.perf_counter() - start
        seconds, counts = _timed_queries(sz, bench.queries(instance))
        runs.append(
            StrategyRun(
                label=f"SubZero{budget:g}",
                disk_mb=sz.lineage_disk_bytes() / 1e6,
                runtime_s=runtime,
                input_mb=sz.input_bytes() / 1e6,
                query_seconds=seconds,
                query_counts=counts,
                plan={
                    node: [s.label for s in strategies]
                    for node, strategies in result.plan.items()
                    if any(s.stores_pairs for s in strategies)
                },
            )
        )
    return runs


def genomics_table(runs: list[StrategyRun], title: str) -> ResultTable:
    query_names = list(runs[0].query_seconds) if runs else []
    table = ResultTable(
        title,
        ["strategy", "disk_mb", "runtime_s"] + [f"{q}_s" for q in query_names],
    )
    for run in runs:
        table.add_row(
            run.label,
            run.disk_mb,
            run.runtime_s,
            *[run.query_seconds[q] for q in query_names],
        )
    for run in runs:
        if run.plan:
            table.add_note(f"{run.label}: " + "; ".join(
                f"{node}={'+'.join(labels)}" for node, labels in sorted(run.plan.items())
            ))
    return table


# -- microbenchmark (Figures 8 and 9) ----------------------------------------------


def run_micro(
    fanins: tuple[int, ...] = (1, 25, 50, 100),
    fanouts: tuple[int, ...] = (1, 100),
    configs: list[str] | None = None,
    shape: tuple[int, int] = (1000, 1000),
    coverage: float = 0.1,
    query_cells: int = 1000,
    seed: int = 0,
) -> list[dict]:
    """Figures 8 and 9: overhead and backward-query cost vs fanin/fanout.

    ``bq_s`` is the median of five runs of the backward query."""
    rows = []
    for fanout in fanouts:
        for fanin in fanins:
            bench = MicroBenchmark(
                fanin=fanin,
                fanout=fanout,
                shape=shape,
                coverage=coverage,
                seed=seed,
                query_cells=query_cells,
            )
            group: list[dict] = []
            for label in configs or list(MICRO_CONFIGS):
                strategy = MICRO_CONFIGS[label]
                sz = SubZero(bench.build_spec(), enable_query_opt=False)
                if strategy is not None:
                    sz.set_strategy("synthetic", strategy)
                start = time.perf_counter()
                instance = sz.run(bench.inputs())
                runtime = time.perf_counter() - start
                queries = bench.queries(instance)
                seconds, counts = _timed_queries(sz, queries)
                # one backward query is a few ms: a median of five keeps a
                # scheduler stall from flipping the figure's orderings
                bq_s = [seconds["BQ"]] + [
                    _timed_queries(sz, {"BQ": queries["BQ"]})[0]["BQ"]
                    for _ in range(4)
                ]
                group.append(
                    {
                        "fanin": fanin,
                        "fanout": fanout,
                        "strategy": label,
                        "disk_mb": sz.lineage_disk_bytes() / 1e6,
                        "runtime_s": runtime,
                        "bq_s": statistics.median(bq_s),
                        "fq_s": seconds["FQ"],
                        "bq_cells": counts["BQ"],
                        "fq_cells": counts["FQ"],
                    }
                )
            baseline = next(
                (r["runtime_s"] for r in group if r["strategy"] == "BlackBox"), 0.0
            )
            for row in group:
                row["overhead_s"] = max(0.0, row["runtime_s"] - baseline)
            rows.extend(group)
    return rows


def micro_overhead_table(rows: list[dict]) -> ResultTable:
    table = ResultTable(
        "Figure 8: micro disk (MB) and runtime overhead (s) vs fanin/fanout",
        ["fanout", "fanin", "strategy", "disk_mb", "overhead_s"],
    )
    for row in rows:
        table.add_row(
            row["fanout"], row["fanin"], row["strategy"], row["disk_mb"], row["overhead_s"]
        )
    return table


def micro_query_table(rows: list[dict], backward_only: bool = True) -> ResultTable:
    table = ResultTable(
        "Figure 9: micro backward query cost (s), backward-optimized strategies",
        ["fanout", "fanin", "strategy", "bq_s"],
    )
    for row in rows:
        if backward_only and row["strategy"] not in (
            "<-PayMany",
            "<-PayOne",
            "<-FullMany",
            "<-FullOne",
        ):
            continue
        table.add_row(row["fanout"], row["fanin"], row["strategy"], row["bq_s"])
    return table
