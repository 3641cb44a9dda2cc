"""Figure 7: the lineage-strategy optimizer under storage budgets.

The paper sweeps MaxDISK from 1 MB to 100 MB on the genomics benchmark
(SubZero1 ... SubZero100): the optimizer picks black-box only under the
tightest budget, then progressively storage-hungrier, query-faster mixes.

Budgets scale with the dataset so the reduced-size default run exercises the
same regimes; ``REPRO_BENCH_FULL=1`` reproduces the paper's exact points.
"""

import pytest

from repro import SubZero
from repro.bench.genomics import GenomicsBenchmark
from repro.bench.harness import genomics_table, run_genomics_optimizer

from conftest import GENOMICS_SCALE

PAPER_BUDGETS_MB = (1, 10, 20, 50, 100)


def scaled(budget_mb: float) -> float:
    return budget_mb * GENOMICS_SCALE / 100


@pytest.fixture(scope="module")
def optimizer_runs():
    budgets = tuple(scaled(b) for b in PAPER_BUDGETS_MB)
    runs = run_genomics_optimizer(budgets_mb=budgets, scale=GENOMICS_SCALE, seed=0)
    for run, paper_budget in zip(runs, PAPER_BUDGETS_MB):
        run.label = f"SubZero{paper_budget}"
    genomics_table(runs, "Figure 7: optimizer under storage budgets").print()
    return runs


@pytest.fixture(scope="module")
def loose_budget_live():
    """An engine optimized under the loosest budget, for live queries."""
    bench = GenomicsBenchmark(scale=GENOMICS_SCALE, seed=0)
    sz = SubZero(bench.build_spec())
    sz.use_mapping_where_possible()
    instance = sz.profile(bench.inputs())
    workload = list(bench.queries(instance).values())
    sz.optimize(workload, max_disk_bytes=scaled(PAPER_BUDGETS_MB[-1]) * 1e6)
    instance = sz.run(bench.inputs())
    return sz, bench.queries(instance)


@pytest.mark.benchmark(group="fig7-live-queries")
@pytest.mark.parametrize("query", ["BQ0", "BQ1", "FQ0", "FQ1"])
def test_fig7_loose_budget_queries(benchmark, loose_budget_live, query):
    sz, queries = loose_budget_live
    result = benchmark.pedantic(
        lambda: sz.query(queries[query]), rounds=3, iterations=1
    )
    assert result.count > 0


@pytest.mark.benchmark(group="fig7-optimize")
def test_fig7_optimizer_solve_time(benchmark):
    """The ILP itself must be interactive (the paper reports ~1 ms)."""
    bench = GenomicsBenchmark(scale=GENOMICS_SCALE, seed=0)
    sz = SubZero(bench.build_spec())
    sz.use_mapping_where_possible()
    instance = sz.profile(bench.inputs())
    workload = list(bench.queries(instance).values())
    result = benchmark.pedantic(
        lambda: sz.optimize(workload, max_disk_bytes=scaled(20) * 1e6, apply=False),
        rounds=3,
        iterations=1,
    )
    assert result.plan


@pytest.mark.benchmark(group="fig7-shape")
def test_fig7_budget_and_monotonicity(benchmark, optimizer_runs):
    def check():
        budgets = tuple(scaled(b) for b in PAPER_BUDGETS_MB)
        for run, budget in zip(optimizer_runs, budgets):
            assert run.disk_mb <= budget * 1.05, (run.label, run.disk_mb, budget)
        disks = [run.disk_mb for run in optimizer_runs]
        # storage use grows (or stays flat) as the budget loosens
        assert all(a <= b * 1.2 + 1e-9 for a, b in zip(disks, disks[1:])), disks

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig7-shape")
def test_fig7_loose_budget_speeds_forward_queries(benchmark, optimizer_runs):
    """With storage to spare the optimizer forward-optimizes the UDFs and
    forward queries drop well below the tight-budget configuration."""
    def check():
        tight, loose = optimizer_runs[0], optimizer_runs[-1]
        tight_fwd = tight.query_seconds["FQ0"] + tight.query_seconds["FQ1"]
        loose_fwd = loose.query_seconds["FQ0"] + loose.query_seconds["FQ1"]
        assert loose_fwd < tight_fwd
        # and the loose plan actually stores more
        assert loose.disk_mb >= tight.disk_mb

    benchmark.pedantic(check, rounds=1, iterations=1)
