"""Figure 5: the astronomy benchmark.

5(a): disk and runtime overhead of BlackBox / BlackBoxOpt / FullMany /
FullOne / SubZero.  5(b): costs of BQ0-BQ4, FQ0 and FQ0Slow (the same
forward query without the entire-array optimization) under each strategy.

The module fixture sweeps every strategy once and prints the two
paper-shaped tables (run with ``-s``).  The ``benchmark``-fixture tests then
re-execute representative pieces live so pytest-benchmark's own table shows
real timings.

Expected shape (paper): SubZero's overheads are close to the black-box
baselines while Full* pay order-of-magnitude storage and runtime; SubZero
answers queries fastest, BlackBox slowest; FQ0 vastly beats FQ0Slow.
"""

from dataclasses import replace

import pytest

from repro import COMP_ONE_B, SubZero
from repro.bench.astronomy import UDF_NODES, AstronomyBenchmark
from repro.bench.harness import ASTRONOMY_CONFIGS, astronomy_table, run_astronomy

from conftest import ASTRO_COSMIC, ASTRO_SHAPE, ASTRO_STARS


@pytest.fixture(scope="module")
def astro_runs():
    runs = run_astronomy(
        shape=ASTRO_SHAPE, seed=0, n_stars=ASTRO_STARS, n_cosmic=ASTRO_COSMIC
    )
    overhead, queries = astronomy_table(runs)
    overhead.print()
    queries.print()
    return {run.label: run for run in runs}


@pytest.fixture(scope="module")
def bench_data():
    return AstronomyBenchmark(
        shape=ASTRO_SHAPE, seed=0, n_stars=ASTRO_STARS, n_cosmic=ASTRO_COSMIC
    )


@pytest.fixture(scope="module")
def subzero_live(bench_data):
    """The Table-II 'SubZero' configuration, kept alive for query benches."""
    sz = SubZero(bench_data.build_spec())
    sz.use_mapping_where_possible()
    for udf in UDF_NODES:
        sz.set_strategy(udf, COMP_ONE_B)
    instance = sz.run(bench_data.inputs())
    return sz, bench_data.queries(instance)


@pytest.mark.benchmark(group="fig5a-workflow-runtime")
@pytest.mark.parametrize("label", list(ASTRONOMY_CONFIGS))
def test_fig5a_runtime_overhead(benchmark, bench_data, label):
    """Wall time of one workflow execution under each strategy."""
    config = ASTRONOMY_CONFIGS[label]

    def run_once():
        sz = SubZero(bench_data.build_spec())
        if config["map_builtins"]:
            sz.use_mapping_where_possible()
        if config["udf"]:
            for udf in UDF_NODES:
                sz.set_strategy(udf, *config["udf"])
        sz.run(bench_data.inputs())
        return sz.lineage_disk_bytes()

    disk = benchmark.pedantic(run_once, rounds=1, iterations=1)
    benchmark.extra_info["disk_mb"] = disk / 1e6


@pytest.mark.benchmark(group="fig5b-subzero-queries")
@pytest.mark.parametrize("query", ["BQ0", "BQ1", "BQ2", "BQ3", "BQ4", "FQ0"])
def test_fig5b_subzero_queries(benchmark, subzero_live, query):
    sz, queries = subzero_live
    result = benchmark.pedantic(
        lambda: sz.query(queries[query]), rounds=3, iterations=1
    )
    assert result.count > 0


@pytest.mark.benchmark(group="fig5b-subzero-queries")
def test_fig5b_fq0_slow(benchmark, subzero_live):
    """FQ0 without the entire-array optimization (the 83x ablation)."""
    sz, queries = subzero_live
    slow_fq0 = replace(queries["FQ0"], entire_array=False)
    result = benchmark.pedantic(
        lambda: sz.query(slow_fq0),
        rounds=1,
        iterations=1,
    )
    assert result.count > 0


@pytest.mark.benchmark(group="fig5-shape")
def test_fig5a_overhead_shape(benchmark, astro_runs):
    """SubZero's storage must undercut Full lineage by a wide margin."""
    def check():
        subzero, fullone = astro_runs["SubZero"], astro_runs["FullOne"]
        fullmany = astro_runs["FullMany"]
        assert subzero.disk_mb * 5 < fullone.disk_mb
        assert subzero.disk_mb * 5 < fullmany.disk_mb
        assert astro_runs["BlackBox"].disk_mb == 0
        assert astro_runs["BlackBoxOpt"].disk_mb == 0
        # Full lineage also pays a large runtime factor
        assert astro_runs["FullOne"].runtime_s > 2 * astro_runs["SubZero"].runtime_s

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig5-shape")
def test_fig5b_query_shape(benchmark, astro_runs):
    """The orderings the paper reports."""
    def check():
        subzero = astro_runs["SubZero"].query_seconds
        blackbox = astro_runs["BlackBox"].query_seconds
        bbopt = astro_runs["BlackBoxOpt"].query_seconds
        # SubZero beats re-running the expensive UDFs on the star query
        assert subzero["BQ0"] < blackbox["BQ0"]
        assert subzero["BQ0"] < bbopt["BQ0"]
        # the entire-array optimization gives a large factor on FQ0
        assert subzero["FQ0"] < subzero["FQ0Slow"]
        # black-box is slowest across the backward suite
        total_subzero = sum(subzero[q] for q in ("BQ0", "BQ1", "BQ2", "BQ4"))
        total_blackbox = sum(blackbox[q] for q in ("BQ0", "BQ1", "BQ2", "BQ4"))
        assert total_subzero < total_blackbox

    benchmark.pedantic(check, rounds=1, iterations=1)
