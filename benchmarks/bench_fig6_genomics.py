"""Figure 6: the genomics benchmark under eight static strategies.

6(a): disk and runtime overhead.  6(b): query costs with the *static*
executor (it blindly joins against whatever was stored, including
mismatched-orientation indexes).  6(c): the same queries with the
query-time optimizer, which bounds the damage by dynamically switching to
re-execution.

The module fixtures sweep all eight Table-II configurations and print the
paper-shaped tables; the ``benchmark`` tests re-execute representative
queries live against kept engines.

Expected shape (paper): dual-orientation strategies cost the most storage;
mismatched-orientation stores degrade queries in 6(b); 6(c) keeps every
query at-or-better-than a small multiple of BlackBox.

One deliberate divergence from the paper's Figure 6(b): since the batch
scan engine landed (PR 2), mismatched-orientation access runs as a few
vectorised passes over the value heap instead of a per-entry cursor, so on
this laptop-sized workload it no longer falls off a cliff *below
re-execution* — the mismatch penalty is still real, but it is now measured
against the matching index, which is the shape asserted here.  The
segmented store format widens that divergence to cold starts too: a store
reloaded from a segment serves its lowered tables from the file, so even a
fresh process never pays the per-entry header walk the paper's cursor scan
models (the cold-start table in ``bench_batch_scan.py`` quantifies it).
"""

import pytest

from repro import SubZero
from repro.bench.genomics import UDF_NODES, GenomicsBenchmark
from repro.bench.harness import GENOMICS_CONFIGS, genomics_table, run_genomics

from conftest import GENOMICS_SCALE


@pytest.fixture(scope="module")
def static_runs():
    runs = run_genomics(scale=GENOMICS_SCALE, seed=0, query_opt=False)
    genomics_table(
        runs, "Figure 6(a)+(b): genomics overhead and static query costs"
    ).print()
    return {run.label: run for run in runs}


@pytest.fixture(scope="module")
def dynamic_runs():
    runs = run_genomics(scale=GENOMICS_SCALE, seed=0, query_opt=True)
    genomics_table(
        runs, "Figure 6(c): genomics query costs with the query-time optimizer"
    ).print()
    return {run.label: run for run in runs}


def _live_engine(label: str, query_opt: bool):
    bench = GenomicsBenchmark(scale=GENOMICS_SCALE, seed=0)
    sz = SubZero(bench.build_spec(), enable_query_opt=query_opt)
    sz.use_mapping_where_possible()
    strategies = GENOMICS_CONFIGS[label]
    if strategies:
        for udf in UDF_NODES:
            sz.set_strategy(udf, *strategies)
    instance = sz.run(bench.inputs())
    return sz, bench.queries(instance)


@pytest.fixture(scope="module")
def blackbox_live():
    return _live_engine("BlackBox", query_opt=False)


@pytest.fixture(scope="module")
def payboth_live():
    return _live_engine("PayBoth", query_opt=False)


@pytest.mark.benchmark(group="fig6b-static-queries")
@pytest.mark.parametrize("engine", ["BlackBox", "PayBoth"])
@pytest.mark.parametrize("query", ["BQ0", "BQ1", "FQ0", "FQ1"])
def test_fig6b_live_queries(benchmark, blackbox_live, payboth_live, engine, query):
    sz, queries = blackbox_live if engine == "BlackBox" else payboth_live
    result = benchmark.pedantic(
        lambda: sz.query(queries[query]), rounds=1, iterations=1
    )
    assert result.count > 0


@pytest.mark.benchmark(group="fig6-shape")
def test_fig6a_overhead_shape(benchmark, static_runs):
    """Dual-orientation strategies pay the most storage; payload the least
    of the materialising strategies."""
    def check():
        assert static_runs["FullBoth"].disk_mb > static_runs["FullOne"].disk_mb
        assert static_runs["PayBoth"].disk_mb > static_runs["PayOne"].disk_mb
        assert static_runs["PayOne"].disk_mb < static_runs["FullOne"].disk_mb
        assert static_runs["BlackBox"].disk_mb == 0

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig6-shape")
def test_fig6b_mismatched_indexes_degrade(benchmark, static_runs):
    """Blindly joining a backward query against a forward-optimized store
    still pays a real penalty — but since the batch scan engine it is paid
    relative to the *matching* index, not as a cliff below re-execution."""
    def check():
        assert (
            static_runs["FullForw"].query_seconds["BQ0"]
            > static_runs["FullOne"].query_seconds["BQ0"]
        )
        # backward-optimized payload stores degrade forward queries below
        # the forward-optimized full store
        assert (
            static_runs["PayOne"].query_seconds["FQ0"]
            > static_runs["FullForw"].query_seconds["FQ0"]
        )
        # while matched orientations beat re-execution outright
        assert (
            static_runs["FullForw"].query_seconds["FQ0"]
            < static_runs["BlackBox"].query_seconds["FQ0"]
        )
        assert (
            static_runs["FullOne"].query_seconds["BQ0"]
            < static_runs["BlackBox"].query_seconds["BQ0"]
        )

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig6-shape")
def test_fig6c_optimizer_bounds_damage(benchmark, dynamic_runs):
    """With the query-time optimizer, no strategy's query should be much
    worse than ~2x black-box (§VII-A)."""
    def check():
        for label, run in dynamic_runs.items():
            for query, seconds in run.query_seconds.items():
                blackbox = dynamic_runs["BlackBox"].query_seconds[query]
                budget = max(3.0 * blackbox, 0.25)
                assert seconds <= budget, (
                    f"{label}/{query}: {seconds:.3f}s vs blackbox {blackbox:.3f}s"
                )

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig6-shape")
def test_fig6c_no_worse_than_static_mismatch(benchmark, static_runs, dynamic_runs):
    """The batch scan engine already pulled the static mismatched scan to
    interactive speed; the query-time optimizer must not regress it (its
    historical job of rescuing this case is now a no-op, not a loss)."""
    def check():
        static_s = static_runs["FullForw"].query_seconds["BQ0"]
        dynamic_s = dynamic_runs["FullForw"].query_seconds["BQ0"]
        assert dynamic_s <= max(1.5 * static_s, 0.25), (dynamic_s, static_s)

    benchmark.pedantic(check, rounds=1, iterations=1)
