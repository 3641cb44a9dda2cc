"""Figure 9: microbenchmark backward-query cost vs fanin.

Backward queries over 1000 output cells against the backward-optimized
strategies.  Expected shape (paper): the *One layouts answer with direct
hash lookups and beat the *Many layouts, which pay a spatial-index probe
per query cell; payload query cost stays flat as fanin grows.
"""

import pytest

from repro import SubZero
from repro.bench.harness import MICRO_CONFIGS, micro_query_table, run_micro
from repro.bench.micro import MicroBenchmark

from conftest import MICRO_FANINS, MICRO_FANOUTS, MICRO_QUERY_CELLS, MICRO_SHAPE

BACKWARD_STRATEGIES = ["<-PayMany", "<-PayOne", "<-FullMany", "<-FullOne"]


@pytest.fixture(scope="module")
def micro_rows():
    rows = run_micro(
        fanins=MICRO_FANINS,
        fanouts=MICRO_FANOUTS,
        configs=BACKWARD_STRATEGIES + ["BlackBox"],
        shape=MICRO_SHAPE,
        query_cells=MICRO_QUERY_CELLS,
        seed=0,
    )
    micro_query_table(rows).print()
    return rows


def by_key(rows, strategy, fanin, fanout):
    for row in rows:
        if (
            row["strategy"] == strategy
            and row["fanin"] == fanin
            and row["fanout"] == fanout
        ):
            return row
    raise KeyError((strategy, fanin, fanout))


@pytest.fixture(scope="module")
def live_engines():
    """One engine per backward strategy at the top fanin, kept for live
    query benchmarking."""
    engines = {}
    bench = MicroBenchmark(
        fanin=MICRO_FANINS[-1],
        fanout=1,
        shape=MICRO_SHAPE,
        query_cells=MICRO_QUERY_CELLS,
        seed=0,
    )
    for label in BACKWARD_STRATEGIES:
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        sz.set_strategy("synthetic", MICRO_CONFIGS[label])
        instance = sz.run(bench.inputs())
        engines[label] = (sz, bench.queries(instance)["BQ"])
    return engines


@pytest.mark.benchmark(group="fig9-backward-queries")
@pytest.mark.parametrize("strategy", BACKWARD_STRATEGIES)
def test_fig9_backward_query_cost(benchmark, live_engines, strategy):
    sz, query = live_engines[strategy]
    result = benchmark.pedantic(
        lambda: sz.query(query), rounds=3, iterations=1
    )
    assert result.count > 0


@pytest.mark.benchmark(group="fig9-shape")
def test_fig9_one_beats_many(benchmark, micro_rows):
    """Hash lookups beat spatial-index probes at every fanin (fanout 1)."""
    def check():
        for fanin in MICRO_FANINS:
            one = by_key(micro_rows, "<-FullOne", fanin, 1)["bq_s"]
            many = by_key(micro_rows, "<-FullMany", fanin, 1)["bq_s"]
            assert one < many, (fanin, one, many)
            pay_one = by_key(micro_rows, "<-PayOne", fanin, 1)["bq_s"]
            pay_many = by_key(micro_rows, "<-PayMany", fanin, 1)["bq_s"]
            assert pay_one < pay_many, (fanin, pay_one, pay_many)

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig9-shape")
def test_fig9_payload_flat_in_fanin(benchmark, micro_rows):
    """Payload query cost is constant-ish in fanin (the paper's plot)."""
    def check():
        lo = by_key(micro_rows, "<-PayOne", MICRO_FANINS[0], 1)["bq_s"]
        hi = by_key(micro_rows, "<-PayOne", MICRO_FANINS[-1], 1)["bq_s"]
        assert hi < lo * 10 + 5e-3

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="fig9-shape")
def test_fig9_one_layouts_beat_blackbox(benchmark, micro_rows):
    """Materialised backward lineage answers faster than re-execution for
    the hash layouts (the paper reports BlackBox at 0.7-20 s against
    25-100 ms for the materialised strategies; we assert the ordering at
    fanout 1, where the pair count makes the re-execution join heaviest)."""
    def check():
        for strategy in ("<-FullOne", "<-PayOne"):
            for fanin in (MICRO_FANINS[0], MICRO_FANINS[-1]):
                mat = by_key(micro_rows, strategy, fanin, 1)["bq_s"]
                bb = by_key(micro_rows, "BlackBox", fanin, 1)["bq_s"]
                assert mat < bb, (strategy, fanin, mat, bb)

    benchmark.pedantic(check, rounds=1, iterations=1)
