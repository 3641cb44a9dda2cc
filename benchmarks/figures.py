"""The paper's evaluation (§VIII, Figures 5-9) and the engine's wall-clock
acceptance bars, as one pytest module.

Each figure's module fixture sweeps its Table-II configurations once
through the ``repro.bench.harness`` builders and prints the paper-shaped
table (run with ``-s``); the tests assert the shape the paper reports.
Scales come from ``benchmarks/conftest.py``: laptop-sized by default, the
paper's with ``REPRO_BENCH_FULL=1``.

A wall-clock comparison written here is a median over ``N_RUNS`` runs that
interleave its sides (:func:`medians`), so one scheduler stall cannot flip
it; each states its margin where it is asserted.  Bytes, counts and
answers are exact, and most structural facts are also held by tier-1.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/figures.py -q -s
    REPRO_BENCH_FULL=1 PYTHONPATH=src python -m pytest benchmarks/figures.py -q -s
"""

import os
import shutil
import statistics
import threading
import time

import numpy as np
import pytest

from repro import FULL_MANY_B, FULL_ONE_B, PAY_ONE_B, SciArray, SubZero
from repro.arrays import coords as C
from repro.arrays.versions import VersionStore
from repro.bench.astronomy import AstronomyBenchmark
from repro.bench.genomics import GenomicsBenchmark
from repro.bench.harness import (
    MICRO_CONFIGS, astronomy_table, genomics_table, micro_overhead_table, micro_query_table,
    run_astronomy, run_genomics, run_genomics_optimizer, run_micro,
)
from repro.bench.micro import MicroBenchmark
from repro.bench.report import ResultTable
from repro.core.catalog import StoreCatalog
from repro.core.lineage_store import RegionEntryTable, make_store
from repro.core.model import BufferSink, ElementwiseBatch
from repro.core.query import QueryRequest
from repro.core.reexec import ReExecutor
from repro.core.stats import StatsCollector
from repro.serving.maintenance import MaintenanceWorker
from repro.storage import codecs
from repro.storage.partition import PartitionedCatalog
from repro.workflow.spec import WorkflowSpec
from tests.conftest import SpotUDF
from tests.test_codecs import codec_workloads

from conftest import (
    ASTRO_COSMIC, ASTRO_SHAPE, ASTRO_STARS, FULL, GENOMICS_SCALE,
    MICRO_FANINS, MICRO_FANOUTS, MICRO_QUERY_CELLS, MICRO_SHAPE,
)

N_RUNS = 5
#: a fig-8 run is ~1 s at the default scale; 3 x 36 configurations
FIG8_RUNS = 3


def medians(*fns, n=N_RUNS):
    """Median seconds of each of ``fns`` over ``n`` rounds; every round
    runs each once, in order, so a load spike hits all sides alike."""
    times = [[] for _ in fns]
    for _ in range(n):
        for fn, seen in zip(fns, times):
            start = time.perf_counter()
            fn()
            seen.append(time.perf_counter() - start)
    return [statistics.median(seen) for seen in times]


# -- Figure 5: astronomy ---------------------------------------------------------
#
# 5(a) disk and runtime overhead of BlackBox / BlackBoxOpt / FullMany /
# FullOne / SubZero; 5(b) BQ0-BQ4, FQ0 and FQ0Slow (FQ0 without the
# entire-array optimization).  Paper: SubZero's overheads sit near the
# black-box baselines while Full* pay an order of magnitude; SubZero
# answers fastest, BlackBox slowest; FQ0 vastly beats FQ0Slow.


@pytest.fixture(scope="module")
def astro():
    runs = run_astronomy(shape=ASTRO_SHAPE, seed=0, n_stars=ASTRO_STARS, n_cosmic=ASTRO_COSMIC)
    for table in astronomy_table(runs):
        table.print()
    return {run.label: run for run in runs}


def test_fig5_subzero_answers_every_query(astro):
    counts = astro["SubZero"].query_counts
    for query in ("BQ0", "BQ1", "BQ2", "BQ3", "BQ4", "FQ0", "FQ0Slow"):
        assert counts[query] > 0, query


def test_fig5a_overhead_shape(astro):
    """SubZero's storage undercuts Full lineage by a wide margin."""
    assert astro["SubZero"].disk_mb * 5 < astro["FullOne"].disk_mb
    assert astro["SubZero"].disk_mb * 5 < astro["FullMany"].disk_mb
    assert astro["BlackBox"].disk_mb == 0
    assert astro["BlackBoxOpt"].disk_mb == 0
    # Full lineage also pays a large runtime factor
    assert astro["FullOne"].runtime_s > 2 * astro["SubZero"].runtime_s


def test_fig5b_query_shape(astro):
    subzero = astro["SubZero"].query_seconds
    blackbox = astro["BlackBox"].query_seconds
    # SubZero beats re-running the expensive UDFs on the star query
    assert subzero["BQ0"] < blackbox["BQ0"]
    assert subzero["BQ0"] < astro["BlackBoxOpt"].query_seconds["BQ0"]
    # the entire-array optimization gives a large factor on FQ0
    assert subzero["FQ0"] < subzero["FQ0Slow"]
    # black-box is slowest across the backward suite
    suite = ("BQ0", "BQ1", "BQ2", "BQ4")
    assert sum(subzero[q] for q in suite) < sum(blackbox[q] for q in suite)


def test_ablation_merged_bounding_box_covers_the_array():
    """§V-B, rejected: re-executing on the merged bounding box of a query's
    region pairs saves nothing, because for realistic query sizes the box
    grows to (nearly) the whole array — measured on the CRD operator."""
    bench = AstronomyBenchmark(shape=ASTRO_SHAPE, seed=0, n_stars=30, n_cosmic=20)
    sz = SubZero(bench.build_spec())
    sz.use_mapping_where_possible()
    sz.set_strategy("crd_1", FULL_MANY_B)
    sz.run(bench.inputs())
    entries = sz.runtime.store_for("crd_1", FULL_MANY_B)._components()["table"]
    keys, koff, _, _ = entries.columns()
    rng = np.random.default_rng(2)
    table = ResultTable("Ablation: merged bounding-box coverage (CRD)", ["query_cells", "retrieval_s", "coverage"])
    coverages = []
    for n_cells in (1, 16, 256, 4096):
        cells = np.stack([rng.integers(0, ASTRO_SHAPE[0], n_cells), rng.integers(0, ASTRO_SHAPE[1], n_cells)], axis=1)
        start = time.perf_counter()
        ids = entries.candidate_entries(cells.astype(np.int64))
        owned = np.concatenate([keys[koff[e]:koff[e + 1]] for e in ids]) if ids.size else keys[:0]
        box = C.unpack_coords(owned, ASTRO_SHAPE)
        area = float(np.prod(box.max(axis=0) - box.min(axis=0) + 1)) if owned.size else 0.0
        retrieval = time.perf_counter() - start
        coverages.append(area / (ASTRO_SHAPE[0] * ASTRO_SHAPE[1]))
        table.add_row(n_cells, retrieval, coverages[-1])
        assert retrieval > 0
    table.print()
    assert coverages[-1] > 0.9
    assert coverages == sorted(coverages)


# -- Figure 6: genomics under eight static strategies -----------------------------
#
# 6(a) disk and runtime overhead; 6(b) query costs with the static executor
# (it joins against whatever was stored, mismatched orientation included);
# 6(c) the same with the query-time optimizer.  One divergence: the batch
# scan engine turns a mismatched-orientation scan into a few vectorised
# passes, so it no longer falls below re-execution; the penalty is asserted
# against the matching index instead.


@pytest.fixture(scope="module")
def static_runs():
    runs = run_genomics(scale=GENOMICS_SCALE, seed=0, query_opt=False)
    genomics_table(runs, "Figure 6(a)+(b): genomics overhead and static query costs").print()
    return {run.label: run for run in runs}


@pytest.fixture(scope="module")
def dynamic_runs():
    runs = run_genomics(scale=GENOMICS_SCALE, seed=0, query_opt=True)
    genomics_table(runs, "Figure 6(c): genomics query costs with the query-time optimizer").print()
    return {run.label: run for run in runs}


def test_fig6b_queries_answer(static_runs):
    for label in ("BlackBox", "PayBoth"):
        for query in ("BQ0", "BQ1", "FQ0", "FQ1"):
            assert static_runs[label].query_counts[query] > 0, (label, query)


def test_fig6a_overhead_shape(static_runs):
    """Dual-orientation strategies pay the most storage; payload the least
    of the materialising strategies."""
    assert static_runs["FullBoth"].disk_mb > static_runs["FullOne"].disk_mb
    assert static_runs["PayBoth"].disk_mb > static_runs["PayOne"].disk_mb
    assert static_runs["PayOne"].disk_mb < static_runs["FullOne"].disk_mb
    assert static_runs["BlackBox"].disk_mb == 0


def test_fig6b_mismatched_indexes_degrade(static_runs):
    seconds = {label: run.query_seconds for label, run in static_runs.items()}
    assert seconds["FullForw"]["BQ0"] > seconds["FullOne"]["BQ0"]
    # backward-optimized payload stores degrade forward queries below the
    # forward-optimized full store
    assert seconds["PayOne"]["FQ0"] > seconds["FullForw"]["FQ0"]
    # while matched orientations beat re-execution outright
    assert seconds["FullForw"]["FQ0"] < seconds["BlackBox"]["FQ0"]
    assert seconds["FullOne"]["BQ0"] < seconds["BlackBox"]["BQ0"]


def test_fig6c_optimizer_bounds_damage(dynamic_runs):
    """With the query-time optimizer no query is much worse than black-box (§VII-A)."""
    for label, run in dynamic_runs.items():
        for query, seconds in run.query_seconds.items():
            blackbox = dynamic_runs["BlackBox"].query_seconds[query]
            assert seconds <= max(3.0 * blackbox, 0.25), (label, query, seconds, blackbox)


def test_fig6c_no_worse_than_static_mismatch(static_runs, dynamic_runs):
    static_s = static_runs["FullForw"].query_seconds["BQ0"]
    dynamic_s = dynamic_runs["FullForw"].query_seconds["BQ0"]
    assert dynamic_s <= max(1.5 * static_s, 0.25), (dynamic_s, static_s)


# -- Figure 7: the strategy optimizer under storage budgets ------------------------
#
# The paper sweeps MaxDISK 1-100 MB on genomics (SubZero1 ... SubZero100);
# budgets scale with the dataset so the default run exercises the same regimes.

PAPER_BUDGETS_MB = (1, 10, 20, 50, 100)


def scaled(budget_mb: float) -> float:
    return budget_mb * GENOMICS_SCALE / 100


@pytest.fixture(scope="module")
def optimizer_runs():
    runs = run_genomics_optimizer(
        budgets_mb=tuple(scaled(b) for b in PAPER_BUDGETS_MB), scale=GENOMICS_SCALE, seed=0
    )
    for run, paper_budget in zip(runs, PAPER_BUDGETS_MB):
        run.label = f"SubZero{paper_budget}"
    genomics_table(runs, "Figure 7: optimizer under storage budgets").print()
    return runs


def test_fig7_loose_budget_queries_answer(optimizer_runs):
    for query in ("BQ0", "BQ1", "FQ0", "FQ1"):
        assert optimizer_runs[-1].query_counts[query] > 0, query


def test_fig7_optimizer_solves():
    bench = GenomicsBenchmark(scale=GENOMICS_SCALE, seed=0)
    sz = SubZero(bench.build_spec())
    sz.use_mapping_where_possible()
    workload = list(bench.queries(sz.profile(bench.inputs())).values())
    start = time.perf_counter()
    result = sz.optimize(workload, max_disk_bytes=scaled(20) * 1e6, apply=False)
    print(f"\noptimizer solve: {1e3 * (time.perf_counter() - start):.1f} ms (paper: ~1 ms)")
    assert result.plan


def test_fig7_budget_and_monotonicity(optimizer_runs):
    for run, paper_budget in zip(optimizer_runs, PAPER_BUDGETS_MB):
        assert run.disk_mb <= scaled(paper_budget) * 1.05, (run.label, run.disk_mb)
    disks = [run.disk_mb for run in optimizer_runs]
    # storage use grows (or stays flat) as the budget loosens
    assert all(a <= b * 1.2 + 1e-9 for a, b in zip(disks, disks[1:])), disks


def test_fig7_loose_budget_speeds_forward_queries(optimizer_runs):
    tight, loose = optimizer_runs[0], optimizer_runs[-1]
    forward = lambda run: run.query_seconds["FQ0"] + run.query_seconds["FQ1"]  # noqa: E731
    assert forward(loose) < forward(tight)
    assert loose.disk_mb >= tight.disk_mb


# -- Figures 8 and 9: the microbenchmark -------------------------------------------
#
# A synthetic operator emits region lineage for 10% of the array with tunable
# fanin/fanout.  Figure 8 (overhead): payload is nearly flat in fanin, Full
# grows; FullOne beats FullMany at fanout 1 and the order flips by fanout
# 100; ->FullOne grows with fanin; BlackBox is free.  Figure 9 (backward
# query cost): the *One layouts beat the *Many layouts; payload stays flat.


def row(rows, strategy, fanin, fanout=1):
    return next(
        r for r in rows if (r["strategy"], r["fanin"], r["fanout"]) == (strategy, fanin, fanout)
    )


def micro_bench(fanin, fanout=1):
    return MicroBenchmark(
        fanin=fanin, fanout=fanout, shape=MICRO_SHAPE, query_cells=MICRO_QUERY_CELLS, seed=0
    )


@pytest.fixture(scope="module")
def micro_rows():
    rows = run_micro(
        fanins=MICRO_FANINS, fanouts=MICRO_FANOUTS, shape=MICRO_SHAPE,
        query_cells=MICRO_QUERY_CELLS, seed=0,
    )
    micro_overhead_table(rows).print()
    micro_query_table(rows).print()
    return rows


def test_fig8_blackbox_free(micro_rows):
    for fanout in MICRO_FANOUTS:
        for fanin in MICRO_FANINS:
            assert row(micro_rows, "BlackBox", fanin, fanout)["disk_mb"] == 0


def test_fig8_payload_disk_is_exactly_keys_plus_payload(micro_rows):
    """PayOne stores an 8-byte key and the 4*fanin-byte payload per entry —
    no coordinate encoding at all."""
    for fanin in MICRO_FANINS:
        disk = row(micro_rows, "<-PayOne", fanin)["disk_mb"] * 1e6
        n_entries = disk / (8 + 4 * fanin)
        assert abs(n_entries - round(n_entries)) < 1e-6, (fanin, disk)


def test_fig8_full_disk_grows_with_fanin(micro_rows):
    lo = row(micro_rows, "<-FullOne", MICRO_FANINS[0])["disk_mb"]
    assert row(micro_rows, "<-FullOne", MICRO_FANINS[-1])["disk_mb"] > 2 * lo


def test_fig8_fullone_vs_fullmany_crossover(micro_rows):
    """FullOne wins at fanout 1; by fanout 100 FullMany stores keys once per
    pair and pulls ahead."""
    top = MICRO_FANINS[-1]
    assert row(micro_rows, "<-FullOne", top, 1)["disk_mb"] <= row(micro_rows, "<-FullMany", top, 1)["disk_mb"]
    assert row(micro_rows, "<-FullMany", top, 100)["disk_mb"] <= row(micro_rows, "<-FullOne", top, 100)["disk_mb"]


def test_fig8_forward_one_grows_with_fanin(micro_rows):
    """->FullOne needs a hash entry per distinct input cell."""
    lo = row(micro_rows, "->FullOne", MICRO_FANINS[0], 100)["disk_mb"]
    assert row(micro_rows, "->FullOne", MICRO_FANINS[-1], 100)["disk_mb"] > lo


def capture_run(bench, strategy, capture="deferred"):
    """One workflow execution: wall seconds (end-of-run drain included),
    the capture counters, and the instance."""
    sz = SubZero(bench.build_spec(), enable_query_opt=False, capture=capture)
    if strategy is not None:
        sz.set_strategy("synthetic", strategy)
    start = time.perf_counter()
    instance = sz.run(bench.inputs())
    wall = time.perf_counter() - start
    stats = dict(sz.stats.capture)
    sz.close()
    return wall, stats, instance


@pytest.fixture(scope="module")
def fig8_medians():
    """Per (strategy, fanin, fanout): median runtime overhead over the bare
    (BlackBox) execution and median foreground capture seconds over it,
    from FIG8_RUNS rounds that each run every strategy back to back."""
    out, engaged = {}, {"deferred_pairs": 0, "deferred_bytes": 0, "encode_thread_seconds": 0.0}
    table = ResultTable(
        f"Figure 8, median of {FIG8_RUNS}: runtime overhead and foreground capture cost",
        ["fanout", "fanin", "strategy", "overhead_s", "capture/bare"],
    )
    for fanout in MICRO_FANOUTS:
        for fanin in MICRO_FANINS:
            bench = micro_bench(fanin, fanout)
            runs = {label: [] for label in MICRO_CONFIGS}
            for _ in range(FIG8_RUNS):
                for label, strategy in MICRO_CONFIGS.items():
                    wall, stats, _ = capture_run(bench, strategy)
                    runs[label].append((wall, stats["capture_seconds"]))
                    for key in engaged:
                        engaged[key] += stats.get(key, 0)
            bare = statistics.median(wall for wall, _ in runs["BlackBox"])
            for label, samples in runs.items():
                wall = statistics.median(w for w, _ in samples)
                capture_s = statistics.median(c for _, c in samples)
                out[label, fanin, fanout] = (max(0.0, wall - bare), capture_s / bare)
                table.add_row(fanout, fanin, label, *out[label, fanin, fanout])
    table.print()
    return out, engaged


def test_fig8_payload_write_overhead_flat_in_fanin(fig8_medians):
    """Payload lineage 'does not need to be encoded': its runtime overhead
    barely moves with fanin while Full's encoding work grows.  Medians of
    FIG8_RUNS; margin: payload at the top fanin stays under Full's and within
    4x (or +0.5 s) of payload at the lowest fanin."""
    overhead = {key: value[0] for key, value in fig8_medians[0].items()}
    pay_lo = overhead["<-PayOne", MICRO_FANINS[0], 1]
    pay_hi = overhead["<-PayOne", MICRO_FANINS[-1], 1]
    assert pay_hi < overhead["<-FullOne", MICRO_FANINS[-1], 1]
    assert pay_hi < max(4 * pay_lo, pay_lo + 0.5)


def test_fig8_foreground_capture_within_1_5x_bare(fig8_medians):
    """Deferred capture: the workflow thread pays only descriptor recording
    and the hand-off — at most 1.5x the bare execution (median of FIG8_RUNS)
    at every configuration — while the encode runs on the background
    worker, which must actually have engaged."""
    ratios, engaged = fig8_medians
    worst = max(ratio for (label, _, _), (_, ratio) in ratios.items() if label != "BlackBox")
    assert worst <= 1.5, worst
    assert engaged["deferred_pairs"] > 0
    assert engaged["deferred_bytes"] > 0
    assert engaged["encode_thread_seconds"] > 0


def test_fig8_deferred_foreground_beats_eager_2x():
    """At the heaviest configuration eager encoding blocks the workflow
    thread for the whole lowering; deferral must cut that at least 2x
    (medians of FIG8_RUNS, interleaved)."""
    bench, strategy = micro_bench(MICRO_FANINS[-1]), MICRO_CONFIGS["<-FullMany"]
    eager, deferred = [], []
    for _ in range(FIG8_RUNS):
        eager.append(capture_run(bench, strategy, "eager")[2].total_lineage_seconds())
        deferred.append(capture_run(bench, strategy)[1]["capture_seconds"])
    eager_s, deferred_s = statistics.median(eager), statistics.median(deferred)
    print(f"\nforeground lineage cost: eager {1e3 * eager_s:.1f} ms, deferred {1e3 * deferred_s:.1f} ms")
    assert deferred_s < eager_s
    assert eager_s >= 2 * deferred_s


def test_fig9_backward_queries_answer(micro_rows):
    for strategy in ("<-PayMany", "<-PayOne", "<-FullMany", "<-FullOne"):
        assert row(micro_rows, strategy, MICRO_FANINS[-1])["bq_cells"] > 0, strategy


def test_fig9_one_beats_many(micro_rows):
    """Hash lookups beat spatial-index probes at every fanin (fanout 1;
    ``bq_s`` is the harness's median of five)."""
    for fanin in MICRO_FANINS:
        for one, many in (("<-FullOne", "<-FullMany"), ("<-PayOne", "<-PayMany")):
            one_s, many_s = row(micro_rows, one, fanin)["bq_s"], row(micro_rows, many, fanin)["bq_s"]
            assert one_s < many_s, (fanin, one, one_s, many_s)


def test_fig9_payload_flat_in_fanin(micro_rows):
    lo = row(micro_rows, "<-PayOne", MICRO_FANINS[0])["bq_s"]
    assert row(micro_rows, "<-PayOne", MICRO_FANINS[-1])["bq_s"] < lo * 10 + 5e-3


def test_fig9_one_layouts_answer_without_reexecution(monkeypatch):
    """The paper's 'materialised backward lineage answers faster than
    re-execution', as the count that makes it so: a backward query against
    <-FullOne or <-PayOne re-runs the operator zero times; BlackBox re-runs
    it once.  (At laptop scale the synthetic operator is cheap enough that
    FullOne and BlackBox tie within ~1% at fanin 1, so a timing order there
    is a coin flip.)"""
    reruns = []
    rerun = ReExecutor.rerun
    monkeypatch.setattr(ReExecutor, "rerun", lambda self, node: reruns.append(node) or rerun(self, node))
    for fanin in (MICRO_FANINS[0], MICRO_FANINS[-1]):
        bench = micro_bench(fanin)
        for label, expected in (("<-FullOne", 0), ("<-PayOne", 0), ("BlackBox", 1)):
            sz = SubZero(bench.build_spec(), enable_query_opt=False)
            if MICRO_CONFIGS[label] is not None:
                sz.set_strategy("synthetic", MICRO_CONFIGS[label])
            query = bench.queries(sz.run(bench.inputs()))["BQ"]
            before = len(reruns)
            assert sz.query(query).count > 0
            assert len(reruns) - before == expected, (label, fanin)
            sz.close()


# -- Engine acceptance bars (not paper figures) -------------------------------------


def test_rtree_beats_cursor_scan_5x():
    """The *Many layouts index entry keys with an R-tree (§VI-B): a selective
    64-cell probe over 50k singleton entries beats a per-entry cursor scan
    at least 5x (medians of 3), and is exact where the bounding-box sweep
    over-includes."""
    shape, n = (1000, 1000), 200_000 if FULL else 50_000
    rng = np.random.default_rng(0)
    table = RegionEntryTable(shape)
    table.add_singleton_entries(
        rng.choice(shape[0] * shape[1], size=n, replace=False).astype(np.int64), b"x" * n, np.ones(n, dtype=np.int64)
    )
    table.finalize()
    query = np.random.default_rng(1).integers(0, 1000, size=(64, 2)).astype(np.int64)
    keys, koff, _, _ = table.columns()
    packed = np.sort(C.pack_coords(query, shape))

    def rtree():
        return np.unique(np.concatenate([table._rtree.query_point(c) for c in query]))

    def cursor_scan():
        return [e for e in range(koff.size - 1) if C.isin_sorted(keys[koff[e]:koff[e + 1]], packed).any()]

    rtree_s, cursor_s = medians(rtree, cursor_scan, n=3)
    print(f"\nR-tree {1e3 * rtree_s:.2f} ms vs cursor scan {1e3 * cursor_s:.1f} ms over {n} entries")
    assert rtree_s * 5 < cursor_s
    cells = C.unpack_coords(keys, shape)  # one key cell per singleton entry
    swept = ((cells >= query.min(axis=0)) & (cells <= query.max(axis=0))).all(axis=1)
    assert rtree().size <= np.count_nonzero(swept)


def test_batch_scan_2x_faster_than_per_entry_probes():
    """A mismatched-orientation scan through ``BatchProbe`` (warm lowered
    tables) answers as the per-entry in-situ probes do and at least 2x
    faster (medians of N_RUNS).  Entries mix the micro workload's shapes:
    contiguous runs, ragged dense masks, scattered and unsorted sets."""
    rng = np.random.default_rng(17)
    size = int(np.prod(MICRO_SHAPE))
    entries = []
    for j in range(4000 if FULL else 1200):
        kind = j % 4
        if kind == 0:
            start = int(rng.integers(0, size - 64))
            entries.append(np.arange(start, start + 64, dtype=np.int64))
        elif kind == 1:
            base, mask = int(rng.integers(0, size - 512)), rng.random(512) < 0.5
            mask[0] = mask[-1] = True
            entries.append(base + np.flatnonzero(mask).astype(np.int64))
        elif kind == 2:
            entries.append(np.sort(rng.choice(size, size=24, replace=False).astype(np.int64)))
        else:
            entries.append(rng.choice(size, size=8, replace=False).astype(np.int64))
    table = RegionEntryTable((len(entries),))
    for j, arr in enumerate(entries):
        table.add_entry(np.asarray([j], dtype=np.int64), codecs.encode_cells(arr))
    table.finalize()
    pool = np.concatenate([entries[i] for i in rng.integers(0, len(entries), 16)])
    query = np.sort(rng.choice(pool, size=256, replace=False))

    def per_entry():
        return np.asarray([table.value_contains_any(e, query) for e in range(table.n_entries)], dtype=bool)

    def batch():
        return table.batch_probe().contains_any(query)

    assert np.array_equal(batch(), per_entry())
    loop_s, batch_s = medians(per_entry, batch)
    print(f"\nper-entry probes {1e3 * loop_s:.2f} ms vs batch {1e3 * batch_s:.3f} ms")
    assert batch_s * 2 <= loop_s


@pytest.mark.parametrize("workload", ["astro-conv", "astro-reshape", "genomics-train"])
def test_codec_query_paths_within_1_2x_of_delta(workload):
    """Codec selection must not tax the query paths (medians of N_RUNS,
    margin 1.2x + 1 ms): a *Many-style backward query decoding the selected
    formats keeps within reach of delta-only values, and a mismatched scan
    probing values in situ keeps within reach of decoding every one."""
    entries = codec_workloads(ASTRO_SHAPE, GENOMICS_SCALE)[workload]

    def keyed(encode):
        table = RegionEntryTable((len(entries),))
        for j, arr in enumerate(entries):
            table.add_entry(np.asarray([j], dtype=np.int64), encode(arr))
        table.finalize()
        return table

    rng = np.random.default_rng(29)
    qids = np.unique(rng.integers(0, len(entries), max(64, len(entries) // 3)))

    def backward(table):
        total = 0
        for e in table.candidate_entries(qids.reshape(-1, 1)):
            if C.isin_sorted(table.entry_keys(int(e)), qids).any():
                total += codecs.decode_cells(table.entry_value(int(e)))[0].size
        return total

    delta, selected = keyed(codecs.DELTA.encode), keyed(codecs.encode_cells)
    assert backward(selected) == backward(delta)
    delta_s, selected_s = medians(lambda: backward(delta), lambda: backward(selected))
    assert selected_s <= delta_s * 1.2 + 1e-3, (delta_s, selected_s)

    rng = np.random.default_rng(13)
    pool = np.concatenate([entries[i] for i in rng.integers(0, len(entries), 8)])
    query = np.unique(rng.choice(pool, size=min(64, pool.size), replace=False))
    bufs = [codecs.encode_cells(arr) for arr in entries]

    def decode_all():
        return sum(bool(C.isin_sorted(codecs.decode_cells(b)[0], query).any()) for b in bufs)

    def in_situ():
        return sum(bool(codecs.contains_any(b, query)) for b in bufs)

    assert decode_all() == in_situ()
    decode_s, in_situ_s = medians(decode_all, in_situ)
    print(f"\n{workload}: backward {1e3 * selected_s:.2f} vs delta {1e3 * delta_s:.2f} ms; "
          f"in-situ scan {1e3 * in_situ_s:.2f} vs decode {1e3 * decode_s:.2f} ms")
    assert in_situ_s <= decode_s * 1.2 + 1e-3, (decode_s, in_situ_s)


# the generational catalog: one FullMany store over a 256x256 array
CAT_SHAPE, CAT_KEY = (256, 256), ("n", FULL_MANY_B)
N_BASE = 40_000 if FULL else 12_000


def catalog_store(seed, n, node="n", strategy=FULL_MANY_B):
    """``n`` random elementwise pairs on the 256x256 array, finalized."""
    rng = np.random.default_rng(seed)
    sink = BufferSink()
    outs, ins = rng.integers(0, 256, size=(n, 2)), rng.integers(0, 256, size=(n, 2))
    sink.add_elementwise(ElementwiseBatch(outcells=outs, incells=(ins,)))
    store = make_store(node, strategy, CAT_SHAPE, (CAT_SHAPE,))
    store.ingest(sink)
    store.finalize_if_possible()
    return store


def flushed(directory, stores):
    """Write ``stores[0]`` then append the rest, one generation each."""
    catalog, _ = StoreCatalog.write(directory, {CAT_KEY: stores[0]})
    catalog.close()
    for store in stores[1:]:
        catalog, _ = StoreCatalog.append(directory, {CAT_KEY: store})
        catalog.close()
    return directory


def scan_amplification(directory, single_dir, query):
    """Median forward-scan seconds over ``directory``'s store divided by the
    same over a single-segment flush of the same lineage (interleaved,
    ten scans per sample), after checking both answer alike."""
    catalogs = [StoreCatalog.open(d) for d in (directory, single_dir)]
    stores = [c.open_store(*CAT_KEY) for c in catalogs]
    answers = [sorted(s.scan_forward_full(query, 0).tolist()) for s in stores]
    assert answers[0] == answers[1]
    scans = [lambda s=s: [s.scan_forward_full(query, 0) for _ in range(10)] for s in stores]
    amp = np.divide(*medians(*scans, n=7))
    for catalog in catalogs:
        catalog.close()
    return amp


def test_append_5x_faster_than_full_reflush(tmp_path):
    """Committing a 10% delta with ``StoreCatalog.append`` is at least 5x
    faster than re-flushing the merged catalog (medians of N_RUNS; the 5x
    byte ratio is exact and held by tier-1)."""
    base, delta = catalog_store(0, N_BASE), catalog_store(1, N_BASE // 10)
    base_dir = flushed(str(tmp_path / "base"), [base])
    dirs = iter(range(N_RUNS))

    def reflush():
        shutil.rmtree(tmp_path / "full", ignore_errors=True)
        src = StoreCatalog.open(base_dir)
        merged = make_store("n", FULL_MANY_B, CAT_SHAPE, (CAT_SHAPE,))
        merged.absorb(src.open_store(*CAT_KEY))
        merged.absorb(delta)
        merged.finalize_if_possible()
        StoreCatalog.write(str(tmp_path / "full"), {CAT_KEY: merged})[0].close()
        src.close()

    def append():
        directory = str(tmp_path / f"inc{next(dirs)}")
        shutil.copytree(base_dir, directory)
        start = time.perf_counter()
        StoreCatalog.append(directory, {CAT_KEY: delta})[0].close()
        return time.perf_counter() - start

    full_s = medians(reflush)[0]
    append_s = statistics.median(append() for _ in range(N_RUNS))
    print(f"\nfull re-flush {1e3 * full_s:.1f} ms vs append {1e3 * append_s:.1f} ms")
    assert full_s >= 5 * append_s


def test_compaction_restores_single_segment_scan_speed(tmp_path):
    """A mismatched scan over a 4-generation overlay pays a pass per
    generation; after ``compact()`` it runs within 1.2x of a store flushed
    in one piece (median of 7 interleaved samples)."""
    stores = [catalog_store(0, N_BASE)] + [catalog_store(seed, N_BASE // 10) for seed in (1, 2, 3)]
    overlay_dir = flushed(str(tmp_path / "overlay"), stores)
    single = catalog_store(0, N_BASE)
    for store in stores[1:]:
        single.absorb(store)
    single.finalize_if_possible()
    single_dir = flushed(str(tmp_path / "single"), [single])
    query = np.unique(np.random.default_rng(7).integers(0, CAT_SHAPE[0] * CAT_SHAPE[1], size=64).astype(np.int64))
    before = scan_amplification(overlay_dir, single_dir, query)
    catalog = StoreCatalog.open(overlay_dir)
    assert catalog.generation_count(*CAT_KEY) == 4
    assert catalog.compact().compacted
    assert catalog.generation_count(*CAT_KEY) == 1
    catalog.close()
    after = scan_amplification(overlay_dir, single_dir, query)
    print(f"\nscan vs single flush: 4-generation overlay {before:.2f}x, compacted {after:.2f}x")
    assert after <= 1.2


class CatalogEngine:
    """The two-method surface :class:`MaintenanceWorker` drives, over a bare
    one-key catalog: advise compaction while the key has > 1 generation."""

    def __init__(self, catalog):
        self.catalog, self.stats = catalog, StatsCollector()

    def compaction_advice(self):
        gens = self.catalog.generation_count(*CAT_KEY)
        return [(*CAT_KEY, gens, 1.0)] if gens > 1 else []

    def compact_lineage(self, node=None, strategy=None, budget_bytes=None):
        return self.catalog.compact(node=node, strategy=strategy, budget_bytes=budget_bytes)


def test_maintenance_holds_read_amplification_under_appends(tmp_path):
    """Twelve delta runs appended while a query loop runs, zero manual
    ``compact()`` calls: the background worker drains every generation, and
    the steady-state scan runs within 1.2x of a single-segment flush."""
    deltas = [catalog_store(100 + i, N_BASE // 10) for i in range(12)]
    stress_dir = str(tmp_path / "stress")
    catalog, _ = StoreCatalog.write(stress_dir, {CAT_KEY: catalog_store(0, N_BASE)})
    engine, busy = CatalogEngine(catalog), threading.Event()
    worker = MaintenanceWorker(
        engine, is_idle=lambda: not busy.is_set(), stats=engine.stats, interval_s=0.002, idle_interval_s=0.02
    ).start()
    query = np.unique(np.random.default_rng(11).integers(0, CAT_SHAPE[0] * CAT_SHAPE[1], size=64).astype(np.int64))
    for delta in deltas:
        catalog.append_stores({CAT_KEY: delta})
        busy.set()
        try:
            for _ in range(2):
                catalog.open_store(*CAT_KEY).scan_forward_full(query, 0)
        finally:
            busy.clear()
        time.sleep(0.005)  # an idle gap the worker can claim
    deadline = time.monotonic() + 120.0
    while engine.compaction_advice() and time.monotonic() < deadline:
        time.sleep(0.02)
    worker.stop()
    assert not engine.compaction_advice(), "maintenance never drained the backlog"
    assert catalog.generation_count(*CAT_KEY) == 1
    assert engine.stats.maintenance["compactions_run"] >= 1
    catalog.close()
    single = catalog_store(0, N_BASE)
    for delta in deltas:
        single.absorb(delta)
    single.finalize_if_possible()
    amp = scan_amplification(stress_dir, flushed(str(tmp_path / "single"), [single]), query)
    print(f"\nsteady-state scan after maintenance: {amp:.2f}x the single flush")
    assert amp <= 1.2


PART_NODES, PART_N = [f"node{i}" for i in range(4)], 20_000 if FULL else 6_000


def partition_stores(seed0, n=PART_N):
    return {
        (node, FULL_ONE_B): catalog_store(seed0 + i, n, node, FULL_ONE_B)
        for i, node in enumerate(PART_NODES)
    }


def partitioned(directory):
    mapping = {node: f"p{i}" for i, node in enumerate(PART_NODES)}
    return PartitionedCatalog.write(directory, partition_stores(0), partitions=mapping)[0]


def test_targeted_scatter_within_3x_of_monolith(tmp_path):
    """A backward query routed to one of four partitions costs at most 3x
    the same query on a monolithic catalog (medians of N_RUNS x 20 calls):
    the root adds a lookup, never an I/O pass.  Tier-1 holds the counters
    (one partition probed, no store opened elsewhere)."""
    StoreCatalog.write(str(tmp_path / "mono"), partition_stores(0))[0].close()
    partitioned(str(tmp_path / "part")).close()
    mono, part = StoreCatalog.open(str(tmp_path / "mono")), PartitionedCatalog.open(str(tmp_path / "part"))
    records = [cat.borrow(PART_NODES[1], FULL_ONE_B) for cat in (mono, part)]
    query = np.unique(np.random.default_rng(9).integers(0, 256 * 256, size=64).astype(np.int64))
    calls = [lambda s=r.store: [s.backward_full(query) for _ in range(20)] for r in records]
    mono_s, part_s = medians(*calls)
    for cat, record in zip((mono, part), records):
        cat.release(record)
        cat.close()
    print(f"\ntargeted scatter {part_s / mono_s:.2f}x the monolith")
    assert part_s <= 3.0 * mono_s


def test_parallel_partition_compaction_not_slower(tmp_path):
    """Compacting four partitions on the scatter pool is not much slower
    than sweeping them one by one (median of 3 rebuilds per order, margin:
    speedup >= 0.5); both converge every key to one generation."""
    seconds = {1: [], 4: []}
    for i in range(3):
        for parallel in seconds:
            part = partitioned(str(tmp_path / f"p{parallel}-{i}"))
            for round_ in (1, 2):
                part.append_stores(partition_stores(100 * round_, n=PART_N // 4))
            start = time.perf_counter()
            part.compact(parallel=parallel)
            seconds[parallel].append(time.perf_counter() - start)
            assert max(part.generation_count(node, FULL_ONE_B) for node in PART_NODES) == 1
            part.close()
    speedup = statistics.median(seconds[1]) / statistics.median(seconds[4])
    print(f"\nparallel partition compaction speedup {speedup:.2f}x")
    assert speedup >= 0.5


def test_reader_threads_scale_where_cores_allow(tmp_path):
    """``SubZero.serve`` throughput at 1..8 reader threads over a flushed
    three-UDF workflow, every answer checked against one thread.  8 threads
    must reach 3x one thread on >= 8 cores, 4 threads 1.5x on >= 4 (median
    of 3 each); below that one pass per thread count only documents it."""
    shape = (192, 224) if FULL else (96, 112)
    spec = WorkflowSpec(name="bench-serving")
    spec.add_source("img")
    for node, src, thresh, radius in (("s1", "img", 0.55, 1), ("s2", "s1", 0.5, 2), ("s3", "s2", 0.5, 1)):
        spec.add_node(node, SpotUDF(thresh=thresh, radius=radius), [src])
    versions, sz = VersionStore(), SubZero(spec, enable_query_opt=False)
    for node, strategy in (("s1", FULL_ONE_B), ("s2", FULL_MANY_B), ("s3", PAY_ONE_B)):
        sz.set_strategy(node, strategy)
    sz.run({"img": SciArray.from_numpy(np.random.default_rng(11).random(shape))}, version_store=versions)
    sz.flush_lineage(str(tmp_path))
    rng = np.random.default_rng(5)
    paths = [(QueryRequest.backward, ["s1"]), (QueryRequest.backward, ["s2", "s1"]), (QueryRequest.forward, ["s1", "s2"]),
             (QueryRequest.backward, ["s3", "s2"]), (QueryRequest.forward, ["s2"]), (QueryRequest.forward, ["s3"])]
    queries = [paths[i % 6][0](rng.integers(0, min(shape), size=(48, 2)), paths[i % 6][1]) for i in range(144 if FULL else 72)]
    answers = lambda results: [sorted(map(tuple, r.coords.tolist())) for r in results]  # noqa: E731
    baseline = answers(sz.serve(queries, 1))
    resumed = SubZero(spec, enable_query_opt=False)
    resumed.resume(versions, wal=sz.wal, lineage_dir=str(tmp_path))
    cpus = os.cpu_count() or 1
    with resumed:
        resumed.serve(queries[: len(queries) // 4], max_workers=2)  # warm the cache
        qps = {}
        for workers in (1, 2, 4, 8):
            results = []
            serve = lambda: results.append(resumed.serve(queries, max_workers=workers))  # noqa: E731
            qps[workers] = len(queries) / medians(serve, n=3 if cpus >= 4 else 1)[0]
            assert all(answers(r) == baseline for r in results)
    print("\nreader threads -> queries/s: " + ", ".join(f"{w}: {q:.1f}" for w, q in qps.items()))
    if cpus >= 8:
        assert qps[8] >= 3.0 * qps[1], qps
    elif cpus >= 4:
        assert qps[4] >= 1.5 * qps[1], qps

