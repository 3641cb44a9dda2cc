"""Ablation: bounding-box re-execution predicates (§V-B, rejected).

The paper extended operators to store bounding-box predicates so black-box
re-execution could run on input slices — and rejected the idea: per-box
re-execution pays a fixed overhead per box, while *merging* the boxes
"quickly expands to encompass the full input array".

This bench reproduces the rejection quantitatively on the astronomy CRD
operator: as the number of query cells grows, the merged bounding box of
their region pairs converges to the whole array, so the predicate saves
nothing while costing a retrieval pass.
"""

import time

import numpy as np
import pytest

from repro import FULL_MANY_B, SubZero
from repro.bench.astronomy import AstronomyBenchmark
from repro.bench.report import ResultTable

from conftest import ASTRO_SHAPE


@pytest.fixture(scope="module")
def setup():
    bench = AstronomyBenchmark(shape=ASTRO_SHAPE, seed=0, n_stars=30, n_cosmic=20)
    sz = SubZero(bench.build_spec())
    sz.use_mapping_where_possible()
    sz.set_strategy("crd_1", FULL_MANY_B)
    sz.run(bench.inputs())
    store = sz.runtime.store_for("crd_1", FULL_MANY_B)
    return bench, sz, store


@pytest.fixture(scope="module")
def coverage_rows(setup):
    bench, sz, store = setup
    rng = np.random.default_rng(2)
    h, w = ASTRO_SHAPE
    array_area = h * w
    table = ResultTable(
        "Ablation: merged bounding-box coverage vs query size (CRD operator)",
        ["query_cells", "retrieval_s", "merged_coverage"],
    )
    rows = []
    for n_cells in (1, 16, 256, 4096):
        cells = np.stack(
            [rng.integers(0, h, size=n_cells), rng.integers(0, w, size=n_cells)],
            axis=1,
        ).astype(np.int64)
        start = time.perf_counter()
        entries = store._components()["table"]
        entry_ids = entries.candidate_entries(cells)
        lo, hi = entries.entry_boxes()
        if entry_ids.size:
            merged_lo = lo[entry_ids].min(axis=0)
            merged_hi = hi[entry_ids].max(axis=0)
            area = float(np.prod(merged_hi - merged_lo + 1))
        else:
            area = 0.0
        retrieval = time.perf_counter() - start
        coverage = area / array_area
        rows.append((n_cells, retrieval, coverage))
        table.add_row(n_cells, retrieval, coverage)
    table.add_note(
        "coverage -> 1.0 means re-executing on the merged box equals a full re-run"
    )
    table.print()
    return rows


@pytest.mark.benchmark(group="ablation-bbox")
def test_bbox_retrieval_cost(benchmark, setup):
    """Live measurement of per-query predicate retrieval + merging."""
    _, _, store = setup
    rng = np.random.default_rng(5)
    h, w = ASTRO_SHAPE
    cells = np.stack(
        [rng.integers(0, h, size=1024), rng.integers(0, w, size=1024)], axis=1
    ).astype(np.int64)

    def retrieve_and_merge():
        entries = store._components()["table"]
        entry_ids = entries.candidate_entries(cells)
        lo, hi = entries.entry_boxes()
        return lo[entry_ids].min(axis=0), hi[entry_ids].max(axis=0)

    benchmark.pedantic(retrieve_and_merge, rounds=3, iterations=1)


@pytest.mark.benchmark(group="ablation-bbox-shape")
def test_merged_box_expands_to_whole_array(benchmark, coverage_rows):
    """The paper's rejection argument: for realistic query sizes the merged
    predicate covers (nearly) the full array, and retrieval is never free."""
    def check():
        assert coverage_rows[-1][2] > 0.9
        coverages = [row[2] for row in coverage_rows]
        assert coverages == sorted(coverages)
        assert all(row[1] > 0 for row in coverage_rows)

    benchmark.pedantic(check, rounds=1, iterations=1)
