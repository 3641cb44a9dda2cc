"""Integration tests for the astronomy (LSST) benchmark workload."""

import statistics
from dataclasses import replace

import numpy as np
import pytest

from repro import (
    BLACKBOX,
    COMP_ONE_B,
    FULL_ONE_B,
    SubZero,
)
from repro.bench.astronomy import (
    BUILTIN_NODES,
    UDF_NODES,
    AstronomyBenchmark,
    CosmicRayDetect,
    generate_images,
)
from repro.core.modes import LineageMode

SHAPE = (64, 96)


@pytest.fixture(scope="module")
def bench():
    return AstronomyBenchmark(shape=SHAPE, seed=3, n_stars=12, n_cosmic=8)


@pytest.fixture(scope="module")
def subzero(bench):
    sz = SubZero(bench.build_spec())
    sz.use_mapping_where_possible()
    for udf in UDF_NODES:
        sz.set_strategy(udf, COMP_ONE_B)
    sz.run(bench.inputs())
    return sz


class TestWorkflowShape:
    def test_node_census(self, bench):
        spec = bench.build_spec()
        assert len(spec) == 26  # 22 built-ins + 4 UDFs, as in Figure 1
        assert set(UDF_NODES) <= set(spec.nodes)
        assert set(BUILTIN_NODES) <= set(spec.nodes)
        assert len(BUILTIN_NODES) == 22

    def test_builtins_are_mapping_operators(self, bench):
        spec = bench.build_spec()
        for name in BUILTIN_NODES:
            assert LineageMode.MAP in spec.node(name).operator.supported_modes()

    def test_udfs_are_not_mapping_operators(self, bench):
        spec = bench.build_spec()
        for name in UDF_NODES:
            modes = spec.node(name).operator.supported_modes()
            assert LineageMode.MAP not in modes
            assert LineageMode.PAY in modes


class TestDataGenerator:
    def test_images_share_stars_not_cosmic_rays(self):
        img1, img2 = generate_images(SHAPE, n_stars=10, n_cosmic=6, seed=1)
        diff = np.abs(img1.values() - img2.values())
        # cosmic rays differ between exposures: a few very large differences
        assert (diff > 500).sum() >= 6
        # but the bulk of the sky is nearly identical
        assert np.median(diff) < 10

    def test_deterministic(self):
        a1, _ = generate_images(SHAPE, seed=5)
        a2, _ = generate_images(SHAPE, seed=5)
        assert a1.allclose(a2)


class TestPipelineQuality:
    def test_cosmic_rays_detected(self, subzero):
        mask = subzero.instance.output_array("crd_1").values()
        assert mask.sum() >= 1  # found at least some cosmic rays

    def test_stars_detected(self, subzero):
        labels = subzero.instance.output_array("star_detect").values()
        assert labels.max() >= 3  # several distinct stars

    def test_compositing_removes_cosmic_rays(self, subzero):
        cleaned = subzero.instance.output_array("cr_remove").values()
        # repaired image should not retain the >2000-count cosmic spikes
        assert cleaned.max() < 2000


class TestQueries:
    def test_all_benchmark_queries_run(self, bench, subzero):
        queries = bench.queries(subzero.instance)
        assert set(queries) == {"BQ0", "BQ1", "BQ2", "BQ3", "BQ4", "FQ0"}
        for name, query in queries.items():
            result = subzero.query(query)
            assert result.count > 0, name

    def test_bq0_stays_local(self, bench, subzero):
        """A star's lineage is a compact neighbourhood, not the whole image."""
        queries = bench.queries(subzero.instance)
        result = subzero.query(queries["BQ0"])
        assert 0 < result.count < subzero.instance.source_array("img_1").size / 4
        coords = result.coords
        span = coords.max(axis=0) - coords.min(axis=0)
        assert (span < np.asarray(SHAPE)).all()

    def test_fq0_entire_array_vs_slow_agree(self, bench, subzero):
        queries = bench.queries(subzero.instance)
        fast = subzero.query(queries["FQ0"])
        slow = subzero.query(replace(queries["FQ0"], entire_array=False))
        assert {tuple(c) for c in fast.coords} == {tuple(c) for c in slow.coords}
        # the plans differ in kind: the fast one short-circuits the last four
        # steps on a full frontier, the slow one expands every step
        assert [s.shortcut for s in fast.steps[-4:]] == ["entire-array"] * 4
        assert not any(s.shortcut == "entire-array" for s in slow.steps)
        # and in time, compared on medians so one scheduler stall cannot flip it
        fast_s, slow_s = [], []
        for _ in range(5):
            fast_s.append(subzero.query(queries["FQ0"]).seconds)
            slow_s.append(subzero.query(replace(queries["FQ0"], entire_array=False)).seconds)
        assert statistics.median(fast_s) <= statistics.median(slow_s)

    def test_strategies_agree_on_star_query(self, bench):
        results = {}
        for strategy in (BLACKBOX, FULL_ONE_B, COMP_ONE_B):
            sz = SubZero(bench.build_spec(), enable_query_opt=False)
            sz.use_mapping_where_possible()
            if strategy is not BLACKBOX:
                for udf in UDF_NODES:
                    sz.set_strategy(udf, strategy)
            instance = sz.run(bench.inputs())
            query = bench.queries(instance)["BQ0"]
            results[strategy.label] = {
                tuple(c) for c in sz.query(query).coords
            }
        assert results["Blackbox"] == results["<-FullOne"] == results["<-CompOne"]


class TestUdfLineageShapes:
    def test_crd_hot_cells_have_radius_neighbourhood(self, subzero):
        op: CosmicRayDetect = subzero.instance.operator("crd_1")
        mask = subzero.instance.output_array("crd_1").values()
        hot = np.stack(np.nonzero(mask > 0.5), axis=1)
        if hot.shape[0] == 0:
            pytest.skip("no cosmic rays at this seed")
        cell = tuple(hot[0])
        result = subzero.backward_query([cell], [("crd_1", 0)])
        assert result.count <= (2 * op.radius + 1) ** 2
        assert result.count > 1

    def test_crd_cold_cells_map_identity(self, subzero):
        mask = subzero.instance.output_array("crd_1").values()
        cold = np.stack(np.nonzero(mask < 0.5), axis=1)
        cell = tuple(cold[0])
        result = subzero.backward_query([cell], [("crd_1", 0)])
        assert {tuple(c) for c in result.coords} == {cell}

    def test_crd_forward_map_is_identity(self):
        """The forward mapping function sends each input cell to the same
        mask cell; called directly, as no deterministic tier-1 query
        reaches it."""
        cells = np.array([[0, 0], [3, 5]])
        assert CosmicRayDetect().map_f_many(cells, 0).tolist() == cells.tolist()

    def test_star_cells_share_lineage(self, subzero):
        """All pixels of one star have the same (region) lineage."""
        labels = subzero.instance.output_array("star_detect").values().astype(int)
        star_ids, counts = np.unique(labels[labels > 0], return_counts=True)
        multi = star_ids[counts > 1]
        if multi.size == 0:
            pytest.skip("no multi-pixel star at this seed")
        cells = np.stack(np.nonzero(labels == multi[0]), axis=1)
        lineages = [
            {tuple(c) for c in subzero.backward_query([tuple(cell)], [("star_detect", 0)]).coords}
            for cell in cells[:3]
        ]
        assert all(lin == lineages[0] for lin in lineages)
        assert lineages[0] == {tuple(c) for c in cells}
