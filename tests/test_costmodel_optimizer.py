"""Tests for the cost model and the lineage-strategy optimizer (ILP + greedy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SciArray, SubZero
from repro.core.costmodel import CostModel
from repro.core.model import Direction
from repro.core.modes import (
    BLACKBOX,
    FULL_MANY_B,
    FULL_ONE_B,
    FULL_ONE_F,
    MAP,
    PAY_ONE_B,
)
from repro.core.optimizer import (
    StrategyOptimizer,
    WorkloadProfile,
    candidate_strategies,
)
from repro.core.query import QueryRequest
from repro.core.stats import StatsCollector
from repro.errors import OptimizationError
from tests.conftest import SpotUDF, build_spot_spec


def seeded_stats(node="udf", n_pairs=1000, fanin=4, fanout=1, payload=8):
    stats = StatsCollector()
    s = stats.get(node)
    s.compute_seconds = 0.2
    s.output_size = 10000
    s.input_sizes = (10000,)
    s.n_pairs = n_pairs
    s.n_outcells = n_pairs * fanout
    s.n_incells = n_pairs * fanin
    s.n_payload_pairs = n_pairs
    s.n_payload_outcells = n_pairs * fanout
    s.payload_bytes = n_pairs * payload
    return stats


class TestCostModel:
    def test_blackbox_free_storage(self):
        model = CostModel(seeded_stats())
        assert model.disk_bytes("udf", BLACKBOX) == 0
        assert model.write_seconds("udf", MAP) == 0

    def test_disk_scales_with_fanin(self):
        lo = CostModel(seeded_stats(fanin=1))
        hi = CostModel(seeded_stats(fanin=100))
        assert hi.disk_bytes("udf", FULL_ONE_B) > lo.disk_bytes("udf", FULL_ONE_B)

    def test_payload_disk_independent_of_fanin(self):
        lo = CostModel(seeded_stats(fanin=1))
        hi = CostModel(seeded_stats(fanin=100))
        assert hi.disk_bytes("udf", PAY_ONE_B) == lo.disk_bytes("udf", PAY_ONE_B)

    def test_measured_disk_overrides_formula(self):
        stats = seeded_stats()
        stats.get("udf").disk_bytes["<-FullOne"] = 12345
        model = CostModel(stats)
        assert model.disk_bytes("udf", FULL_ONE_B) == 12345

    def test_codec_sampled_bytes_shrink_full_estimates(self):
        """Sampled interval-coded footprints (e.g. convolution lineage at
        ~2 bytes/cell) must flow into the Full estimates in place of the
        flat enc_cell_bytes constant."""
        flat = CostModel(seeded_stats(fanin=25))
        sampled_stats = seeded_stats(fanin=25)
        s = sampled_stats.get("udf")
        s.enc_in_bytes = 2 * s.n_incells  # codec-priced: ~2 bytes per cell
        sampled = CostModel(sampled_stats)
        for strategy in (FULL_ONE_B, FULL_MANY_B):
            assert sampled.disk_bytes("udf", strategy) < flat.disk_bytes(
                "udf", strategy
            )
        # forward stores encode output cells; input-side sampling alone
        # must not change them
        assert sampled.disk_bytes("udf", FULL_ONE_F) == flat.disk_bytes(
            "udf", FULL_ONE_F
        )

    def test_record_sink_prices_contiguous_lineage_below_constant(self):
        """record_sink with shapes prices pairs through int_array_nbytes;
        contiguous regions interval-code far below 9 bytes/cell."""
        from repro.core.model import BufferSink, RegionPair

        shape = (32, 32)
        sink = BufferSink()
        for row in range(8):
            block = np.stack(
                [np.full(32, row, dtype=np.int64), np.arange(32, dtype=np.int64)],
                axis=1,
            )
            sink.add_pair(RegionPair(outcells=block[:1], incells=(block,)))
        stats = StatsCollector()
        stats.record_sink("conv", sink, out_shape=shape, in_shapes=(shape,))
        s = stats.get("conv")
        assert s.enc_in_bytes > 0
        assert s.enc_in_bytes_per_cell < 2.0  # 32-cell runs: ~0.5 bytes/cell
        assert s.enc_out_bytes_per_cell == 12.0  # singleton layout per pair
        # a later shape-less record_sink overwrites the denominators; the
        # codec samples must reset rather than describe the previous sink
        stats.record_sink("conv", sink)
        assert stats.get("conv").enc_in_bytes == 0
        assert stats.get("conv").enc_in_bytes_per_cell is None

    def test_matched_query_cheaper_than_mismatched(self):
        model = CostModel(seeded_stats())
        matched = model.query_seconds("udf", FULL_ONE_B, True, 100)
        mismatched = model.query_seconds("udf", FULL_ONE_B, False, 100)
        assert matched < mismatched

    def test_blackbox_query_cost_tracks_compute(self):
        model = CostModel(seeded_stats())
        assert model.query_seconds("udf", BLACKBOX, True, 10) >= 0.2

    def test_observed_query_time_preferred(self):
        stats = seeded_stats()
        model = CostModel(stats)
        model.record_observation("udf", FULL_ONE_B, True, 42.0)
        assert model.query_seconds("udf", FULL_ONE_B, True, 100) == 42.0

    def test_require_profiled(self):
        model = CostModel(StatsCollector())
        with pytest.raises(OptimizationError):
            model.require_profiled("ghost")


class TestWorkloadProfile:
    def test_weights_normalised(self):
        q1 = QueryRequest.backward([(0, 0)], (("a", 0), ("b", 0)))
        q2 = QueryRequest.forward([(0, 0)], (("a", 0),))
        # explicit paths need no spec to resolve
        profile = WorkloadProfile.from_queries([q1, q2], spec=None)
        assert profile.weights["a"][Direction.BACKWARD] == 0.5
        assert profile.weights["a"][Direction.FORWARD] == 0.5
        assert profile.weights["b"][Direction.BACKWARD] == 0.5

    def test_weighted_queries(self):
        q = QueryRequest.backward([(0, 0)], (("a", 0),))
        profile = WorkloadProfile.from_queries([(q, 3.0)], spec=None)
        assert profile.weights["a"][Direction.BACKWARD] == 1.0

    def test_endpoint_requests_resolve_through_spec(self):
        spec = build_spot_spec()
        path = (("scale", 0), ("spot", 0), ("smooth", 0))
        by_path = WorkloadProfile.from_queries(
            [QueryRequest.backward([(1, 1)], path)], spec
        )
        by_endpoints = WorkloadProfile.from_queries(
            [QueryRequest.backward([(1, 1)], start="scale", end="img")], spec
        )
        assert by_endpoints.weights == by_path.weights
        assert set(by_path.weights) == {"scale", "spot", "smooth"}


class TestCandidateStrategies:
    def test_spot_udf_candidates(self):
        labels = {s.label for s in candidate_strategies(SpotUDF())}
        assert "<-FullOne" in labels and "->FullOne" in labels
        assert "<-PayOne" in labels and "<-CompOne" in labels
        assert "Map" not in labels
        assert "Blackbox" in labels


def _optimize(stats, directions, max_disk, pinned=None, max_run=None):
    model = CostModel(stats)
    optimizer = StrategyOptimizer(model)
    profile = WorkloadProfile(
        weights={"udf": directions}, cells=100.0
    )
    return optimizer.optimize(
        {"udf": SpotUDF(name="udf")},
        profile,
        max_disk_bytes=max_disk,
        max_runtime_seconds=max_run,
        pinned=pinned,
    )


class TestStrategyOptimizer:
    def test_tiny_budget_means_blackbox(self):
        result = _optimize(seeded_stats(), {Direction.BACKWARD: 1.0}, max_disk=10)
        stored = [s for s in result.plan["udf"] if s.stores_pairs]
        assert stored == []
        assert BLACKBOX in result.plan["udf"]

    def test_big_budget_materialises(self):
        result = _optimize(seeded_stats(), {Direction.BACKWARD: 1.0}, max_disk=1e9)
        stored = [s for s in result.plan["udf"] if s.stores_pairs]
        assert stored, result.describe()
        assert result.est_query_seconds < 0.2  # better than re-execution

    def test_forward_workload_picks_forward_index(self):
        result = _optimize(seeded_stats(), {Direction.FORWARD: 1.0}, max_disk=1e9)
        stored = [s for s in result.plan["udf"] if s.stores_pairs]
        assert any(s.label == "->FullOne" or s.label == "->FullMany" for s in stored)

    def test_backward_only_prunes_forward_stores(self):
        result = _optimize(seeded_stats(), {Direction.BACKWARD: 1.0}, max_disk=1e9)
        assert all(s.label not in ("->FullOne", "->FullMany") for s in result.plan["udf"])

    def test_disk_constraint_respected(self):
        stats = seeded_stats(n_pairs=10000, fanin=10)
        model = CostModel(stats)
        for budget in (1e3, 1e5, 1e7):
            result = _optimize(stats, {Direction.BACKWARD: 1.0}, max_disk=budget)
            used = sum(
                model.disk_bytes("udf", s) for s in result.plan["udf"]
            )
            assert used <= budget * 1.001

    def test_runtime_constraint_respected(self):
        stats = seeded_stats(n_pairs=100000, fanin=10)
        model = CostModel(stats)
        result = _optimize(
            stats, {Direction.BACKWARD: 1.0}, max_disk=1e9, max_run=1e-6
        )
        used = sum(model.write_seconds("udf", s) for s in result.plan["udf"])
        assert used <= 1e-6 * 1.001

    def test_pinned_strategy_kept(self):
        result = _optimize(
            seeded_stats(),
            {Direction.BACKWARD: 1.0},
            max_disk=1e9,
            pinned={"udf": [PAY_ONE_B]},
        )
        assert PAY_ONE_B in result.plan["udf"]

    def test_greedy_fallback_matches_constraints(self):
        stats = seeded_stats()
        model = CostModel(stats)
        optimizer = StrategyOptimizer(model)
        profile = WorkloadProfile(weights={"udf": {Direction.BACKWARD: 1.0}})
        plan = optimizer._solve_greedy(
            ["udf"],
            {"udf": candidate_strategies(SpotUDF(name="udf"))},
            {"udf": []},
            profile,
            max_disk=1e9,
            max_run=None,
        )
        assert plan["udf"]
        used = sum(model.disk_bytes("udf", s) for s in plan["udf"])
        assert used <= 1e9

    @given(
        budget=st.floats(min_value=1e2, max_value=1e8),
        fanin=st.integers(1, 50),
        n_pairs=st.integers(10, 20000),
    )
    @settings(max_examples=25, deadline=None)
    def test_optimizer_never_violates_budget(self, budget, fanin, n_pairs):
        stats = seeded_stats(n_pairs=n_pairs, fanin=fanin)
        model = CostModel(stats)
        result = _optimize(
            stats,
            {Direction.BACKWARD: 0.5, Direction.FORWARD: 0.5},
            max_disk=budget,
        )
        used = sum(model.disk_bytes("udf", s) for s in result.plan["udf"])
        assert used <= budget * 1.001
        assert result.plan["udf"]  # always at least one strategy


class TestEndToEndOptimize:
    def test_subzero_optimize_roundtrip(self, rng):
        image = SciArray.from_numpy(rng.random((16, 16)))
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.profile({"img": image})
        queries = [
            QueryRequest.backward([(4, 4)], (("scale", 0), ("spot", 0), ("smooth", 0)))
        ]
        result = sz.optimize(queries, max_disk_bytes=10e6)
        assert "spot" in result.plan
        # the plan is applied and a re-run materialises it
        sz.run({"img": image})
        res = sz.backward_query([(4, 4)], [("scale", 0), ("spot", 0), ("smooth", 0)])
        assert res.count > 0

    def test_optimize_requires_profiling(self, rng):
        sz = SubZero(build_spot_spec())
        with pytest.raises(OptimizationError):
            sz.optimize([], max_disk_bytes=1e6)
