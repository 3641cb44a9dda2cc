"""Tests for the convenience/robustness extensions: path inference,
query explain, cost calibration, stats persistence, and WAL recovery."""

import pytest

from repro import FULL_ONE_B, SciArray, SubZero, VersionStore, WorkflowSpec, ops
from repro.core.costmodel import CostConstants
from repro.core.runtime import LineageRuntime
from repro.core.stats import StatsCollector
from repro.errors import WorkflowError
from repro.storage.wal import WriteAheadLog
from repro.workflow.executor import execute_workflow
from repro.workflow.recovery import recover_instance
from tests.conftest import build_spot_spec


@pytest.fixture
def image(rng):
    return SciArray.from_numpy(rng.random((12, 14)))


class TestPathInference:
    def test_chain_path(self):
        spec = build_spot_spec()
        path = spec.lineage_path("scale", "img")
        assert path == [("scale", 0), ("spot", 0), ("smooth", 0)]

    def test_partial_path(self):
        spec = build_spot_spec()
        assert spec.lineage_path("scale", "smooth") == [("scale", 0), ("spot", 0)]

    def test_multi_input_takes_shortest(self):
        spec = WorkflowSpec(name="diamond")
        spec.add_source("a")
        spec.add_node("left", ops.Scale(1.0), ["a"])
        spec.add_node("l2", ops.Scale(2.0), ["left"])
        spec.add_node("right", ops.Scale(3.0), ["a"])
        spec.add_node("join", ops.Add(), ["l2", "right"])
        path = spec.lineage_path("join", "a")
        assert path == [("join", 1), ("right", 0)]  # two hops beat three

    def test_no_path(self):
        spec = WorkflowSpec(name="forked")
        spec.add_source("a")
        spec.add_source("b")
        spec.add_node("na", ops.Scale(1.0), ["a"])
        spec.add_node("nb", ops.Scale(1.0), ["b"])
        with pytest.raises(WorkflowError):
            spec.lineage_path("na", "b")

    def test_unknown_names(self):
        spec = build_spot_spec()
        with pytest.raises(WorkflowError):
            spec.lineage_path("ghost", "img")
        with pytest.raises(WorkflowError):
            spec.lineage_path("scale", "ghost")

    def test_trace_back_and_forward_agree_with_manual(self, image):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.run({"img": image})
        auto = sz.trace_back([(4, 4)], "scale", "img")
        manual = sz.backward_query(
            [(4, 4)], [("scale", 0), ("spot", 0), ("smooth", 0)]
        )
        assert {tuple(c) for c in auto.coords} == {tuple(c) for c in manual.coords}
        fwd = sz.trace_forward([(4, 4)], "img", "scale")
        assert (4, 4) in {tuple(c) for c in fwd.coords} or fwd.count > 0


class TestExplain:
    def test_explain_lists_steps(self, image):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        result = sz.trace_back([(4, 4)], "scale", "img")
        text = result.explain()
        assert "3 steps" in text
        assert "<-FullOne" in text
        assert "scale" in text and "smooth" in text
        assert "ms" in text


class TestCalibration:
    def test_calibrate_returns_positive_constants(self):
        constants = CostConstants.calibrate(n=5000)
        assert constants.hash_probe_s > 0
        assert constants.rtree_probe_s > 0
        assert constants.scan_entry_s > 0
        assert constants.map_cell_s > 0

    def test_calibrated_constants_usable(self, image):
        constants = CostConstants.calibrate(n=5000)
        sz = SubZero(build_spot_spec(), constants=constants)
        sz.use_mapping_where_possible()
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        res = sz.backward_query([(3, 3)], [("spot", 0)])
        assert res.count >= 1


class TestStatsPersistence:
    def test_save_load_roundtrip(self, tmp_path, image):
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_ONE_B)
        execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        path = str(tmp_path / "stats.json")
        runtime.stats.save(path)
        loaded = StatsCollector.load(path)
        original = runtime.stats.get("spot")
        restored = loaded.get("spot")
        assert restored.n_pairs == original.n_pairs
        assert restored.disk_bytes == original.disk_bytes
        assert restored.input_sizes == original.input_sizes

    def test_loaded_stats_drive_optimizer(self, tmp_path, image):
        from repro.core.query import QueryRequest

        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.profile({"img": image})
        path = str(tmp_path / "stats.json")
        sz.stats.save(path)

        # a "later session": fresh facade with restored statistics
        sz2 = SubZero(build_spot_spec())
        sz2.use_mapping_where_possible()
        sz2.stats._stats = StatsCollector.load(path)._stats
        query = QueryRequest.backward([(3, 3)], (("scale", 0), ("spot", 0), ("smooth", 0)))
        result = sz2.optimize([query], max_disk_bytes=1e8)
        assert "spot" in result.plan


class TestWalRecovery:
    def _run(self, image):
        spec = build_spot_spec()
        versions = VersionStore()
        wal = WriteAheadLog()
        execute_workflow(spec, {"img": image}, version_store=versions, wal=wal)
        return spec, versions, wal

    def test_recovered_instance_serves_queries(self, image):
        spec, versions, wal = self._run(image)
        # "crash": keep only the durable artifacts, rebuild the instance
        fresh_spec = build_spot_spec()
        recovered = recover_instance(fresh_spec, versions, wal)
        assert recovered.output_array("scale").shape == image.shape

        from repro.core.query import QueryExecutor, QueryRequest

        executor = QueryExecutor(recovered, LineageRuntime())
        res = executor.execute_request(
            QueryRequest.backward([(4, 4)], [("scale", 0), ("spot", 0), ("smooth", 0)])
        )
        assert res.count >= 1

    def test_recovery_matches_original_lineage(self, image):
        spec, versions, wal = self._run(image)
        original = execute_workflow(
            build_spot_spec(), {"img": image}
        )
        from repro.core.query import QueryExecutor, QueryRequest

        request = QueryRequest.backward(
            [(4, 4)], [("scale", 0), ("spot", 0), ("smooth", 0)]
        )
        a = QueryExecutor(original, LineageRuntime()).execute_request(request)
        recovered = recover_instance(build_spot_spec(), versions, wal)
        b = QueryExecutor(recovered, LineageRuntime()).execute_request(request)
        assert {tuple(c) for c in a.coords} == {tuple(c) for c in b.coords}

    def test_partial_wal_rejected(self, image):
        spec, versions, wal = self._run(image)
        truncated = WriteAheadLog()
        for record in list(wal)[:-1]:
            truncated.append(record)
        with pytest.raises(WorkflowError):
            recover_instance(build_spot_spec(), versions, truncated)

    def test_missing_version_rejected(self, image):
        spec, versions, wal = self._run(image)
        with pytest.raises(WorkflowError):
            recover_instance(build_spot_spec(), VersionStore(), wal)

    def test_last_run_wins(self, image, rng):
        spec = build_spot_spec()
        versions = VersionStore()
        wal = WriteAheadLog()
        execute_workflow(spec, {"img": image}, version_store=versions, wal=wal)
        second = SciArray.from_numpy(rng.random((12, 14)))
        spec2 = build_spot_spec()
        execute_workflow(spec2, {"img": second}, version_store=versions, wal=wal)
        recovered = recover_instance(build_spot_spec(), versions, wal)
        assert recovered.source_array("img").allclose(second)
