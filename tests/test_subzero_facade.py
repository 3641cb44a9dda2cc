"""Tests for the SubZero facade: strategy plumbing, accounting, re-runs."""

import pytest

from repro import (
    BLACKBOX,
    COMP_ONE_B,
    FULL_ONE_B,
    MAP,
    SciArray,
    SubZero,
    VersionStore,
)
from repro.core.query import QueryRequest
from repro.errors import QueryError, WorkflowError
from tests.conftest import build_spot_spec


@pytest.fixture
def image(rng):
    return SciArray.from_numpy(rng.random((14, 16)))


class TestStrategyManagement:
    def test_unknown_node_rejected(self):
        sz = SubZero(build_spot_spec())
        with pytest.raises(WorkflowError):
            sz.set_strategy("nope", FULL_ONE_B)

    def test_use_mapping_where_possible(self):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        strategies = sz.strategies()
        assert strategies["smooth"] == (MAP,)
        assert strategies["scale"] == (MAP,)
        assert "spot" not in strategies  # SpotUDF has no mapping functions

    def test_use_mapping_idempotent(self):
        sz = SubZero(build_spot_spec())
        sz.use_mapping_where_possible()
        sz.use_mapping_where_possible()
        assert sz.strategies()["smooth"] == (MAP,)

    def test_apply_plan(self):
        sz = SubZero(build_spot_spec())
        sz.apply_plan({"spot": [FULL_ONE_B, BLACKBOX]})
        assert sz.strategies()["spot"] == (FULL_ONE_B, BLACKBOX)


class TestRunAndAccounting:
    def test_accounting_before_run_is_zero(self):
        sz = SubZero(build_spot_spec())
        assert sz.lineage_disk_bytes() == 0
        assert sz.workflow_seconds() == 0.0
        assert sz.input_bytes() == 0
        assert sz.base_storage_bytes() == 0

    def test_accounting_after_run(self, image):
        sz = SubZero(build_spot_spec())
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        assert sz.lineage_disk_bytes() > 0
        assert sz.workflow_seconds() > 0
        assert sz.input_bytes() == image.nbytes
        # base storage: input + 3 node outputs
        assert sz.base_storage_bytes() == 4 * image.nbytes

    def test_rerun_rebuilds_stores(self, image):
        sz = SubZero(build_spot_spec())
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        first = sz.lineage_disk_bytes()
        sz.set_strategy("spot", COMP_ONE_B)
        sz.run({"img": image})
        second = sz.lineage_disk_bytes()
        assert second < first  # composite stores only the bright cells

    def test_wal_accumulates_across_runs(self, image):
        sz = SubZero(build_spot_spec())
        sz.run({"img": image})
        sz.run({"img": image})
        assert len(sz.wal) == 2 * 3

    def test_queries_require_run(self):
        sz = SubZero(build_spot_spec())
        with pytest.raises(QueryError):
            sz.forward_query([(0, 0)], [("smooth", 0)])

    def test_profile_then_query_works(self, image):
        sz = SubZero(build_spot_spec())
        sz.profile({"img": image})
        res = sz.backward_query([(3, 3)], [("spot", 0)])
        assert res.count >= 1  # served by re-execution

    def test_external_version_store(self, image):
        from repro import VersionStore

        store = VersionStore()
        sz = SubZero(build_spot_spec())
        sz.run({"img": image}, version_store=store)
        assert len(store) == 4


class TestServingSurface:
    def _served(self, image, tmp_path, budget=None):
        """A fresh engine resumed over a flushed catalog (no resident store)."""
        versions = VersionStore()
        sz = SubZero(build_spot_spec(), enable_query_opt=False)
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image}, version_store=versions)
        directory = str(tmp_path / "lineage")
        sz.flush_lineage(directory)
        served = SubZero(build_spot_spec(), enable_query_opt=False, memory_budget_bytes=budget)
        served.resume(versions, wal=sz.wal, lineage_dir=directory)
        sz.close()
        return served

    def test_session_pins_catalog_stores_until_closed(self, image, tmp_path):
        sz = self._served(image, tmp_path, budget=1)
        request = QueryRequest.backward([(3, 3), (8, 9)], ["spot"])
        alone = sz.query(request).coords.tolist()
        with sz.session() as session:
            assert sz.query(request, session=session).coords.tolist() == alone
            # over a 1-byte budget only the pin keeps the store mapped
            assert sz.runtime.serving_stats()["open_mappings"] == 1
            assert sz.query(request, session=session).coords.tolist() == alone
        assert sz.runtime.serving_stats()["open_mappings"] == 0
        with pytest.raises(QueryError):
            session.store_for("spot", FULL_ONE_B)
        sz.close()

    def test_session_needs_a_runtime(self):
        with pytest.raises(QueryError):
            SubZero(build_spot_spec()).session()

    def test_stop_maintenance_joins_the_worker(self, image, tmp_path):
        sz = self._served(image, tmp_path)
        worker = sz.start_maintenance(interval_s=0.01)
        assert worker.running
        sz.stop_maintenance()
        assert not worker.running
        sz.stop_maintenance()  # nothing left to stop
        sz.close()
