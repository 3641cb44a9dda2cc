"""Persistence round-trips: lineage stores survive a process restart.

Region lineage is a rebuildable cache (§VI-A), but flushing it avoids the
rebuild: a store flushed to disk and loaded in a fresh runtime must answer
every query identically.
"""

import numpy as np
import pytest

from repro import (
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    PAY_MANY_B,
    PAY_ONE_B,
    SciArray,
)
from repro.arrays import coords as C
from repro.core.lineage_store import RegionEntryTable, make_store
from repro.core.model import BufferSink, ElementwiseBatch, PayloadBatch, RegionPair
from repro.core.runtime import LineageRuntime
from repro.workflow.executor import execute_workflow
from tests.conftest import build_spot_spec

SHAPE = (8, 10)


def cells(*coords):
    return np.asarray(coords, dtype=np.int64)


def populated_sink():
    sink = BufferSink()
    sink.add_pair(
        RegionPair(outcells=cells((0, 0), (0, 1)), incells=(cells((2, 2), (3, 3)),))
    )
    sink.add_elementwise(
        ElementwiseBatch(outcells=cells((5, 5), (6, 6)), incells=(cells((5, 5), (6, 6)),))
    )
    return sink


def payload_sink():
    sink = BufferSink()
    sink.add_pair(RegionPair(outcells=cells((1, 1), (1, 2)), payload=b"PP"))
    sink.add_payload_batch(
        PayloadBatch(outcells=cells((4, 4)), payloads=np.asarray([[7]], dtype=np.uint8))
    )
    return sink


class TestRegionEntryTableRoundtrip:
    def test_flush_load(self, tmp_path):
        table = RegionEntryTable(SHAPE)
        table.add_entry(C.pack_coords(cells((0, 0), (0, 3)), SHAPE), b"v0")
        table.add_entry(C.pack_coords(cells((5, 5)), SHAPE), b"v1")
        path = str(tmp_path / "table.bin")
        written = table.flush(path)
        assert written > 0
        loaded = RegionEntryTable.load(path, SHAPE)
        assert loaded.n_entries == 2
        assert loaded.entry_value(0) == b"v0"
        assert (loaded.entry_keys(0) == table.entry_keys(0)).all()
        # the R-tree was rebuilt
        assert len(loaded.candidate_entries(cells((5, 5)))) == 1

    def test_empty_roundtrip(self, tmp_path):
        table = RegionEntryTable(SHAPE)
        path = str(tmp_path / "empty.bin")
        table.flush(path)
        assert RegionEntryTable.load(path, SHAPE).n_entries == 0

    def test_pre_codec_flushed_values_still_load_and_probe(self, tmp_path):
        """A table flushed before the codec subsystem existed holds only
        legacy delta-tagged values; loading must decode them and the new
        in-situ probes must answer over them unchanged."""
        from repro.storage import codecs

        in_cells = np.sort(C.pack_coords(cells((2, 2), (2, 3), (2, 4)), SHAPE))
        legacy_value = codecs.DELTA.encode(in_cells)  # the only seed format
        table = RegionEntryTable(SHAPE)
        table.add_entry(C.pack_coords(cells((0, 0), (0, 1)), SHAPE), legacy_value)
        path = str(tmp_path / "legacy.bin")
        table.flush(path)

        loaded = RegionEntryTable.load(path, SHAPE)
        assert loaded.entry_value(0) == legacy_value
        decoded, _ = codecs.decode_cells(loaded.entry_value(0))
        assert (decoded == in_cells).all()
        assert loaded.value_contains_any(0, in_cells[:1])
        assert loaded.value_bounds(0) == (int(in_cells[0]), int(in_cells[-1]), 3)


@pytest.mark.parametrize(
    "strategy",
    [FULL_ONE_B, FULL_ONE_F, FULL_MANY_B, FULL_MANY_F],
    ids=lambda s: s.label,
)
def test_full_store_roundtrip(tmp_path, strategy):
    store = make_store("n", strategy, SHAPE, (SHAPE,))
    store.ingest(populated_sink())
    store.flush_segment(str(tmp_path / "store.seg"))

    clone = make_store("n", strategy, SHAPE, (SHAPE,))
    clone.load_segment(str(tmp_path / "store.seg"))
    q_out = C.pack_coords(cells((0, 0), (5, 5)), SHAPE)
    q_in = C.pack_coords(cells((2, 2), (6, 6)), SHAPE)
    if strategy.orientation.value == "backward":
        a = store.backward_full(q_out)
        b = clone.backward_full(q_out)
        assert (a[0] == b[0]).all()
        assert set(a[1][0].tolist()) == set(b[1][0].tolist())
    else:
        assert set(store.forward_full(q_in, 0).tolist()) == set(
            clone.forward_full(q_in, 0).tolist()
        )


@pytest.mark.parametrize("strategy", [PAY_ONE_B, PAY_MANY_B], ids=lambda s: s.label)
def test_payload_store_roundtrip(tmp_path, strategy):
    store = make_store("n", strategy, SHAPE, (SHAPE,))
    store.ingest(payload_sink())
    store.flush_segment(str(tmp_path / "store.seg"))
    clone = make_store("n", strategy, SHAPE, (SHAPE,))
    clone.load_segment(str(tmp_path / "store.seg"))
    q = C.pack_coords(cells((1, 2), (4, 4)), SHAPE)
    a_matched, a_hits, a_payloads = store.backward_payload_rows(q)
    b_matched, b_hits, b_payloads = clone.backward_payload_rows(q)
    assert (a_matched == b_matched).all()
    assert sorted(zip(a_hits.tolist(), a_payloads)) == sorted(zip(b_hits.tolist(), b_payloads))


class TestRuntimeFlushAll:
    def test_manifest_roundtrip_answers_queries(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((16, 18)))
        runtime = LineageRuntime()
        runtime.set_strategies("spot", [FULL_ONE_B, PAY_ONE_B])
        instance = execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        out_shape = instance.output_shape("spot")
        q = C.pack_coords(cells((3, 3), (7, 7)), out_shape)
        original = runtime.store_for("spot", FULL_ONE_B).backward_full(q)

        written = runtime.flush_all(str(tmp_path))
        assert written > 0
        assert (tmp_path / "catalog.json").exists()
        # one single-file segment per store
        assert len(list(tmp_path.glob("*.seg"))) == 2

        fresh = LineageRuntime()
        loaded = fresh.load_all(str(tmp_path))
        assert loaded == 2
        assert FULL_ONE_B in fresh.strategies_for("spot")
        # lazy-open: attaching the catalog materialises nothing...
        assert fresh.catalog.stats()["open_mappings"] == 0
        restored = fresh.store_for("spot", FULL_ONE_B).backward_full(q)
        # ...and the first query opened exactly the store it needed
        assert fresh.catalog.stats()["open_mappings"] == 1
        assert (original[0] == restored[0]).all()
        assert set(original[1][0].tolist()) == set(restored[1][0].tolist())

    def test_flush_bytes_close_to_disk_accounting(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((16, 18)))
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_ONE_B)
        execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        written = runtime.flush_all(str(tmp_path))
        accounted = runtime.total_disk_bytes()
        # the segment carries the logical store bytes plus derived serving
        # structures (section table, persisted lowered batch-scan tables)
        # whose fixed framing dominates only on stores this small
        assert written >= accounted * 0.7
        assert written <= accounted * 2.0 + 16384

    def test_loaded_catalog_accounts_from_manifest(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((16, 18)))
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_ONE_B)
        execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        runtime.flush_all(str(tmp_path))
        fresh = LineageRuntime()
        fresh.load_all(str(tmp_path))
        # accounting answers from the manifest without opening any segment
        before = fresh.total_disk_bytes()
        assert before > 0
        assert fresh.disk_bytes_by_node().get("spot", 0) > 0
        assert fresh.catalog.stats()["open_mappings"] == 0
        # ...and does not drift when queries lazily open stores
        fresh.store_for("spot", FULL_ONE_B)
        assert fresh.catalog.stats()["open_mappings"] == 1
        assert fresh.total_disk_bytes() == before
