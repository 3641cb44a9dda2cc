"""Partitioned catalog + scatter-gather serving (:mod:`repro.storage.partition`).

Five contracts under test:

* equivalence — a Hypothesis property asserts a partitioned catalog
  answers every backward/forward/matched/mismatched query *identically*
  to the monolithic flush of the same stores, for all four Full
  strategies and both hash and explicit node assignment (the partition
  merge rides the same :class:`~repro.core.overlay.OverlayStore` union as
  generations, so equality is structural, not approximate);
* targeted routing — a mapped node's read probes only its owning
  partition (counter-asserted against every other partition's open
  count), while unmapped nodes broadcast;
* failure isolation — a torn partition (corrupt child manifest) degrades
  only its own nodes; recovery quarantines it in the root manifest and
  every other partition keeps serving;
* per-partition compaction — parallel compaction across partitions
  reclaims the same bytes and leaves the same answers as sequential,
  and a node-targeted sweep touches only the owning partition;
* facade threading — ``flush_lineage(partitions=N)`` →
  ``load_lineage`` auto-detection → scatter-planned queries round-trip
  through the :class:`~repro.core.subzero.SubZero` API.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro import FULL_ONE_B, PAY_ONE_B, SciArray
from repro.core.catalog import StoreCatalog
from repro.core.lineage_store import make_store
from repro.core.overlay import OverlayStore
from repro.core.query import QueryRequest
from repro.core.runtime import LineageRuntime
from repro.core.subzero import SubZero
from repro.errors import LineageError, StorageError
from repro.storage.partition import (
    PARTITIONS_MANIFEST,
    PartitionedCatalog,
    assign_partition,
    is_partitioned_root,
)
from repro.workflow.recovery import recover_lineage
from tests.conftest import build_spot_spec
from tests.test_segments import ALL_FULL, SHAPE, _answers, sinks

NODES = ["alpha", "beta", "gamma", "delta"]


def _fixed_sink(seed=0):
    """A small deterministic sink + query for the non-property tests
    (the Hypothesis property owns the randomised coverage)."""
    from repro.arrays import coords as C
    from repro.core.model import BufferSink, RegionPair

    gen = np.random.default_rng(seed)
    sink = BufferSink()
    size = SHAPE[0] * SHAPE[1]
    for _ in range(3):
        outs = np.unique(gen.integers(0, size, 3).astype(np.int64))
        ins = np.unique(gen.integers(0, size, 5).astype(np.int64))
        sink.add_pair(
            RegionPair(
                outcells=C.unpack_coords(outs, SHAPE),
                incells=(C.unpack_coords(ins, SHAPE),),
            )
        )
    query = np.unique(gen.integers(0, size, 6).astype(np.int64))
    return sink, query


def _filled_stores(strategy, sink):
    """The same sink ingested under every test node — distinct store
    objects (stores are single-owner), identical lineage."""
    stores = {}
    for node in NODES:
        store = make_store(node, strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        stores[(node, strategy)] = store
    return stores


# -- partitioned ≡ monolithic (Hypothesis property) ---------------------------


class TestEquivalenceProperty:
    @pytest.mark.parametrize("strategy", ALL_FULL, ids=lambda s: s.label)
    @given(case=sinks())
    @settings(max_examples=10, deadline=None)
    def test_partitioned_answers_equal_monolith(
        self, strategy, case, tmp_path_factory
    ):
        sink, query = case
        base = tmp_path_factory.mktemp("equiv")
        mono_dir, part_dir = str(base / "mono"), str(base / "part")

        mono, _ = StoreCatalog.write(mono_dir, _filled_stores(strategy, sink))
        part, _ = PartitionedCatalog.write(
            part_dir, _filled_stores(strategy, sink), partitions=3
        )
        try:
            assert is_partitioned_root(part_dir)
            assert sorted(part.keys()) == sorted(mono.keys())
            for node in NODES:
                m = mono.borrow(node, strategy)
                p = part.borrow(node, strategy)
                try:
                    assert _answers(p.store, strategy, query) == _answers(
                        m.store, strategy, query
                    )
                finally:
                    mono.release(m)
                    part.release(p)
        finally:
            mono.close()
            part.close()

    @given(case=sinks())
    @settings(max_examples=10, deadline=None)
    def test_explicit_assignment_equals_hash(self, case, tmp_path_factory):
        sink, query = case
        strategy = ALL_FULL[0]
        base = tmp_path_factory.mktemp("explicit")
        mapping = {"alpha": "hot", "beta": "hot", "gamma": "cold", "delta": "cold"}
        part, _ = PartitionedCatalog.write(
            str(base / "p"), _filled_stores(strategy, sink), partitions=mapping
        )
        mono, _ = StoreCatalog.write(
            str(base / "m"), _filled_stores(strategy, sink)
        )
        try:
            assert sorted(part.partition_ids()) == ["cold", "hot"]
            assert part.partition_for_node("beta") == "hot"
            for node in NODES:
                p = part.borrow(node, strategy)
                m = mono.borrow(node, strategy)
                try:
                    assert _answers(p.store, strategy, query) == _answers(
                        m.store, strategy, query
                    )
                finally:
                    part.release(p)
                    mono.release(m)
        finally:
            part.close()
            mono.close()


# -- targeted routing (counter-asserted) --------------------------------------


class TestScatterRouting:
    def _four_way(self, tmp_path, strategy=FULL_ONE_B):
        sink, _ = _fixed_sink()
        mapping = {node: f"p{i}" for i, node in enumerate(NODES)}
        part, _ = PartitionedCatalog.write(
            str(tmp_path / "part"),
            _filled_stores(strategy, sink),
            partitions=mapping,
        )
        return part

    def test_targeted_read_probes_only_owner(self, tmp_path):
        part = self._four_way(tmp_path)
        try:
            assert len(part.partition_ids()) == 4
            owner = part.partition_for_node("beta")
            record = part.borrow("beta", FULL_ONE_B)
            assert record is not None
            part.release(record)
            probes = part.probes_by_partition()
            assert probes[owner] == 1
            for pid in part.partition_ids():
                if pid != owner:
                    assert probes[pid] == 0, f"partition {pid} was probed"
                    # the decisive counter: no store was ever opened there
                    assert part.partition(pid).open_count() == 0
            stats = part.stats()
            assert stats["targeted_probes"] == 1
            assert stats["broadcast_probes"] == 0
        finally:
            part.close()

    def test_unmapped_node_broadcasts(self, tmp_path):
        part = self._four_way(tmp_path)
        try:
            assert part.partition_for_node("nope") is None
            assert part.partition_fanout("nope") == 4
            assert part.borrow("nope", FULL_ONE_B) is None
            assert part.stats()["broadcast_probes"] == 4
        finally:
            part.close()

    def test_multi_partition_key_merges_via_overlay(self, tmp_path):
        # force one key into two partitions by writing it under both
        # explicit ids, then borrowing through a map that no longer
        # covers it — the union must be an overlay of both partitions
        sink, query = _fixed_sink()
        strategy = FULL_ONE_B
        stores = {}
        for node in ("dup", "other"):
            store = make_store(node, strategy, SHAPE, (SHAPE,))
            store.ingest(sink)
            stores[(node, strategy)] = store
        part, _ = PartitionedCatalog.write(
            str(tmp_path / "p"), stores, partitions={"dup": "a", "other": "b"}
        )
        part.close()
        # graft dup's segment into partition b as well, then drop the map
        # entry so reads broadcast and see both copies
        dup_store = make_store("dup", strategy, SHAPE, (SHAPE,))
        dup_store.ingest(sink)
        child = StoreCatalog.open(str(tmp_path / "p" / "b"))
        child.append_stores({("dup", strategy): dup_store})
        child.close()
        part = PartitionedCatalog.open(str(tmp_path / "p"))
        try:
            part._node_map.pop("dup")
            record = part.borrow("dup", strategy)
            assert isinstance(record.store, OverlayStore)
            assert record.store.sources == 2
            # duplicated lineage unions to the same *set* answer as one
            # copy (the union concatenates cell lists, so exact-duplicate
            # members repeat their cells — same contract as generations)
            solo = make_store("dup", strategy, SHAPE, (SHAPE,))
            solo.ingest(sink)
            got = _answers(record.store, strategy, query)
            want = _answers(solo, strategy, query)
            assert got[0] == want[0]  # verdicts OR-merge exactly
            assert [sorted(set(p)) for p in got[1]] == [
                sorted(set(p)) for p in want[1]
            ]
            assert sorted(set(got[2])) == sorted(set(want[2]))
            part.release(record)
        finally:
            part.close()

    def test_query_level_scatter_plan(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((16, 18)))
        sz = SubZero(build_spot_spec())
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        d = str(tmp_path / "cat")
        sz.flush_lineage(d, partitions=4)
        sz.load_lineage(d)
        try:
            targeted = QueryRequest.backward([(0, 0)], ["spot"])
            broadcast = QueryRequest.backward([(0, 0)], ["spot", "smooth"])
            # single-node path on a mapped node: targeted plan
            sz.query(targeted)
            stats = sz.runtime.serving_stats()
            assert stats["scatter_queries"] == 1
            assert stats["scatter_broadcasts"] == 0
            assert stats["scatter_partitions_matched"] == 1
            # path through an unflushed node: broadcast plan
            sz.query(broadcast)
            stats = sz.runtime.serving_stats()
            assert stats["scatter_queries"] == 2
            assert stats["scatter_broadcasts"] == 1
            # a served batch takes the same route, one plan per request
            sz.serve([targeted, broadcast], max_workers=2)
            stats = sz.runtime.serving_stats()
            assert stats["scatter_queries"] == 4
            assert stats["scatter_broadcasts"] == 2
        finally:
            sz.close()


# -- failure isolation ---------------------------------------------------------


class TestTornPartition:
    def _flushed(self, tmp_path, partitions=3):
        sink, query = _fixed_sink()
        strategy = FULL_ONE_B
        part, _ = PartitionedCatalog.write(
            str(tmp_path / "part"),
            _filled_stores(strategy, sink),
            partitions={node: f"p{i % partitions}" for i, node in enumerate(NODES)},
        )
        part.close()
        return str(tmp_path / "part"), strategy, query

    def test_torn_partition_degrades_only_its_nodes(self, tmp_path):
        directory, strategy, query = self._flushed(tmp_path)
        with open(os.path.join(directory, "p1", "catalog.json"), "w") as fh:
            fh.write("{ torn")
        part = PartitionedCatalog.open(directory)
        try:
            assert [pid for pid, _ in part.degraded] == ["p1"]
            assert part.stats()["partitions_degraded"] == 1
            for node in NODES:
                record = part.borrow(node, strategy)
                if part.partition_for_node(node) == "p1":
                    assert record is None  # degraded: no materialised lineage
                else:
                    assert record is not None  # everything else keeps serving
                    assert _answers(record.store, strategy, query) is not None
                    part.release(record)
        finally:
            part.close()

    def test_recovery_quarantines_torn_partition_persistently(self, tmp_path):
        directory, strategy, _query = self._flushed(tmp_path)
        with open(os.path.join(directory, "p2", "catalog.json"), "w") as fh:
            fh.write("not json")
        runtime = LineageRuntime()
        report = recover_lineage(directory, runtime=runtime)
        try:
            assert not report.ok
            assert report.quarantined_partitions == ["p2"]
            assert any(name.startswith("p2/") for name, _ in report.quarantined)
        finally:
            runtime.close()
        # the verdict persisted: a later plain load skips p2 silently
        fresh = LineageRuntime()
        fresh.load_all(directory)
        try:
            assert fresh.catalog.degraded == []
            assert fresh.catalog.stats()["partitions_degraded"] == 1
            assert fresh.catalog.partition("p2") is None
        finally:
            fresh.close()

    def test_corrupt_segment_quarantines_inside_its_partition(self, tmp_path):
        directory, strategy, _query = self._flushed(tmp_path)
        part = PartitionedCatalog.open(directory)
        victim_node = NODES[0]
        pid = part.partition_for_node(victim_node)
        entry = part.partition(pid).entry(victim_node, strategy)
        part.close()
        seg_path = os.path.join(directory, pid, entry.file)
        raw = bytearray(Path(seg_path).read_bytes())
        raw[-10] ^= 0xFF
        Path(seg_path).write_bytes(bytes(raw))

        report = recover_lineage(directory)
        try:
            assert report.quarantined_partitions == []  # partition survives
            assert [name for name, _ in report.quarantined] == [
                f"{pid}/{entry.file}"
            ]
            # the partition itself still serves its other nodes
            for node in NODES[1:]:
                if report.catalog.partition_for_node(node) == pid:
                    assert report.catalog.generation_count(node, strategy) >= 0
        finally:
            report.catalog.close()

    def test_append_to_quarantined_partition_rejected(self, tmp_path):
        directory, strategy, _query = self._flushed(tmp_path)
        part = PartitionedCatalog.open(directory)
        part.mark_quarantined("p0")
        victim = next(
            n for n in NODES if part.partition_for_node(n) == "p0"
        )
        store = make_store(victim, strategy, SHAPE, (SHAPE,))
        with pytest.raises(StorageError, match="quarantined"):
            part.append_stores({(victim, strategy): store})
        part.close()


# -- per-partition compaction ---------------------------------------------------


class TestPartitionCompaction:
    def _with_generations(self, tmp_path, n_appends=2):
        strategy = FULL_ONE_B
        first, query = _fixed_sink()
        directory = str(tmp_path / "part")
        part, _ = PartitionedCatalog.write(
            directory, _filled_stores(strategy, first), partitions=2
        )
        for _ in range(n_appends):
            delta, _ = _fixed_sink(seed=1 + _)
            part.append_stores(_filled_stores(strategy, delta))
        return part, directory, strategy, query

    def test_parallel_equals_sequential(self, tmp_path):
        part, directory, strategy, query = self._with_generations(tmp_path)
        try:
            gens_before = {
                n: part.generation_count(n, strategy) for n in NODES
            }
            assert all(g == 3 for g in gens_before.values())
            before = {}
            for node in NODES:
                record = part.borrow(node, strategy)
                before[node] = _answers(record.store, strategy, query)
                part.release(record)

            report = part.compact(parallel=2)
            assert len(report.compacted) == len(NODES)
            assert report.bytes_reclaimed > 0
            for node in NODES:
                assert part.generation_count(node, strategy) == 1
                record = part.borrow(node, strategy)
                assert _answers(record.store, strategy, query) == before[node]
                part.release(record)
        finally:
            part.close()

    def test_node_targeted_compaction_stays_in_owner(self, tmp_path):
        part, directory, strategy, _query = self._with_generations(tmp_path)
        try:
            node = NODES[0]
            owner = part.partition_for_node(node)
            report = part.compact(node=node)
            assert [key[0] for key in report.compacted] == [node]
            # only the owner merged; every other node still has its deltas
            for other in NODES[1:]:
                if part.partition_for_node(other) != owner:
                    assert part.generation_count(other, strategy) == 3
        finally:
            part.close()


# -- facade threading -----------------------------------------------------------


class TestSubZeroPartitioned:
    def test_flush_load_roundtrip(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((16, 18)))
        sz = SubZero(build_spot_spec())
        sz.set_strategy("spot", FULL_ONE_B, PAY_ONE_B)
        sz.run({"img": image})
        mono_dir, part_dir = str(tmp_path / "mono"), str(tmp_path / "part")
        sz.flush_lineage(mono_dir)
        sz.flush_lineage(part_dir, partitions=2)
        req = QueryRequest.backward([(2, 2), (3, 3)], ["spot", "smooth"])
        want = sz.query(req).coords.tolist()

        loaded = SubZero(build_spot_spec())
        loaded.run({"img": image})
        loaded.runtime.clear_stores()  # serve from the catalog, not memory
        loaded.load_lineage(part_dir)
        try:
            assert isinstance(loaded.runtime.catalog, PartitionedCatalog)
            assert loaded.query(req).coords.tolist() == want
            report = loaded.compact_lineage(parallel=2)
            assert report.compacted == []  # single-generation: nothing to merge
        finally:
            loaded.close()

    def test_runtime_reads_and_accounts_through_the_root(self, tmp_path):
        sink, query = _fixed_sink()
        written = _filled_stores(FULL_ONE_B, sink)
        part_dir = str(tmp_path / "p")
        part, _ = PartitionedCatalog.write(part_dir, written, partitions=2)
        part.close()
        runtime = LineageRuntime()
        runtime.load_all(part_dir)
        try:
            for node in NODES:
                store = runtime.store_for(node, FULL_ONE_B)
                matched, per_input = store.backward_full(query)
                want_matched, want = written[(node, FULL_ONE_B)].backward_full(query)
                assert matched.tolist() == want_matched.tolist()
                assert sorted(per_input[0].tolist()) == sorted(want[0].tolist())
            assert runtime.store_for("nope", FULL_ONE_B) is None
            on_disk = sum(
                os.path.getsize(os.path.join(root, name))
                for root, _, names in os.walk(part_dir)
                for name in names
                if name.endswith(".seg")
            )
            assert runtime.total_disk_bytes() == on_disk
            by_node = runtime.disk_bytes_by_node()
            assert sorted(by_node) == sorted(NODES)
            assert sum(by_node.values()) == on_disk
        finally:
            runtime.close()

    def test_append_then_partitions_rejected(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((16, 18)))
        sz = SubZero(build_spot_spec())
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        d = str(tmp_path / "cat")
        sz.flush_lineage(d, partitions=2)
        with pytest.raises(LineageError, match="re-partition"):
            sz.flush_lineage(d, append=True, partitions=4)
        sz.close()

    def test_incremental_append_routes_to_partitions(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((16, 18)))
        sz = SubZero(build_spot_spec())
        sz.set_strategy("spot", FULL_ONE_B)
        sz.run({"img": image})
        d = str(tmp_path / "cat")
        sz.flush_lineage(d, partitions=2)
        sz.flush_lineage(d, append=True)  # cold append to a partitioned root
        sz.close()
        runtime = LineageRuntime()
        runtime.load_all(d)
        try:
            assert runtime.catalog.generation_count("spot", FULL_ONE_B) == 2
        finally:
            runtime.close()


# -- manifest hygiene ------------------------------------------------------------


class TestRootManifest:
    def test_stable_hash_assignment(self):
        ids = ["p0", "p1", "p2"]
        for node in NODES:
            assert assign_partition(node, ids) == assign_partition(node, ids)
        with pytest.raises(StorageError):
            assign_partition("x", [])

    def test_newer_version_rejected(self, tmp_path):
        sink, _ = _fixed_sink()
        part, _ = PartitionedCatalog.write(
            str(tmp_path / "p"), _filled_stores(FULL_ONE_B, sink), partitions=2
        )
        part.close()
        import json

        path = os.path.join(str(tmp_path / "p"), PARTITIONS_MANIFEST)
        manifest = json.loads(Path(path).read_text())
        manifest["version"] = 99
        Path(path).write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="newer than supported"):
            PartitionedCatalog.open(str(tmp_path / "p"))

    def test_bad_partition_count_rejected(self, tmp_path):
        with pytest.raises(StorageError, match=">= 1 partition"):
            PartitionedCatalog.write(str(tmp_path / "p"), {}, partitions=0)
        with pytest.raises(StorageError, match="non-empty"):
            PartitionedCatalog.write(str(tmp_path / "p"), {}, partitions={})


@pytest.fixture
def rng():
    return np.random.default_rng(7)
