"""The segmented store format and the lazy-open catalog serving path.

Four layers under test:

* :mod:`repro.storage.segment` — the single-file, manifest-led container
  (header, section table, checksums, lazy mmap-backed access);
* store round-trips through segments — a Hypothesis property asserts that a
  store flushed to a segment and reloaded in a fresh object answers
  *byte-identical* matched and mismatched queries, for all four Full
  strategies, with the lowered batch-scan tables served from the file;
* corruption — truncated and bit-flipped segments fail checksum
  verification loudly, and :func:`repro.workflow.recovery.recover_lineage`
  quarantines them instead of serving garbage;
* the batch convergence riders — R-tree multi-point descent and the
  columnar payload scan equal their per-entry references, and the
  BatchProbe lowering walk ticks per codec-tag batch, not per entry.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.arrays.versions import VersionStore
from repro.core.catalog import StoreCatalog
from repro.core.lineage_store import RegionEntryTable, make_store
from repro.core.model import BufferSink, ElementwiseBatch, RegionPair
from repro.core.runtime import LineageRuntime
from repro.core.subzero import SubZero
from repro.errors import StorageError
from repro.storage import codecs
from repro.storage.rtree import RTree
from repro.storage.segment import Segment, SegmentWriter, is_segment_file
from repro.workflow.executor import execute_workflow
from repro.workflow.recovery import recover_lineage
from tests.conftest import build_spot_spec

SHAPE = (9, 11)
SIZE = SHAPE[0] * SHAPE[1]
ALL_FULL = [FULL_ONE_B, FULL_MANY_B, FULL_ONE_F, FULL_MANY_F]


# -- the segment container ---------------------------------------------------


class TestSegmentContainer:
    def test_roundtrip_all_section_kinds(self, tmp_path):
        path = str(tmp_path / "t.seg")
        writer = SegmentWriter()
        writer.add_array("vec", np.arange(10, dtype=np.int64))
        writer.add_array("mat", np.arange(12, dtype=np.int64).reshape(3, 4))
        writer.add_array("empty", np.empty((0, 2), dtype=np.int64))
        writer.add_bytes("heap", b"\x00opaque bytes\xff")
        writer.add_json("meta", {"n": 3, "fields": [0, 1]})
        assert writer.write(path) == os.path.getsize(path)
        assert is_segment_file(path)
        seg = Segment.open(path, verify=True)
        assert (seg.array("vec") == np.arange(10)).all()
        assert seg.array("mat").shape == (3, 4)
        assert seg.array("empty").shape == (0, 2)
        assert bytes(seg.view("heap")) == b"\x00opaque bytes\xff"
        assert seg.json("meta") == {"n": 3, "fields": [0, 1]}

    def test_array_sections_are_zero_copy_views(self, tmp_path):
        path = str(tmp_path / "t.seg")
        writer = SegmentWriter()
        writer.add_array("vec", np.arange(1000, dtype=np.int64))
        writer.write(path)
        arr = Segment.open(path).array("vec")
        assert not arr.flags.owndata  # a view over the mapping, not a copy
        assert not arr.flags.writeable

    def test_duplicate_and_missing_sections(self, tmp_path):
        writer = SegmentWriter()
        writer.add_bytes("x", b"a")
        with pytest.raises(StorageError, match="duplicate"):
            writer.add_bytes("x", b"b")
        path = str(tmp_path / "t.seg")
        writer.write(path)
        seg = Segment.open(path)
        with pytest.raises(StorageError, match="no section"):
            seg.array("nope")

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.seg")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 64)
        assert not is_segment_file(path)
        with pytest.raises(StorageError, match="bad magic"):
            Segment.open(path)

    def test_newer_version_rejected(self, tmp_path):
        path = str(tmp_path / "t.seg")
        writer = SegmentWriter()
        writer.add_bytes("x", b"abc")
        writer.write(path)
        raw = bytearray(Path(path).read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")  # version field
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="newer than supported"):
            Segment.open(path)

    def test_truncated_file_rejected_structurally(self, tmp_path):
        path = str(tmp_path / "t.seg")
        writer = SegmentWriter()
        writer.add_array("vec", np.arange(64, dtype=np.int64))
        writer.write(path)
        raw = Path(path).read_bytes()
        for cut in (3, 10, len(raw) // 2):
            trunc = str(tmp_path / f"cut{cut}.seg")
            Path(trunc).write_bytes(raw[:cut])
            with pytest.raises(StorageError):
                Segment.open(trunc, verify=True)

    def test_checksum_catches_payload_bitflips(self, tmp_path):
        path = str(tmp_path / "t.seg")
        writer = SegmentWriter()
        writer.add_array("vec", np.arange(64, dtype=np.int64))
        writer.write(path)
        seg = Segment.open(path)
        offset = seg._sections["vec"]["offset"]
        seg.close()
        raw = bytearray(Path(path).read_bytes())
        raw[offset + 5] ^= 0x40
        Path(path).write_bytes(bytes(raw))
        assert Segment.open(path) is not None  # structure still parses
        with pytest.raises(StorageError, match="checksum"):
            Segment.open(path, verify=True)


# -- store round-trips through segments (Hypothesis property) -----------------


@st.composite
def sinks(draw):
    """A random mix of general region pairs and an elementwise batch."""
    sink = BufferSink()
    for _ in range(draw(st.integers(0, 5))):
        n_out = draw(st.integers(1, 4))
        n_in = draw(st.integers(1, 6))
        outs = np.unique(
            np.asarray(
                draw(st.lists(st.integers(0, SIZE - 1), min_size=n_out, max_size=n_out)),
                dtype=np.int64,
            )
        )
        ins = np.unique(
            np.asarray(
                draw(st.lists(st.integers(0, SIZE - 1), min_size=n_in, max_size=n_in)),
                dtype=np.int64,
            )
        )
        sink.add_pair(
            RegionPair(
                outcells=C.unpack_coords(outs, SHAPE),
                incells=(C.unpack_coords(ins, SHAPE),),
            )
        )
    n_elem = draw(st.integers(0, 8))
    if n_elem:
        eouts = np.asarray(
            draw(st.lists(st.integers(0, SIZE - 1), min_size=n_elem, max_size=n_elem)),
            dtype=np.int64,
        )
        eins = np.asarray(
            draw(st.lists(st.integers(0, SIZE - 1), min_size=n_elem, max_size=n_elem)),
            dtype=np.int64,
        )
        sink.add_elementwise(
            ElementwiseBatch(
                outcells=C.unpack_coords(eouts, SHAPE),
                incells=(C.unpack_coords(eins, SHAPE),),
            )
        )
    query = draw(st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=10))
    return sink, np.unique(np.asarray(query, dtype=np.int64))


def _answers(store, strategy, query):
    """Matched + mismatched answers of one store, as comparable tuples."""
    if strategy.orientation.value == "backward":
        matched, per_input = store.backward_full(query)
        scan = store.scan_forward_full(query, 0)
        return (
            matched.tolist(),
            [sorted(p.tolist()) for p in per_input],
            sorted(scan.tolist()),
        )
    fwd = store.forward_full(query, 0)
    matched, per_input = store.scan_backward_full(query)
    return (
        matched.tolist(),
        [sorted(p.tolist()) for p in per_input],
        sorted(fwd.tolist()),
    )


class TestSegmentRoundtripProperty:
    @pytest.mark.parametrize("strategy", ALL_FULL, ids=lambda s: s.label)
    @given(case=sinks())
    @settings(max_examples=25, deadline=None)
    def test_reloaded_store_answers_identically(self, strategy, case, tmp_path_factory):
        sink, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        before = _answers(store, strategy, query)

        path = str(tmp_path_factory.mktemp("seg") / "store.seg")
        store.flush_segment(path)
        clone = make_store("n", strategy, SHAPE, (SHAPE,))
        clone.load_segment(path)
        # the lowered tables came from the file: the clone is warm before
        # any scan ran on it
        assert clone.lowered_ready()
        after = _answers(clone, strategy, query)
        assert before == after

    @pytest.mark.parametrize("strategy", ALL_FULL, ids=lambda s: s.label)
    @given(case=sinks())
    @settings(max_examples=10, deadline=None)
    def test_double_roundtrip_is_stable(self, strategy, case, tmp_path_factory):
        """Flush(load(flush(store))) produces identical answers again —
        loaded mmap-backed state re-flushes correctly."""
        sink, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        base = tmp_path_factory.mktemp("seg2")
        store.flush_segment(str(base / "a.seg"))
        clone = make_store("n", strategy, SHAPE, (SHAPE,))
        clone.load_segment(str(base / "a.seg"))
        clone.flush_segment(str(base / "b.seg"))
        clone2 = make_store("n", strategy, SHAPE, (SHAPE,))
        clone2.load_segment(str(base / "b.seg"))
        assert _answers(store, strategy, query) == _answers(clone2, strategy, query)


class TestStoreSegmentCorruption:
    @pytest.mark.parametrize("strategy", [FULL_ONE_B, FULL_MANY_B], ids=lambda s: s.label)
    def test_truncated_store_segment_fails_loudly(self, tmp_path, strategy):
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        sink = BufferSink()
        sink.add_pair(
            RegionPair(
                outcells=np.asarray([(0, 0), (0, 1)], dtype=np.int64),
                incells=(np.asarray([(2, 2), (3, 3)], dtype=np.int64),),
            )
        )
        store.ingest(sink)
        path = str(tmp_path / "store.seg")
        store.flush_segment(path)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[: len(raw) - len(raw) // 3])
        clone = make_store("n", strategy, SHAPE, (SHAPE,))
        with pytest.raises(StorageError):
            clone.load_segment(path)


# -- recovery: checksum-verify + quarantine -----------------------------------


def _flushed_runtime(tmp_path, rng):
    image = SciArray.from_numpy(rng.random((16, 18)))
    runtime = LineageRuntime()
    runtime.set_strategies("spot", [FULL_ONE_B, PAY_ONE_B])
    instance = execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
    runtime.flush_all(str(tmp_path))
    return runtime, instance


class TestRecoverLineage:
    def test_healthy_catalog_recovers_clean(self, tmp_path, rng):
        _flushed_runtime(tmp_path, rng)
        fresh = LineageRuntime()
        report = recover_lineage(str(tmp_path), runtime=fresh)
        assert report.ok and not report.quarantined
        assert len(report.catalog) == 2
        assert fresh.store_for("spot", FULL_ONE_B) is not None

    def test_corrupt_segment_is_quarantined(self, tmp_path, rng):
        runtime, instance = _flushed_runtime(tmp_path, rng)
        catalog = StoreCatalog.open(str(tmp_path))
        entry = catalog.entry("spot", FULL_ONE_B)
        victim = tmp_path / entry.file
        raw = bytearray(victim.read_bytes())
        raw[-20] ^= 0xFF  # flip a payload byte
        victim.write_bytes(bytes(raw))

        fresh = LineageRuntime()
        report = recover_lineage(str(tmp_path), runtime=fresh)
        assert not report.ok
        [(fname, error)] = report.quarantined
        assert fname == entry.file
        assert isinstance(error, StorageError)
        assert "quarantined" in str(error)
        # the corrupt file was moved aside, not served
        assert not victim.exists()
        assert (tmp_path / (entry.file + ".quarantined")).exists()
        assert fresh.store_for("spot", FULL_ONE_B) is None
        # the healthy payload store still serves
        out_shape = instance.output_shape("spot")
        q = C.pack_coords(np.asarray([(3, 3)], dtype=np.int64), out_shape)
        healthy = fresh.store_for("spot", PAY_ONE_B)
        assert healthy is not None
        matched, _, _ = healthy.backward_payload_rows(q)
        assert matched.shape == (1,)

    def test_quarantine_is_persisted_to_the_manifest(self, tmp_path, rng):
        """After a quarantine, a later plain load_all of the same directory
        must not re-register the dead store."""
        _flushed_runtime(tmp_path, rng)
        entry = StoreCatalog.open(str(tmp_path)).entry("spot", FULL_ONE_B)
        victim = tmp_path / entry.file
        raw = bytearray(victim.read_bytes())
        raw[-20] ^= 0xFF
        victim.write_bytes(bytes(raw))
        recover_lineage(str(tmp_path))

        later = LineageRuntime()
        assert later.load_all(str(tmp_path)) == 1  # only the healthy store
        assert FULL_ONE_B not in later.strategies_for("spot")
        assert PAY_ONE_B in later.strategies_for("spot")

    def test_strict_mode_raises(self, tmp_path, rng):
        _flushed_runtime(tmp_path, rng)
        catalog = StoreCatalog.open(str(tmp_path))
        entry = catalog.entry("spot", FULL_ONE_B)
        victim = tmp_path / entry.file
        raw = bytearray(victim.read_bytes())
        raw[-20] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="failed verification"):
            recover_lineage(str(tmp_path), strict=True)
        assert victim.exists()  # strict mode reports; it does not rename


# -- fresh-engine serving straight off disk -----------------------------------


class TestFreshProcessServing:
    def test_subzero_resume_serves_queries_off_disk(self, tmp_path, rng):
        image = SciArray.from_numpy(rng.random((16, 18)))
        spec = build_spot_spec()
        sz = SubZero(spec)
        sz.set_strategy("spot", FULL_ONE_B)
        versions = VersionStore()
        sz.run({"img": image}, version_store=versions)
        want = sz.backward_query([(3, 3), (7, 7)], ["spot"])
        sz.flush_lineage(str(tmp_path))

        fresh = SubZero(spec)
        fresh.resume(versions, wal=sz.wal, lineage_dir=str(tmp_path))
        got = fresh.backward_query([(3, 3), (7, 7)], ["spot"])
        assert sorted(map(tuple, want.coords.tolist())) == sorted(
            map(tuple, got.coords.tolist())
        )
        # the catalog's lowered flag priced the store as warm without opening
        assert fresh.runtime.lowered_ready("spot", FULL_ONE_B)

    def test_lazy_load_then_flush_is_lossless(self, tmp_path, rng):
        """Regression: flush_all after a lazy load_all must re-persist the
        catalog stores no query opened — not silently write an empty
        manifest over them."""
        _flushed_runtime(tmp_path, rng)
        middle = LineageRuntime()
        assert middle.load_all(str(tmp_path)) == 2
        assert middle.catalog.stats()["open_mappings"] == 0
        middle.flush_all(str(tmp_path))  # nothing was ever queried

        final = LineageRuntime()
        assert final.load_all(str(tmp_path)) == 2  # both stores survive
        assert final.store_for("spot", FULL_ONE_B) is not None
        assert final.store_for("spot", PAY_ONE_B) is not None

    def test_mismatched_scan_off_segment_needs_no_lowering_walk(self, tmp_path, rng):
        """A forward query against a backward-oriented store reloaded from a
        segment must not re-walk codec headers: the probe's lowered tables
        come back pre-built."""
        image = SciArray.from_numpy(rng.random((16, 18)))
        runtime = LineageRuntime()
        runtime.set_strategies("spot", FULL_MANY_B)
        instance = execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime)
        runtime.flush_all(str(tmp_path))

        fresh = LineageRuntime()
        fresh.load_all(str(tmp_path))
        store = fresh.store_for("spot", FULL_MANY_B)
        probe = store._components()["table"].batch_probe(field=0)
        assert probe._lowered is not None  # warm before any scan ran
        in_shape = instance.operator("spot").input_shapes[0]
        q = np.sort(C.pack_coords(np.asarray([(5, 5), (2, 2)], dtype=np.int64), in_shape))
        rebuilt = make_store(
            "spot", FULL_MANY_B, instance.output_shape("spot"), (in_shape,)
        )
        # equivalence against the in-memory store of a re-run
        runtime2 = LineageRuntime()
        runtime2.set_strategies("spot", FULL_MANY_B)
        execute_workflow(build_spot_spec(), {"img": image}, runtime=runtime2)
        live = runtime2.store_for("spot", FULL_MANY_B)
        assert sorted(store.scan_forward_full(q, 0).tolist()) == sorted(
            live.scan_forward_full(q, 0).tolist()
        )
        assert rebuilt is not None


class TestSegmentIdentityCheck:
    def test_wrong_store_segment_refused(self, tmp_path):
        """A segment holding a different (node, strategy) must not silently
        hydrate — crc checks cannot catch a consistent-but-wrong file."""
        sink = BufferSink()
        sink.add_elementwise(
            ElementwiseBatch(
                outcells=np.asarray([(1, 1)], dtype=np.int64),
                incells=(np.asarray([(2, 2)], dtype=np.int64),),
            )
        )
        store = make_store("a", FULL_ONE_B, SHAPE, (SHAPE,))
        store.ingest(sink)
        path = str(tmp_path / "a.seg")
        store.flush_segment(path)
        wrong_node = make_store("b", FULL_ONE_B, SHAPE, (SHAPE,))
        with pytest.raises(StorageError, match="refusing to load"):
            wrong_node.load_segment(path)
        wrong_strategy = make_store("a", FULL_MANY_B, SHAPE, (SHAPE,))
        with pytest.raises(StorageError, match="refusing to load"):
            wrong_strategy.load_segment(path)


class TestPreSegmentLayoutRefused:
    def test_pre_segment_flush_directory_is_refused(self, tmp_path):
        """A directory flushed before the segmented format — manifest.json,
        no catalog.json — is refused with a typed error naming the cure,
        never attached as a silently empty catalog."""
        (tmp_path / "manifest.json").write_text("[]")
        runtime = LineageRuntime()
        with pytest.raises(
            StorageError, match="pre-segment layout, re-flush required"
        ):
            runtime.load_all(str(tmp_path))
        assert runtime.catalog is None

    def test_bare_component_file_is_refused(self, tmp_path):
        """A pre-segment ``<q count + columns>`` component file is not
        parsed by any loader any more."""
        import struct

        from repro.storage.kvstore import BlobStore, HashStore

        path = str(tmp_path / "refs.bin")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<q", 0))
        for load in (
            HashStore.load,
            BlobStore.load,
            lambda p: RegionEntryTable.load(p, SHAPE),
        ):
            with pytest.raises(
                StorageError, match="pre-segment layout, re-flush required"
            ):
                load(path)


class TestShardedLayoutRefused:
    def _sharded_catalog(self, tmp_path, rng) -> str:
        """A flushed catalog rewritten into the retired sharded layout: each
        segment renamed to ``<file>.0`` and its manifest entry carrying
        ``shards``, as a byte-threshold flush used to write it."""
        _flushed_runtime(tmp_path, rng)
        manifest_path = tmp_path / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        for obj in manifest["stores"]:
            os.replace(tmp_path / obj["file"], tmp_path / (obj["file"] + ".0"))
            obj["shards"] = [obj["file"] + ".0"]
        manifest_path.write_text(json.dumps(manifest))
        return str(tmp_path)

    def test_sharded_catalog_is_refused_everywhere(self, tmp_path, rng):
        """Refused with a typed error naming the cure — never opened as a
        catalog whose stores then serve as empty lineage."""
        directory = self._sharded_catalog(tmp_path, rng)
        refused = "sharded layout, re-flush required"
        with pytest.raises(StorageError, match=refused):
            StoreCatalog.open(directory)
        sz = SubZero(build_spot_spec())
        with pytest.raises(StorageError, match=refused):
            sz.load_lineage(directory)
        assert sz.runtime.catalog is None
        with pytest.raises(StorageError, match=refused):
            recover_lineage(directory)

    def test_segment_open_on_lone_shard_file_raises_storage_error(self, tmp_path):
        path = str(tmp_path / "x.seg")
        writer = SegmentWriter()
        writer.add_bytes("s0", b"payload")
        writer.write(path + ".0")
        with pytest.raises(StorageError, match="cannot open segment"):
            Segment.open(path)


# -- batch convergence riders -------------------------------------------------


class TestRTreeBatchDescent:
    @given(
        n_boxes=st.integers(1, 60),
        n_points=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_query_points_equals_per_point_union(self, n_boxes, n_points, seed):
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, 40, size=(n_boxes, 2))
        hi = lo + rng.integers(0, 6, size=(n_boxes, 2))
        tree = RTree.build(lo, hi, leaf_capacity=4)
        points = rng.integers(-2, 44, size=(n_points, 2))
        want = np.unique(
            np.concatenate([tree.query_point(p) for p in points])
        ) if n_points else np.empty(0, dtype=np.int64)
        got = tree.query_points(points)
        assert got.tolist() == want.tolist()

    def test_query_points_empty_cases(self):
        tree = RTree.build(
            np.asarray([[0, 0]], dtype=np.int64), np.asarray([[1, 1]], dtype=np.int64)
        )
        assert tree.query_points(np.empty((0, 2), dtype=np.int64)).size == 0
        empty = RTree.build(
            np.empty((0, 2), dtype=np.int64), np.empty((0, 2), dtype=np.int64)
        )
        assert empty.query_points(np.asarray([[0, 0]], dtype=np.int64)).size == 0

    def test_candidate_entries_has_no_per_cell_descent(self, monkeypatch):
        """The small-query path descends once for the whole batch."""
        table = RegionEntryTable(SHAPE)
        for j in range(8):
            table.add_entry(
                C.pack_coords(np.asarray([(j, j), (j, j + 1)], dtype=np.int64), SHAPE),
                b"v",
            )
        table.finalize()
        calls = {"point": 0}
        original = RTree.query_point

        def counting(self, point):
            calls["point"] += 1
            return original(self, point)

        monkeypatch.setattr(RTree, "query_point", counting)
        coords = np.asarray([(j, j) for j in range(8)], dtype=np.int64)
        hits = table.candidate_entries(coords)
        assert calls["point"] == 0  # batched descent, no per-cell probes
        assert hits.size == 8


class TestLoweringTicksPerBatch:
    def test_ticker_fires_per_codec_tag_batch(self):
        """Regression: the cold lowering walk used to tick once per entry,
        so a budget could abort a nearly-finished (cacheable) build.  Now it
        ticks once per codec-tag batch — bounded by the tag count, however
        large the heap."""
        values = []
        for j in range(300):
            kind = j % 4
            if kind == 0:
                values.append(np.arange(j, j + 40, dtype=np.int64))  # interval
            elif kind == 1:
                base = 8 * j
                values.append(  # bitmap
                    base + np.flatnonzero(np.arange(64) % 3 != 1).astype(np.int64)
                )
            elif kind == 2:
                values.append(np.asarray([j, j + 5, j + 9000], dtype=np.int64))  # delta
            else:
                values.append(np.asarray([5 * j + 1, 2 * j], dtype=np.int64))  # unsorted
        bufs = [codecs.encode_cells(v) for v in values]
        tags = {b[0] for b in bufs}
        heap = b"".join(bufs)
        ends = np.cumsum([len(b) for b in bufs]).astype(np.int64)
        probe = codecs.BatchProbe(heap, ends - np.asarray([len(b) for b in bufs]), ends)
        ticks = {"n": 0}

        def ticker():
            ticks["n"] += 1

        verdict = probe.contains_any(np.asarray([1], dtype=np.int64), ticker)
        assert verdict.size == 300
        assert 0 < ticks["n"] <= len(tags)  # not 300

    def test_lowered_tables_roundtrip_through_from_lowered(self):
        values = [
            np.arange(10, 20, dtype=np.int64),
            np.asarray([3, 99, 4000], dtype=np.int64),
            5 + np.flatnonzero(np.arange(40) % 2 == 0).astype(np.int64),
        ]
        bufs = [codecs.encode_cells(v) for v in values]
        heap = b"".join(bufs)
        lens = np.asarray([len(b) for b in bufs], dtype=np.int64)
        ends = np.cumsum(lens)
        probe = codecs.BatchProbe(heap, ends - lens, ends)
        query = np.unique(np.concatenate(values))[::3]
        want = probe.contains_any(query)
        tables = probe.lowered_tables()
        clone = codecs.BatchProbe.from_lowered(heap, len(values), tables)
        assert (clone.contains_any(query) == want).all()
        h1, i1 = probe.intersect(query)
        h2, i2 = clone.intersect(query)
        assert h1.tolist() == h2.tolist()
        assert [a.tolist() for a in i1] == [a.tolist() for a in i2]


class TestPayloadColumnarScan:
    @pytest.mark.parametrize("strategy", [PAY_ONE_B, PAY_MANY_B], ids=lambda s: s.label)
    def test_columns_reconstruct_every_entry(self, strategy, rng):
        from repro.core.model import PayloadBatch

        store = make_store("n", strategy, SHAPE, (SHAPE,))
        sink = BufferSink()
        sink.add_pair(
            RegionPair(
                outcells=np.asarray([(1, 1), (1, 2)], dtype=np.int64), payload=b"PP"
            )
        )
        sink.add_payload_batch(
            PayloadBatch(
                outcells=np.asarray([(4, 4), (5, 5)], dtype=np.int64),
                payloads=np.asarray([[7], [9]], dtype=np.uint8),
            )
        )
        store.ingest(sink)
        keys, koff, vbuf, voff = store.payload_entries()
        rebuilt = []
        for e in range(koff.size - 1):
            rebuilt.append(
                (
                    tuple(np.asarray(keys[koff[e]: koff[e + 1]]).tolist()),
                    bytes(vbuf[voff[e]: voff[e + 1]]),
                )
            )
        flat = sorted(rebuilt)
        expected_payloads = sorted([b"PP", b"PP", b"\x07", b"\x09"])
        if strategy is PAY_ONE_B:
            # one entry per cell, payload duplicated
            assert sorted(p for _, p in flat) == expected_payloads
            assert all(len(cells) == 1 for cells, _ in flat)
        else:
            assert sum(len(cells) for cells, _ in flat) == 4
