"""Lazily opened delta generations in the serving catalog.

A borrow of a multi-generation key maps the base (generation 0) only; each
delta is a :class:`~repro.core.overlay.LazySource` that maps its segment on
its first read and whose filters stay resident in the catalog once opened.
Under test:

* **work** — after one warm-up query under a one-byte budget (every borrow
  misses), a matched query whose cells lie inside one delta's tile opens
  exactly the base and that delta;
* **the compaction hazard** — a reader pinned across ``compact()`` before
  touching any delta still answers its old generation set, with no cell
  counted twice (compaction renames the merged base over gen 0, which is
  why the base is never lazy);
* **equivalence** — a Hypothesis property runs random append / compact /
  evict / reopen / query sequences and compares every answer of the
  catalog's lazy overlay with an eager overlay of each generation loaded
  directly, for every Full and Pay layout.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FULL_MANY_B, FULL_MANY_F, FULL_ONE_B, FULL_ONE_F, PAY_MANY_B, PAY_ONE_B
from repro.arrays import coords as C
from repro.core.catalog import StoreCatalog, store_filename
from repro.core.lineage_store import make_store
from repro.core.model import BufferSink, ElementwiseBatch, RegionPair
from repro.core.overlay import LazySource, OverlayStore
from repro.errors import StorageError
from repro.storage import segment as seglib
from tests.test_segments import sinks

TILE_SHAPE = (20, 8)  # five 4-row tiles: the base and four deltas
TILE_ROWS = 4
PAY = [PAY_ONE_B, PAY_MANY_B]
FULL = [FULL_ONE_B, FULL_MANY_B, FULL_ONE_F, FULL_MANY_F]


def _tile_store(tile: int, strategy=FULL_ONE_B):
    """Identity lineage over every cell of one row tile."""
    rows = np.arange(tile * TILE_ROWS, (tile + 1) * TILE_ROWS)
    coords = np.stack(np.meshgrid(rows, np.arange(TILE_SHAPE[1]), indexing="ij"), -1)
    coords = coords.reshape(-1, 2).astype(np.int64)
    sink = BufferSink()
    sink.add_elementwise(ElementwiseBatch(outcells=coords, incells=(coords,)))
    store = make_store("n", strategy, TILE_SHAPE, (TILE_SHAPE,))
    store.ingest(sink)
    return store


def _tiled_catalog(directory, n_tiles=5):
    """A base (tile 0) plus one delta generation per further tile."""
    key = ("n", FULL_ONE_B)
    catalog, _ = StoreCatalog.write(directory, {key: _tile_store(0)})
    for tile in range(1, n_tiles):
        catalog.append_stores({key: _tile_store(tile)})
    catalog.close()


@pytest.fixture
def segment_opens(monkeypatch):
    """Basenames of every segment mapped, in order."""
    opened: list[str] = []
    real = seglib.Segment.open.__func__

    def spy(cls, path, verify=False):
        opened.append(path.rsplit("/", 1)[-1].rsplit("\\", 1)[-1])
        return real(cls, path, verify=verify)

    monkeypatch.setattr(seglib.Segment, "open", classmethod(spy))
    return opened


def _backward(catalog, strategy, query):
    record = catalog.borrow("n", strategy)
    try:
        matched, per_input = record.store.backward_full(query)
        return matched.tolist(), sorted(per_input[0].tolist())
    finally:
        catalog.release(record)


class TestLazyOpens:
    def test_matched_query_opens_base_and_owning_delta_only(
        self, tmp_path, segment_opens
    ):
        _tiled_catalog(str(tmp_path))
        catalog = StoreCatalog.open(str(tmp_path), memory_budget_bytes=1)
        assert catalog.generation_count("n", FULL_ONE_B) == 5
        # warm-up: the first read of each delta maps it to learn its filters
        everywhere = C.pack_coords(
            np.asarray([[r, 1] for r in range(0, 20, 2)]), TILE_SHAPE
        )
        _backward(catalog, FULL_ONE_B, everywhere)
        assert len(segment_opens) == 5
        assert catalog.stats()["open_mappings"] == 0  # the 1-byte budget evicted

        segment_opens.clear()
        tile = 2  # rows 8..11: the third generation
        query = C.pack_coords(np.asarray([[9, 3], [10, 5], [11, 0]]), TILE_SHAPE)
        matched, cells = _backward(catalog, FULL_ONE_B, query)
        assert matched == [True, True, True]
        assert cells == sorted(query.tolist())
        base = store_filename("n", FULL_ONE_B)
        assert segment_opens == [base, seglib.generation_path(base, tile)]
        catalog.close()

    def test_record_is_charged_base_plus_opened_deltas(self, tmp_path):
        _tiled_catalog(str(tmp_path))
        catalog = StoreCatalog.open(str(tmp_path))
        entries = catalog.generations_for("n", FULL_ONE_B)
        record = catalog.borrow("n", FULL_ONE_B)
        lazy = record.lazy
        assert len(lazy) == 4 and all(isinstance(s, LazySource) for s in lazy)
        assert [s.persists_filters() for s in lazy] == [e.filters for e in entries[1:]]
        assert record.store.lowered_ready() == all(e.lowered for e in entries)
        # nothing read yet: the base alone is resident
        assert catalog.stats()["resident_bytes"] == entries[0].nbytes
        query = C.pack_coords(np.asarray([[5, 5]]), TILE_SHAPE)
        record.store.backward_full(query)  # unknown filters: maps every delta
        assert catalog.stats()["resident_bytes"] == sum(e.nbytes for e in entries)
        catalog.release(record)
        catalog.close()
        # a closed lazy source fails loudly instead of answering empty
        with pytest.raises(StorageError, match="closed"):
            lazy[0].backward_full(query)

    def test_pinned_reader_across_compaction_counts_no_cell_twice(self, tmp_path):
        _tiled_catalog(str(tmp_path))
        query = np.arange(TILE_SHAPE[0] * TILE_SHAPE[1], dtype=np.int64)
        catalog = StoreCatalog.open(str(tmp_path))
        record = catalog.borrow("n", FULL_ONE_B)  # base mapped, deltas not yet
        report = catalog.compact()
        assert report.compacted
        # the merged base was renamed over gen 0; this reader's base still
        # maps the old inode, and its deltas open off the kept delta files
        matched, per_input = record.store.backward_full(query)
        assert matched.all()
        assert sorted(per_input[0].tolist()) == query.tolist()
        assert sorted(record.store.scan_forward_full(query, 0).tolist()) == query.tolist()
        catalog.release(record)
        fresh = catalog.borrow("n", FULL_ONE_B)
        assert not isinstance(fresh.store, OverlayStore)
        assert sorted(fresh.store.backward_full(query)[1][0].tolist()) == query.tolist()
        catalog.release(fresh)
        catalog.close()


def test_reader_pinned_across_in_place_reflush_keeps_its_deltas(tmp_path):
    """A full re-flush into the directory of a catalog a reader has pinned
    (with every delta still lazy) leaves that reader its generation set:
    it answers every cell, and the superseded delta files go at its last
    release.  A new append meanwhile skips the names still on disk."""
    _tiled_catalog(str(tmp_path))
    key = ("n", FULL_ONE_B)
    old = StoreCatalog.open(str(tmp_path))
    deltas = [tmp_path / e.file for e in old.generations_for(*key)[1:]]
    record = old.borrow(*key)  # base mapped, four deltas lazy
    new, _ = StoreCatalog.write(str(tmp_path), {key: _tile_store(0)})
    old.retire()
    new.append_stores({key: _tile_store(1)})
    assert [e.gen for e in new.generations_for(*key)] == [0, len(deltas) + 1]
    everything = np.arange(TILE_SHAPE[0] * TILE_SHAPE[1], dtype=np.int64)
    matched, per_input = record.store.backward_full(everything)
    assert matched.all() and sorted(per_input[0].tolist()) == everything.tolist()
    assert all(path.exists() for path in deltas)
    old.release(record)
    assert not any(path.exists() for path in deltas)
    fresh = new.borrow(*key)
    matched, _ = fresh.store.backward_full(everything)
    assert matched.sum() == 2 * TILE_ROWS * TILE_SHAPE[1]  # tiles 0 and 1
    new.release(fresh)
    new.close()
    old.close()


class _FakeStore:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestResolveRaces:
    def _source(self, tmp_path, opener):
        _tiled_catalog(str(tmp_path), n_tiles=2)
        entry = StoreCatalog.open(str(tmp_path)).generations_for("n", FULL_ONE_B)[1]
        return LazySource(entry, opener)

    def test_racing_first_reads_share_one_mapping(self, tmp_path):
        """Both threads map (outside every lock); the loser closes its copy."""
        barrier = threading.Barrier(2, timeout=30)
        made: list[_FakeStore] = []

        def opener():
            store = _FakeStore()
            made.append(store)
            barrier.wait()  # both opens are in flight before either installs
            return store, None

        source = self._source(tmp_path, opener)
        got: list = []
        threads = [threading.Thread(target=lambda: got.append(source.resolve())) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads) and len(got) == 2
        assert len(made) == 2 and got[0] is got[1]
        winner = got[0]
        assert not winner.closed and [s.closed for s in made if s is not winner] == [True]
        assert source.resident_bytes() == source._entry.nbytes
        source.close()
        assert winner.closed and source.resident_bytes() == 0

    def test_close_during_open_discards_the_mapping(self, tmp_path):
        made: list[_FakeStore] = []

        def opener():
            made.append(_FakeStore())
            source.close()  # the record closes while this thread maps
            return made[-1], None

        source = self._source(tmp_path, opener)
        with pytest.raises(StorageError, match="closed"):
            source.resolve()
        assert made[0].closed


def _share_lazy_deltas(tmp_path, monkeypatch, open_delay=0.0):
    """Readers (more threads than cores, tiny switch interval) share one
    overlay's lazy deltas while a one-byte budget evicts around them:
    every answer stays exact, and every segment mapped is closed at the
    end — a lost install would leak a mapping or close one under a reader.
    ``open_delay`` seconds pass after each segment is mapped, which widens
    the window in which two first reads race in ``LazySource.resolve``."""
    _tiled_catalog(str(tmp_path))
    segments: list = []
    real = seglib.Segment.open.__func__

    def spy(cls, path, verify=False):
        # return the handle this call opened: ``segments[-1]`` may already
        # be another thread's, which would hand two stores one mapping
        seg = real(cls, path, verify=verify)
        segments.append(seg)
        if open_delay:
            time.sleep(open_delay)
        return seg

    monkeypatch.setattr(seglib.Segment, "open", classmethod(spy))
    catalog = StoreCatalog.open(str(tmp_path), memory_budget_bytes=1)
    rows = np.arange(TILE_SHAPE[0])
    errors: list = []

    def reader(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(25):
                query = C.pack_coords(
                    np.stack([rng.choice(rows, 3), rng.integers(0, TILE_SHAPE[1], 3)], 1),
                    TILE_SHAPE,
                )
                query = np.unique(query)
                matched, cells = _backward(catalog, FULL_ONE_B, query)
                assert all(matched) and cells == query.tolist()
        except BaseException as exc:  # re-raised by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert catalog.stats()["open_mappings"] == 0
    catalog.close()
    assert segments and all(seg.closed for seg in segments)


def test_threads_sharing_lazy_deltas_leak_no_mapping(tmp_path, monkeypatch):
    _share_lazy_deltas(tmp_path, monkeypatch)


def test_threads_sharing_slow_opening_deltas_leak_no_mapping(tmp_path, monkeypatch):
    """The same readers with every open slowed by 2 ms, so concurrent first
    reads of one delta overlap in ``LazySource.resolve``."""
    _share_lazy_deltas(tmp_path, monkeypatch, open_delay=0.002)


# -- lazy vs eager equivalence ------------------------------------------------

SHAPE = (9, 11)
SIZE = SHAPE[0] * SHAPE[1]


@st.composite
def payload_sinks(draw):
    """Random payload region pairs (plus a query) for the Pay layouts."""
    sink = BufferSink()
    for _ in range(draw(st.integers(1, 4))):
        outs = np.unique(
            np.asarray(draw(st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=4)))
        )
        payload = draw(st.binary(min_size=1, max_size=3))
        sink.add_pair(RegionPair(outcells=C.unpack_coords(outs, SHAPE), payload=payload))
    query = draw(st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=10))
    return sink, np.unique(np.asarray(query, dtype=np.int64))


def _answers(store, strategy, query):
    """Every read an overlay serves for this layout, as sorted tuples."""
    if strategy in PAY:
        matched, hits, payloads = store.backward_payload_rows(query)
        keys, koff, vbuf, voff = store.payload_entries()
        entries = sorted(
            (
                tuple(np.asarray(keys[koff[e]: koff[e + 1]]).tolist()),
                bytes(vbuf[voff[e]: voff[e + 1]]),
            )
            for e in range(koff.size - 1)
        )
        return (
            matched.tolist(),
            sorted(zip(hits.tolist(), payloads)),
            entries,
            sorted(store.overridden_keys().tolist()),
        )
    if strategy.orientation.value == "backward":
        matched, per_input = store.backward_full(query)
        scanned = store.scan_forward_full(query, 0)
    else:
        scanned = store.forward_full(query, 0)
        matched, per_input = store.scan_backward_full(query)
    return matched.tolist(), sorted(per_input[0].tolist()), sorted(scanned.tolist())


def _eager_answers(catalog, strategy, query):
    """The same reads over every generation loaded directly."""
    stores = []
    for entry in catalog.generations_for("n", strategy):
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.load_segment(f"{catalog.directory}/{entry.file}")
        stores.append(store)
    overlay = OverlayStore(stores)
    try:
        return _answers(overlay, strategy, query)
    finally:
        overlay.close()


_OPS = st.lists(st.sampled_from(["append", "compact", "evict", "reopen", "query"]), max_size=6)


@pytest.mark.parametrize("strategy", FULL + PAY, ids=lambda s: s.label)
@given(data=st.data(), ops=_OPS)
@settings(max_examples=5, deadline=None)
def test_lazy_overlay_answers_like_eager(strategy, data, ops, tmp_path_factory):
    cases = payload_sinks() if strategy in PAY else sinks()

    def store_of(sink):
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        return store

    directory = str(tmp_path_factory.mktemp("lazy"))
    sink, _ = data.draw(cases)
    catalog, _ = StoreCatalog.write(directory, {("n", strategy): store_of(sink)})
    catalog.memory_budget_bytes = 1
    try:
        for op in ops + ["append", "query"]:
            if op == "append":
                catalog.append_stores({("n", strategy): store_of(data.draw(cases)[0])})
            elif op == "compact":
                catalog.compact()
            elif op == "evict":
                catalog.release(catalog.borrow("n", strategy))
            elif op == "reopen":
                catalog.close()
                catalog = StoreCatalog.open(directory, memory_budget_bytes=1)
            else:
                query = np.unique(np.asarray(data.draw(cases)[1], dtype=np.int64))
                record = catalog.borrow("n", strategy)
                try:
                    lazy = _answers(record.store, strategy, query)
                finally:
                    catalog.release(record)
                assert lazy == _eager_answers(catalog, strategy, query)
    finally:
        catalog.close()
