"""Unit + property tests for the log-structured hash store and blob store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.kvstore import BlobStore, HashStore, _gather_slices


class TestHashStoreBasics:
    def test_fixed_values_roundtrip(self):
        store = HashStore()
        store.put_many_fixed(np.asarray([5, 9, 5]), np.asarray([100, 200, 300]))
        qidx, refs = store.lookup_refs(np.asarray([9, 5, 7]))
        by_query = {}
        for qi, ref in zip(qidx, refs):
            by_query.setdefault(int(qi), []).append(int(ref))
        assert by_query[0] == [200]
        assert sorted(by_query[1]) == [100, 300]  # multimap: both kept
        assert 2 not in by_query

    def test_put_one_and_variable_values(self):
        store = HashStore()
        store.put_one(7, b"xyz")
        store.put_one(7, b"ab")
        qidx, values = store.lookup_many(np.asarray([7]))
        assert sorted(values) == [b"ab", b"xyz"]

    def test_empty_lookup(self):
        store = HashStore()
        qidx, values = store.lookup_many(np.asarray([1, 2]))
        assert qidx.size == 0 and values == []

    def test_lookup_refs_rejects_variable_width(self):
        store = HashStore()
        store.put_one(1, b"abc")
        with pytest.raises(StorageError):
            store.lookup_refs(np.asarray([1]))

    def test_offsets_validation(self):
        store = HashStore()
        with pytest.raises(StorageError):
            store.put_many(np.asarray([1]), b"ab", np.asarray([0, 1, 2]))
        with pytest.raises(StorageError):
            store.put_many(np.asarray([1]), b"ab", np.asarray([0, 1]))  # does not span

    def test_scan_order_and_content(self):
        store = HashStore()
        store.put_many_fixed(np.asarray([3, 1, 2]), np.asarray([30, 10, 20]))
        entries = list(store.scan())
        assert [k for k, _ in entries] == [1, 2, 3]  # sorted segment
        assert np.frombuffer(entries[0][1], dtype="<i8")[0] == 10

    def test_incremental_puts_refinalize(self):
        store = HashStore()
        store.put_many_fixed(np.asarray([1]), np.asarray([10]))
        assert store.lookup_refs(np.asarray([1]))[1].tolist() == [10]
        store.put_many_fixed(np.asarray([2]), np.asarray([20]))
        qidx, refs = store.lookup_refs(np.asarray([1, 2]))
        assert sorted(refs.tolist()) == [10, 20]

    def test_keys_array_sorted_with_duplicates(self):
        store = HashStore()
        store.put_many_fixed(np.asarray([4, 4, 1]), np.asarray([0, 1, 2]))
        assert store.keys_array().tolist() == [1, 4, 4]

    def test_clear(self):
        store = HashStore()
        store.put_one(1, b"x")
        store.clear()
        assert store.n_entries == 0
        assert store.disk_bytes() == 0


class TestHashStorePersistence:
    def test_flush_and_load(self, tmp_path):
        store = HashStore()
        keys = np.asarray([10, 20, 30])
        store.put_many_fixed(keys, keys * 7)
        path = str(tmp_path / "seg.bin")
        written = store.flush(path)
        assert written > 0
        loaded = HashStore.load(path)
        qidx, refs = loaded.lookup_refs(keys)
        assert sorted(refs.tolist()) == [70, 140, 210]

    def test_flush_empty(self, tmp_path):
        store = HashStore()
        path = str(tmp_path / "empty.bin")
        store.flush(path)
        loaded = HashStore.load(path)
        assert loaded.n_entries == 0


@st.composite
def key_value_batches(draw):
    n = draw(st.integers(1, 80))
    keys = draw(
        st.lists(st.integers(0, 50), min_size=n, max_size=n)
    )
    values = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    return np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.int64)


class TestHashStoreProperties:
    @given(key_value_batches(), st.lists(st.integers(0, 60), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_lookup_matches_reference_multimap(self, batch, query):
        keys, values = batch
        store = HashStore()
        store.put_many_fixed(keys, values)
        reference: dict[int, list[int]] = {}
        for k, v in zip(keys, values):
            reference.setdefault(int(k), []).append(int(v))
        query_arr = np.asarray(query, dtype=np.int64)
        qidx, refs = store.lookup_refs(query_arr)
        got: dict[int, list[int]] = {}
        for qi, ref in zip(qidx, refs):
            got.setdefault(int(qi), []).append(int(ref))
        # every query *position* independently sees the full multimap bucket
        for pos, key in enumerate(query):
            assert sorted(got.get(pos, [])) == sorted(reference.get(key, []))

    @given(key_value_batches())
    @settings(max_examples=50, deadline=None)
    def test_disk_bytes_accounts_keys_and_values(self, batch):
        keys, values = batch
        store = HashStore()
        store.put_many_fixed(keys, values)
        store.finalize()
        assert store.disk_bytes() == keys.size * 8 + values.size * 8


class TestBlobStore:
    def test_append_get(self):
        blobs = BlobStore()
        a = blobs.append(b"hello")
        b = blobs.append(b"world!")
        assert blobs.get(a) == b"hello"
        assert blobs.get(b) == b"world!"
        assert len(blobs) == 2

    def test_unknown_id(self):
        blobs = BlobStore()
        with pytest.raises(StorageError):
            blobs.get(3)

    def test_disk_accounting(self):
        blobs = BlobStore()
        blobs.append(b"12345")
        assert blobs.disk_bytes() == 5 + 8

    def test_flush(self, tmp_path):
        blobs = BlobStore()
        blobs.append(b"payload")
        written = blobs.flush(str(tmp_path / "blobs.bin"))
        assert written > 7

    def test_clear(self):
        blobs = BlobStore()
        blobs.append(b"x")
        blobs.clear()
        assert len(blobs) == 0 and blobs.disk_bytes() == 0


class TestGatherSlices:
    """``_gather_slices`` against a plain byte join, for slices laid end to
    end in order (the one-slice copy) and for permuted ones (the per-byte
    index), empty slices included."""

    @given(
        lengths=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_byte_join(self, lengths, data):
        lengths = np.asarray(lengths, dtype=np.int64)
        buf = bytes(range(256))[: int(lengths.sum()) + 3]
        starts = 3 + np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
        order = np.asarray(data.draw(st.permutations(range(lengths.size))))
        for s, l in ((starts, lengths), (starts[order], lengths[order])):
            expected = b"".join(buf[a : a + b] for a, b in zip(s, l))
            assert _gather_slices(buf, s, l, int(l.sum())) == expected
