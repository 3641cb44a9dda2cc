"""Unit tests for the strategy-specific lineage stores and the entry table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import coords as C
from repro.core.lineage_store import (
    RegionEntryTable,
    decode_full_value,
    encode_full_value,
    encode_singleton_int_arrays,
    make_store,
)
from repro.core.model import BufferSink, ElementwiseBatch, PayloadBatch, RegionPair
from repro.core.modes import (
    BLACKBOX,
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    MAP,
    PAY_MANY_B,
    PAY_ONE_B,
)
from repro.errors import LineageError, StorageError
from repro.storage import codecs

OUT_SHAPE = (6, 8)
IN_SHAPES = ((6, 8),)


def cells(*coords):
    return np.asarray(coords, dtype=np.int64)


def pk(*coords):
    return C.pack_coords(cells(*coords), OUT_SHAPE)


def make_sink() -> BufferSink:
    """Two general pairs + one elementwise batch + payload rows."""
    sink = BufferSink()
    sink.add_pair(
        RegionPair(
            outcells=cells((0, 0), (0, 1)),
            incells=(cells((1, 1), (1, 2), (2, 2)),),
        )
    )
    sink.add_pair(RegionPair(outcells=cells((5, 5)), incells=(cells((5, 5)),)))
    sink.add_elementwise(
        ElementwiseBatch(
            outcells=cells((3, 3), (3, 4)),
            incells=(cells((3, 3), (3, 4)),),
        )
    )
    return sink


def make_payload_sink() -> BufferSink:
    sink = BufferSink()
    sink.add_pair(RegionPair(outcells=cells((0, 0), (0, 1)), payload=b"AA"))
    sink.add_payload_batch(
        PayloadBatch(
            outcells=cells((3, 3), (4, 4)),
            payloads=np.asarray([[1], [2]], dtype=np.uint8),
        )
    )
    return sink


class TestSingletonEncoding:
    def test_matches_scalar_encoder(self):
        values = np.asarray([0, 7, 123456, 2**40])
        rows = encode_singleton_int_arrays(values)
        for row, v in zip(rows, values):
            assert row.tobytes() == codecs.encode_cells(np.asarray([v]))

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_twelve_byte_layout_is_stable(self, values):
        """The bulk singleton encoder hard-codes the 12-byte delta layout;
        codec selection must keep emitting it for every single-element
        array (negatives and int64 extremes included) or bulk-written
        entries would diverge from scalar-encoded ones."""
        arr = np.asarray(values, dtype=np.int64)
        rows = encode_singleton_int_arrays(arr)
        assert rows.shape == (arr.size, 12)
        for row, v in zip(rows, arr):
            scalar = codecs.encode_cells(np.asarray([v], dtype=np.int64))
            assert len(scalar) == 12
            assert row.tobytes() == scalar
            decoded, pos = codecs.decode_cells(row.tobytes())
            assert decoded.tolist() == [v] and pos == 12

    def test_full_value_roundtrip(self):
        per_input = [np.asarray([3, 1, 2]), np.asarray([9])]
        buf = encode_full_value(per_input)
        out = decode_full_value(buf, 2)
        assert out[0].tolist() == [1, 2, 3]  # sorted on encode
        assert out[1].tolist() == [9]


class TestRegionEntryTable:
    def test_add_and_query(self):
        table = RegionEntryTable(OUT_SHAPE)
        table.add_entry(pk((0, 0), (0, 3)), b"v0")
        table.add_entry(pk((5, 5)), b"v1")
        assert table.n_entries == 2
        hits = table.candidate_entries(cells((0, 1)))
        # bbox of entry 0 spans (0,0)-(0,3): (0,1) intersects the box
        assert 0 in hits.tolist()
        assert table.entry_value(0) == b"v0"

    def test_exactness_requires_membership_check(self):
        table = RegionEntryTable(OUT_SHAPE)
        table.add_entry(pk((0, 0), (0, 3)), b"v0")
        keys = table.entry_keys(0)
        # (0,1) is inside the bbox but not a member
        assert C.pack_coords(cells((0, 1)), OUT_SHAPE)[0] not in keys.tolist()

    def test_singleton_bulk(self):
        table = RegionEntryTable(OUT_SHAPE)
        keys = pk((1, 1), (2, 2), (3, 3))
        lengths = np.asarray([1, 1, 1], dtype=np.int64)
        table.add_singleton_entries(keys, b"abc", lengths)
        assert table.n_entries == 3
        assert table.entry_value(int(table.candidate_entries(cells((2, 2)))[0])) in (
            b"a", b"b", b"c",
        )

    def test_singleton_validation(self):
        table = RegionEntryTable(OUT_SHAPE)
        with pytest.raises(StorageError):
            table.add_singleton_entries(pk((1, 1)), b"ab", np.asarray([1]))

    def test_empty_entry_rejected(self):
        table = RegionEntryTable(OUT_SHAPE)
        with pytest.raises(StorageError):
            table.add_entry(np.empty(0, dtype=np.int64), b"v")

    def test_incremental_finalize(self):
        table = RegionEntryTable(OUT_SHAPE)
        table.add_entry(pk((0, 0)), b"a")
        assert table.candidate_entries(cells((0, 0))).tolist() == [0]
        table.add_entry(pk((1, 1)), b"b")
        assert len(table.candidate_entries(cells((0, 0), (1, 1)))) == 2

    def test_columns_and_disk(self):
        table = RegionEntryTable(OUT_SHAPE)
        table.add_entry(pk((0, 0), (1, 1)), b"val")
        keys, koff, vbuf, voff = table.columns()
        assert koff.size - 1 == 1
        assert bytes(vbuf[voff[0]: voff[1]]) == b"val"
        assert keys[koff[0]: koff[1]].size == 2
        assert table.disk_bytes() > 0

    def test_all_singleton_keys(self):
        table = RegionEntryTable(OUT_SHAPE)
        table.add_singleton_entries(pk((1, 1)), b"x", np.asarray([1]))
        assert table.all_singleton_keys() is not None
        table.add_entry(pk((2, 2), (3, 3)), b"y")
        assert table.all_singleton_keys() is None

    def test_in_situ_value_probes(self):
        """value_contains_any / value_intersect / value_bounds answer from
        the encoded bytes without slicing or decoding entry values."""
        table = RegionEntryTable(OUT_SHAPE)
        cells_a = np.sort(pk((1, 1), (1, 2), (1, 3)))
        cells_b = np.sort(pk((4, 0), (5, 7)))
        table.add_entry(pk((0, 0)), codecs.encode_cells(cells_a))
        table.add_entry(pk((2, 2)), codecs.encode_cells(cells_b))
        query = np.sort(pk((1, 2), (5, 7)))
        assert table.value_contains_any(0, query)
        assert table.value_contains_any(1, query)
        assert not table.value_contains_any(0, np.sort(pk((0, 5))))
        assert table.value_intersect(0, query).tolist() == [pk((1, 2))[0]]
        lo, hi, n = table.value_bounds(0)
        assert (lo, hi, n) == (int(cells_a[0]), int(cells_a[-1]), 3)

    def test_in_situ_probes_with_multi_field_values(self):
        """field= skips preceding per-input cell sets inside one value."""
        table = RegionEntryTable(OUT_SHAPE)
        in0 = np.sort(pk((0, 1), (0, 2)))
        in1 = np.sort(pk((3, 3)))
        table.add_entry(pk((5, 5)), encode_full_value([in0, in1]))
        assert table.value_contains_any(0, in0, field=0)
        assert not table.value_contains_any(0, in0, field=1)
        assert table.value_contains_any(0, in1, field=1)
        assert table.value_bounds(0, field=1)[2] == 1

    def test_probe_field_out_of_range_raises(self):
        """A field index past the entry's own value must fail loudly, not
        silently probe the next entry's bytes."""
        table = RegionEntryTable(OUT_SHAPE)
        table.add_entry(pk((0, 0)), codecs.encode_cells(np.sort(pk((1, 1)))))
        table.add_entry(pk((2, 2)), codecs.encode_cells(np.sort(pk((3, 3)))))
        with pytest.raises(StorageError):
            table.value_contains_any(0, np.sort(pk((3, 3))), field=1)

    def test_probe_rejects_value_overrunning_entry(self):
        """A value whose header claims more payload than the entry holds
        (bit rot after load) must raise, not read the next entry's bytes."""
        good = codecs.encode_cells(np.sort(pk((1, 1), (1, 2))))
        overstated = bytearray(good)
        overstated[2] = 9  # inflate the cell count past the payload
        table = RegionEntryTable(OUT_SHAPE)
        table.add_entry(pk((0, 0)), bytes(overstated))
        table.add_entry(pk((2, 2)), codecs.encode_cells(np.sort(pk((3, 3)))))
        with pytest.raises(StorageError):
            table.value_contains_any(0, np.sort(pk((1, 1))))


class TestMakeStore:
    def test_mapping_strategies_rejected(self):
        for strategy in (MAP, BLACKBOX):
            with pytest.raises(LineageError):
                make_store("n", strategy, OUT_SHAPE, IN_SHAPES)

    @pytest.mark.parametrize(
        "strategy",
        [FULL_ONE_B, FULL_ONE_F, FULL_MANY_B, FULL_MANY_F, PAY_ONE_B, PAY_MANY_B, COMP_ONE_B],
        ids=lambda s: s.label,
    )
    def test_factory_produces_working_store(self, strategy):
        store = make_store("n", strategy, OUT_SHAPE, IN_SHAPES)
        assert store.strategy == strategy
        assert store.n_entries == 0
        assert store.disk_bytes() == 0


class TestFullBackwardStores:
    @pytest.mark.parametrize("strategy", [FULL_ONE_B, FULL_MANY_B], ids=lambda s: s.label)
    def test_backward_lookup(self, strategy):
        store = make_store("n", strategy, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_sink())
        store.finalize_if_possible()
        # query the multi-cell pair and one elementwise cell
        q = pk((0, 1), (3, 3), (2, 7))
        matched, per_input = store.backward_full(q)
        assert matched.tolist() == [True, True, False]
        got = set(per_input[0].tolist())
        expected = set(pk((1, 1), (1, 2), (2, 2), (3, 3)).tolist())
        assert got == expected

    @pytest.mark.parametrize("strategy", [FULL_ONE_B, FULL_MANY_B], ids=lambda s: s.label)
    def test_forward_scan_on_backward_store(self, strategy):
        store = make_store("n", strategy, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_sink())
        store.finalize_if_possible()
        q = C.pack_coords(cells((1, 2)), IN_SHAPES[0])
        outs = store.scan_forward_full(q, 0)
        assert set(outs.tolist()) == set(pk((0, 0), (0, 1)).tolist())

    def test_disk_grows_with_entries(self):
        store = make_store("n", FULL_ONE_B, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_sink())
        assert store.disk_bytes() > 0
        assert store.n_entries == 5  # 3 hash keys for pairs + 2 elementwise


class TestFullForwardStores:
    @pytest.mark.parametrize("strategy", [FULL_ONE_F, FULL_MANY_F], ids=lambda s: s.label)
    def test_forward_lookup(self, strategy):
        store = make_store("n", strategy, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_sink())
        store.finalize_if_possible()
        q = C.pack_coords(cells((1, 1), (3, 4)), IN_SHAPES[0])
        outs = store.forward_full(q, 0)
        assert set(outs.tolist()) == set(pk((0, 0), (0, 1), (3, 4)).tolist())

    @pytest.mark.parametrize("strategy", [FULL_ONE_F, FULL_MANY_F], ids=lambda s: s.label)
    def test_backward_scan_on_forward_store(self, strategy):
        store = make_store("n", strategy, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_sink())
        store.finalize_if_possible()
        q = pk((0, 0), (5, 5))
        matched, per_input = store.scan_backward_full(q)
        assert matched.all()
        got = set(per_input[0].tolist())
        expected = set(
            C.pack_coords(cells((1, 1), (1, 2), (2, 2), (5, 5)), IN_SHAPES[0]).tolist()
        )
        assert got == expected


class TestPayloadStores:
    @pytest.mark.parametrize("strategy", [PAY_ONE_B, PAY_MANY_B], ids=lambda s: s.label)
    def test_backward_payload(self, strategy):
        store = make_store("n", strategy, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_payload_sink())
        store.finalize_if_possible()
        q = pk((0, 0), (3, 3), (5, 0))
        matched, pairs = store.backward_payload(q)
        assert matched.tolist() == [True, True, False]
        payloads = {payload for _, payload in pairs}
        assert b"AA" in payloads
        assert b"\x01" in payloads

    def test_payone_rows_fast_path(self):
        store = make_store("n", PAY_ONE_B, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_payload_sink())
        matched, hits, payloads = store.backward_payload_rows(pk((0, 1), (4, 4)))
        assert matched.all()
        assert len(payloads) == 2
        assert b"AA" in payloads and b"\x02" in payloads

    def test_paymany_has_no_rows_fast_path(self):
        store = make_store("n", PAY_MANY_B, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_payload_sink())
        assert store.backward_payload_rows(pk((0, 0))) is None

    @pytest.mark.parametrize("strategy", [PAY_ONE_B, PAY_MANY_B], ids=lambda s: s.label)
    def test_payload_columns_and_overridden(self, strategy):
        store = make_store("n", strategy, OUT_SHAPE, IN_SHAPES)
        store.ingest(make_payload_sink())
        keys, koff, vbuf, voff = store.payload_entries()
        assert int(koff[-1]) == keys.size == 4
        assert int(voff[-1]) == len(vbuf)
        overridden = store.overridden_keys()
        assert set(overridden.tolist()) == set(pk((0, 0), (0, 1), (3, 3), (4, 4)).tolist())

    def test_payone_duplicates_payload_per_cell(self):
        store = make_store("n", PAY_ONE_B, OUT_SHAPE, IN_SHAPES)
        sink = BufferSink()
        sink.add_pair(RegionPair(outcells=cells((0, 0), (0, 1), (0, 2)), payload=b"PPPP"))
        store.ingest(sink)
        # 3 keys * (8 bytes + 4-byte payload copy)
        assert store.disk_bytes() == 3 * 12

    def test_full_store_rejects_payload_queries(self):
        store = make_store("n", FULL_ONE_B, OUT_SHAPE, IN_SHAPES)
        with pytest.raises(LineageError):
            store.backward_payload(pk((0, 0)))
        with pytest.raises(LineageError):
            store.payload_entries()

    def test_payload_store_rejects_full_queries(self):
        store = make_store("n", PAY_ONE_B, OUT_SHAPE, IN_SHAPES)
        with pytest.raises(LineageError):
            store.backward_full(pk((0, 0)))
