"""Unit + property tests for region pairs, sinks, frontiers, query objects."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import (
    BufferSink,
    Direction,
    ElementwiseBatch,
    Frontier,
    LineageQuery,
    PayloadBatch,
    QueryStep,
    RegionBatch,
    RegionPair,
)
from repro.core.modes import (
    BLACKBOX,
    FULL_ONE_B,
    MAP,
    EncodingKind,
    LineageMode,
    Orientation,
    StorageStrategy,
)
from repro.errors import LineageError, QueryError


def cells(*coords):
    return np.asarray(coords, dtype=np.int64)


class TestRegionPair:
    def test_full_pair(self):
        pair = RegionPair(outcells=cells((0, 0), (0, 1)), incells=(cells((1, 1)),))
        assert pair.fanout == 2
        assert pair.fanin(0) == 1
        assert not pair.is_payload

    def test_payload_pair(self):
        pair = RegionPair(outcells=cells((0, 0)), payload=b"x")
        assert pair.is_payload
        with pytest.raises(LineageError):
            pair.fanin(0)

    def test_exactly_one_of_incells_payload(self):
        with pytest.raises(LineageError):
            RegionPair(outcells=cells((0, 0)))
        with pytest.raises(LineageError):
            RegionPair(outcells=cells((0, 0)), incells=(cells((0, 0)),), payload=b"x")

    def test_needs_outcells(self):
        with pytest.raises(LineageError):
            RegionPair(outcells=np.empty((0, 2), dtype=np.int64), payload=b"x")


class TestBatches:
    def test_elementwise_alignment(self):
        with pytest.raises(LineageError):
            ElementwiseBatch(outcells=cells((0, 0)), incells=(cells((0, 0), (1, 1)),))

    def test_payload_batch_ndarray(self):
        batch = PayloadBatch(
            outcells=cells((0, 0), (1, 1)),
            payloads=np.zeros((2, 4), dtype=np.uint8),
        )
        assert batch.count == 2
        assert batch.payload_at(0) == b"\x00" * 4

    def test_payload_batch_list(self):
        batch = PayloadBatch(outcells=cells((0, 0)), payloads=[b"ab"])
        assert batch.payload_at(0) == b"ab"

    def test_payload_batch_misaligned(self):
        with pytest.raises(LineageError):
            PayloadBatch(outcells=cells((0, 0)), payloads=[b"a", b"b"])


    def test_region_batch_rejects_non_monotone_in_offsets(self):
        """First/last element checks alone let ``[0, 5, 3, 8]`` through, to
        die later as a raw NumPy error on the encode thread."""
        with pytest.raises(LineageError, match="non-decreasing"):
            RegionBatch(
                out_coords=np.zeros((3, 2), dtype=np.int64),
                out_offsets=np.asarray([0, 1, 2, 3]),
                in_coords=(np.zeros((8, 2), dtype=np.int64),),
                in_offsets=(np.asarray([0, 5, 3, 8]),),
            )

    def test_region_batch_rejects_non_monotone_payload_offsets(self):
        with pytest.raises(LineageError, match="non-decreasing"):
            RegionBatch(
                out_coords=np.zeros((3, 2), dtype=np.int64),
                out_offsets=np.asarray([0, 1, 2, 3]),
                payloads=b"x" * 8,
                payload_offsets=np.asarray([0, 5, 3, 8]),
            )


class TestBufferSink:
    def test_per_pair_rows_are_staged_then_sealed_into_batches(self):
        """Full and payload pairs mixed in one sink seal into one region
        batch each; counts are rows, before and after the seal."""
        sink = BufferSink()
        sink.add_pair(RegionPair(outcells=cells((0, 0), (0, 1)), incells=(cells((1, 1)),)))
        sink.add_pair(RegionPair(outcells=cells((2, 2)), payload=b"pp"))
        sink.add_pair(RegionPair(outcells=cells((3, 3)), incells=(cells((4, 4), (4, 5)),)))
        assert sink.n_pairs == 3
        full, pay = sink.region_batches
        assert (full.count, pay.count) == (2, 1)
        assert full.out_offsets.tolist() == [0, 2, 3]
        assert full.in_offsets[0].tolist() == [0, 1, 3]
        assert (pay.payloads, pay.payload_offsets.tolist()) == (b"pp", [0, 2])
        again = sink.region_batches  # sealing is idempotent
        assert len(again) == 2 and again[0] is full and again[1] is pay
        assert sink.n_pairs == 3

    def test_pairs_disagreeing_on_arity_or_rank_are_rejected(self):
        sink = BufferSink()
        sink.add_pair(RegionPair(outcells=cells((0, 0)), incells=(cells((1, 1)),)))
        with pytest.raises(LineageError, match="inputs"):
            sink.add_pair(
                RegionPair(outcells=cells((0, 0)), incells=(cells((1, 1)), cells((1, 1))))
            )
        sink.add_pair(RegionPair(outcells=cells((0, 0, 0)), incells=(cells((1, 1)),)))
        with pytest.raises(LineageError, match="dimensionality"):
            sink.region_batches

    def test_counts(self):
        sink = BufferSink()
        sink.add_pair(RegionPair(outcells=cells((0, 0)), incells=(cells((1, 1)),)))
        sink.add_elementwise(
            ElementwiseBatch(outcells=cells((0, 0), (1, 1)), incells=(cells((0, 0), (1, 1)),))
        )
        sink.add_payload_batch(
            PayloadBatch(outcells=cells((2, 2)), payloads=[b"p"])
        )
        assert sink.n_pairs == 4
        sink.clear()
        assert sink.n_pairs == 0


class TestFrontier:
    def test_add_and_count(self):
        f = Frontier((3, 3))
        f.add_coords(cells((0, 0), (2, 2), (0, 0)))
        assert f.count == 2
        assert (0, 0) in f
        assert (1, 1) not in f

    def test_packed_roundtrip(self):
        f = Frontier((3, 4))
        f.add_packed(np.asarray([0, 5, 11]))
        assert sorted(f.packed().tolist()) == [0, 5, 11]

    def test_full_and_empty(self):
        f = Frontier((2, 2))
        assert f.is_empty
        f.set_all()
        assert f.is_full
        assert Frontier.full((2, 2)).is_full

    def test_mask_shape_checked(self):
        with pytest.raises(QueryError):
            Frontier((2, 2), mask=np.zeros((3, 3), dtype=bool))

    @given(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 9)), max_size=60
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_frontier_is_a_set(self, points):
        f = Frontier((8, 10))
        if points:
            f.add_coords(np.asarray(points, dtype=np.int64))
        assert f.count == len(set(points))
        assert {tuple(c) for c in f.coords()} == set(points)


class TestLineageQuery:
    def test_path_coercion(self):
        q = LineageQuery(
            cells=cells((0, 0)),
            path=(("n1", 0), QueryStep("n2", 1)),
            direction=Direction.BACKWARD,
        )
        assert q.path[0] == QueryStep("n1", 0)
        assert q.path[1].input_idx == 1

    def test_empty_path_rejected(self):
        with pytest.raises(QueryError):
            LineageQuery(cells=cells((0, 0)), path=(), direction=Direction.FORWARD)


class TestStorageStrategy:
    def test_labels(self):
        assert FULL_ONE_B.label == "<-FullOne"
        assert MAP.label == "Map"
        assert BLACKBOX.label == "Blackbox"

    def test_stored_modes_need_encoding(self):
        with pytest.raises(LineageError):
            StorageStrategy(LineageMode.FULL)

    def test_unstored_modes_reject_encoding(self):
        with pytest.raises(LineageError):
            StorageStrategy(LineageMode.MAP, EncodingKind.ONE, Orientation.BACKWARD)

    def test_payload_cannot_be_forward(self):
        with pytest.raises(LineageError):
            StorageStrategy(LineageMode.PAY, EncodingKind.ONE, Orientation.FORWARD)

    def test_forward_label(self):
        s = StorageStrategy(LineageMode.FULL, EncodingKind.MANY, Orientation.FORWARD)
        assert s.label == "->FullMany"
