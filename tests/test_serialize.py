"""Unit + property tests for the binary serialization layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import codecs


class TestUvarint:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, value):
        buf = codecs.encode_uvarint(value)
        out, pos = codecs.decode_uvarint(buf)
        assert out == value
        assert pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(StorageError):
            codecs.encode_uvarint(-1)

    def test_truncated(self):
        buf = codecs.encode_uvarint(300)[:-1]
        with pytest.raises(StorageError):
            codecs.decode_uvarint(buf)

    def test_small_values_one_byte(self):
        for v in (0, 1, 127):
            assert len(codecs.encode_uvarint(v)) == 1


class TestIntArray:
    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.int64)
        buf = codecs.encode_cells(arr)
        out, pos = codecs.decode_cells(buf)
        assert (out == arr).all()
        assert pos == len(buf)

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_nbytes_prediction_exact(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert codecs.cells_nbytes(arr) == len(codecs.encode_cells(arr))

    def test_sorted_arrays_compress(self):
        dense_sorted = np.arange(1000, dtype=np.int64) + 10**9
        shuffled = dense_sorted.copy()
        np.random.default_rng(0).shuffle(shuffled)
        assert len(codecs.encode_cells(dense_sorted)) < len(
            codecs.encode_cells(shuffled)
        )

    def test_sorted_deltas_use_fixed_width_residuals(self):
        # wide stride: span-proportional bitmaps lose, delta still wins
        arr = np.arange(100, dtype=np.int64) * 300
        # header: tag+flags+count(1)+width(1)+base(8) = 12, then 99 deltas
        assert len(codecs.encode_cells(arr)) == 12 + 99 * 2

    def test_dense_strided_arrays_bitmap_code(self):
        arr = np.arange(100, dtype=np.int64) * 2  # stride 2: one bit per slot
        buf = codecs.encode_cells(arr)
        # tag+count(1)+mask-bytes(1)+base(8)+25-byte mask = 36 bytes
        assert len(buf) == 36
        out, pos = codecs.decode_cells(buf)
        assert (out == arr).all() and pos == len(buf)

    def test_contiguous_arrays_interval_code(self):
        arr = np.arange(100, dtype=np.int64)
        buf = codecs.encode_cells(arr)
        # one run: tag+count(1)+runs(1)+widths(2)+base(8)+len(1) = 14 bytes
        assert len(buf) == 14
        out, pos = codecs.decode_cells(buf)
        assert (out == arr).all() and pos == len(buf)

    def test_int64_span_overflow_falls_back_to_raw(self):
        # np.diff wraps negative across the full int64 span; the encoder
        # used to raise StorageError mid-workflow, now it raw-codes.
        for arr in (
            np.asarray([-(2**63), 2**63 - 1], dtype=np.int64),
            np.asarray([2**63 - 1, -(2**63), 17], dtype=np.int64),
        ):
            buf = codecs.encode_cells(arr)
            out, pos = codecs.decode_cells(buf)
            assert (out == arr).all() and pos == len(buf)
            assert codecs.cells_nbytes(arr) == len(buf)

    def test_decode_offset_chaining(self):
        a = np.asarray([1, 2, 3], dtype=np.int64)
        b = np.asarray([9], dtype=np.int64)
        buf = codecs.encode_cells(a) + codecs.encode_cells(b)
        out_a, pos = codecs.decode_cells(buf)
        out_b, end = codecs.decode_cells(buf, pos)
        assert (out_a == a).all() and (out_b == b).all()
        assert end == len(buf)

    def test_bad_magic(self):
        with pytest.raises(StorageError):
            codecs.decode_cells(b"\x00\x00\x00")

    def test_truncated_payload(self):
        buf = codecs.encode_cells(np.asarray([1, 5, 9]))
        with pytest.raises(StorageError):
            codecs.decode_cells(buf[:-1])

    def test_empty(self):
        buf = codecs.encode_cells(np.empty(0, dtype=np.int64))
        out, pos = codecs.decode_cells(buf)
        assert out.size == 0
        assert pos == len(buf)

    def test_singleton_is_twelve_bytes(self):
        # the vectorised singleton encoder in lineage_store relies on this
        assert len(codecs.encode_cells(np.asarray([12345]))) == 12
