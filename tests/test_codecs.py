"""Unit + property tests for the lineage codec subsystem.

Covers: per-codec round-trips and exact size prediction, smallest-codec
selection (including the legacy-stable singleton/empty layouts), the
decode-free probes (``contains_any`` / ``intersect`` / ``decoded_bounds`` /
``skip_cells``) against decode-based references, old-format compatibility
with byte strings captured from the pre-codec encoder, and adversarial
inputs (duplicates, negatives, full-int64 spans, truncation), and the
codec footprint on the evaluation workloads' lineage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import coords as C
from repro.errors import StorageError
from repro.ops.convolution import dilate_coords
from repro.storage import codecs
from repro.storage.codecs import BITMAP, DELTA, INTERVAL, RAW

ALL_CODECS = (DELTA, INTERVAL, BITMAP, RAW)

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def arr_of(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


@st.composite
def cell_sets(draw):
    """Mixed workload: scattered, run-heavy, dense-ragged, and extreme sets."""
    kind = draw(st.sampled_from(["scattered", "runs", "dense", "extreme"]))
    if kind == "scattered":
        values = draw(st.lists(st.integers(-(2**40), 2**40), max_size=120))
        return arr_of(values)
    if kind == "runs":
        n_runs = draw(st.integers(1, 6))
        parts, cursor = [], draw(st.integers(-(2**30), 2**30))
        for _ in range(n_runs):
            cursor += draw(st.integers(2, 50))
            length = draw(st.integers(1, 60))
            parts.append(np.arange(cursor, cursor + length, dtype=np.int64))
            cursor += length
        return np.concatenate(parts)
    if kind == "dense":
        # ragged dense mask: ~half the positions of a short span, ascending
        base = draw(st.integers(-(2**40), 2**40))
        span = draw(st.integers(2, 400))
        offsets = draw(
            st.lists(st.integers(0, span - 1), min_size=1, max_size=span, unique=True)
        )
        return base + np.sort(arr_of(offsets))
    values = draw(st.lists(int64s, max_size=10))
    return arr_of(values)


class TestSelection:
    def test_empty_and_singleton_keep_legacy_layout(self):
        # the 3-byte empty and 12-byte singleton delta layouts are relied
        # upon by encode_singleton_int_arrays and old store files
        assert codecs.encode_cells(arr_of([])) == bytes.fromhex("490000")
        assert (
            codecs.encode_cells(arr_of([12345]))
            == bytes.fromhex("490101013930000000000000")
        )

    def test_contiguous_selects_interval(self):
        buf = codecs.encode_cells(np.arange(500, dtype=np.int64))
        assert buf[0] == codecs.TAG_INTERVAL
        assert len(buf) < 20

    def test_scattered_sorted_selects_delta(self):
        # wide gaps: one delta byte per cell beats a span-proportional bitmap
        buf = codecs.encode_cells(np.arange(100, dtype=np.int64) * 200)
        assert buf[0] == codecs.TAG_DELTA

    def test_dense_strided_selects_bitmap(self):
        # stride 3 fragments the interval run table and costs a delta byte
        # per cell; the bitmap pays one *bit* per position instead
        arr = np.arange(100, dtype=np.int64) * 3
        buf = codecs.encode_cells(arr)
        assert buf[0] == codecs.TAG_BITMAP
        assert len(buf) < codecs.DELTA.nbytes(arr)
        assert len(buf) < codecs.INTERVAL.nbytes(arr)

    def test_overflowing_span_selects_raw(self):
        buf = codecs.encode_cells(arr_of([-(2**63), 2**63 - 1]))
        assert buf[0] == codecs.TAG_RAW

    def test_descending_extreme_pair_not_mistaken_for_run(self):
        """np.diff of [2**63-1, -2**63] wraps to +1; interval eligibility
        must check real sortedness, not infer it from the diffs."""
        for values in ([2**63 - 1, -(2**63)], [2**63 - 1, -(2**63) + 5]):
            arr = arr_of(values)
            assert INTERVAL.nbytes(arr) is None
            assert BITMAP.nbytes(arr) is None
            buf = codecs.encode_cells(arr)
            assert buf[0] == codecs.TAG_RAW
            out, pos = codecs.decode_cells(buf)
            assert (out == arr).all() and pos == len(buf)
            lo, hi, n = codecs.decoded_bounds(buf)
            assert (lo, hi, n) == (int(arr.min()), int(arr.max()), arr.size)
            assert codecs.contains_any(buf, np.sort(arr)[:1])

    @given(cell_sets())
    @settings(max_examples=150, deadline=None)
    def test_selection_is_smallest_eligible(self, arr):
        buf = codecs.encode_cells(arr)
        chosen = len(buf)
        for codec in ALL_CODECS:
            size = codec.nbytes(arr)
            if size is not None and arr.size > 1:
                assert chosen <= size

    @given(cell_sets())
    @settings(max_examples=150, deadline=None)
    def test_nbytes_prediction_exact(self, arr):
        assert codecs.cells_nbytes(arr) == len(codecs.encode_cells(arr))


class TestRoundtrip:
    @given(cell_sets())
    @settings(max_examples=200, deadline=None)
    def test_encode_cells_roundtrip(self, arr):
        buf = codecs.encode_cells(arr)
        out, pos = codecs.decode_cells(buf)
        assert (out == arr).all()
        assert pos == len(buf)
        assert codecs.skip_cells(buf) == len(buf)

    @given(cell_sets())
    @settings(max_examples=100, deadline=None)
    def test_per_codec_roundtrip_where_eligible(self, arr):
        for codec in ALL_CODECS:
            if codec.nbytes(arr) is None:
                with pytest.raises(StorageError):
                    codec.encode(arr)
                continue
            buf = codec.encode(arr)
            assert buf[0] == codec.tag
            assert len(buf) == codec.nbytes(arr)
            out, pos = codec.decode(buf)
            assert (out == arr).all()
            assert pos == len(buf)

    def test_duplicates_and_negatives(self):
        for values in ([5, 5, 5, 6, 7], [-9, -9, 0, 3], [0, -1, -2], [7] * 40):
            arr = arr_of(values)
            out, _ = codecs.decode_cells(codecs.encode_cells(arr))
            assert (out == arr).all()

    def test_interval_requires_strictly_increasing(self):
        assert INTERVAL.nbytes(arr_of([1, 2, 2, 3])) is None
        assert INTERVAL.nbytes(arr_of([3, 2, 1])) is None
        assert INTERVAL.nbytes(arr_of([4])) is None
        assert INTERVAL.nbytes(arr_of([1, 2, 4, 5])) is not None

    def test_mixed_codec_value_chaining(self):
        parts = [
            np.arange(30, dtype=np.int64),  # interval
            arr_of([9, -3, 14]),  # delta (unsorted)
            np.arange(40, dtype=np.int64) * 3 + 100,  # bitmap (dense strided)
            arr_of([-(2**63), 2**63 - 1]),  # raw
        ]
        buf = b"".join(codecs.encode_cells(p) for p in parts)
        pos = 0
        for expected in parts:
            out, pos = codecs.decode_cells(buf, pos)
            assert (out == expected).all()
        assert pos == len(buf)
        # skip-based traversal reaches the same offsets without decoding
        pos = 0
        for _ in parts:
            pos = codecs.skip_cells(buf, pos)
        assert pos == len(buf)


class TestInSituProbes:
    @given(cell_sets(), st.lists(st.integers(-(2**41), 2**41), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_probes_match_decoded_reference(self, arr, query):
        sorted_query = np.sort(arr_of(query))
        for codec in ALL_CODECS:
            if codec.nbytes(arr) is None:
                continue
            buf = codec.encode(arr)
            present = np.isin(sorted_query, arr)
            assert codec.contains_any(buf, 0, sorted_query) == bool(present.any())
            assert (codec.intersect(buf, 0, sorted_query) == sorted_query[present]).all()

    @given(cell_sets())
    @settings(max_examples=150, deadline=None)
    def test_bounds_match_decoded_reference(self, arr):
        buf = codecs.encode_cells(arr)
        lo, hi, n = codecs.decoded_bounds(buf)
        assert n == arr.size
        if arr.size:
            assert lo == int(arr.min()) and hi == int(arr.max())
        else:
            assert lo > hi

    def test_probe_hits_at_value_offset(self):
        prefix = codecs.encode_cells(arr_of([1, 2, 3]))
        target = codecs.encode_cells(np.arange(100, 200, dtype=np.int64))
        buf = prefix + target
        offset = codecs.skip_cells(buf, 0)
        assert codecs.contains_any(buf, arr_of([150]), offset)
        assert not codecs.contains_any(buf, arr_of([50]), offset)
        assert codecs.decoded_bounds(buf, offset) == (100, 199, 100)

    def test_empty_query(self):
        buf = codecs.encode_cells(np.arange(10, dtype=np.int64))
        empty = np.empty(0, dtype=np.int64)
        assert not codecs.contains_any(buf, empty)
        assert codecs.intersect(buf, empty).size == 0

    def test_interval_probes_with_8_byte_lengths_stay_integer(self):
        """A hand-crafted value with lw=8 (only reachable for >2**32-cell
        runs in practice): int64 + uint64 must not promote the run-end
        table to float64 and round the comparisons."""
        import struct

        buf = (
            bytes([codecs.TAG_INTERVAL])
            + codecs.encode_uvarint(4)  # n
            + codecs.encode_uvarint(2)  # r
            + bytes([1, 8])  # gap width 1, length width 8
            + struct.pack("<q", 10)  # base
            + bytes([5])  # gap: next run starts at 11 + 5 = 16
            + struct.pack("<QQ", 1, 1)  # lens - 1
        )
        out, pos = codecs.decode_cells(buf)
        assert out.tolist() == [10, 11, 16, 17] and pos == len(buf)
        assert codecs.contains_any(buf, arr_of([11]))
        assert codecs.contains_any(buf, arr_of([17]))
        assert not codecs.contains_any(buf, arr_of([12, 15, 18]))
        assert codecs.intersect(buf, arr_of([10, 12, 16])).tolist() == [10, 16]


class TestBitmap:
    """Wire-format and eligibility specifics of the dense-mask codec."""

    def test_wire_format_golden_bytes(self):
        # {10, 12, 13, 17}: base 10, span 8, one mask byte 0b10001101
        buf = BITMAP.encode(arr_of([10, 12, 13, 17]))
        assert buf == bytes.fromhex("42" "04" "01" "0a00000000000000" "8d")
        out, pos = BITMAP.decode(buf)
        assert out.tolist() == [10, 12, 13, 17] and pos == len(buf)
        assert BITMAP.skip(buf) == len(buf)
        assert BITMAP.bounds(buf) == (10, 17, 4)

    def test_requires_strictly_increasing(self):
        assert BITMAP.nbytes(arr_of([1, 2, 2, 3])) is None
        assert BITMAP.nbytes(arr_of([3, 2, 1])) is None
        assert BITMAP.nbytes(arr_of([4])) is None
        assert BITMAP.nbytes(arr_of([1, 2, 4, 5])) is not None

    def test_span_cap_makes_wide_sets_ineligible(self):
        wide = arr_of([0, codecs._BITMAP_MAX_SPAN])
        assert BITMAP.nbytes(wide) is None
        with pytest.raises(StorageError):
            BITMAP.encode(wide)
        assert BITMAP.nbytes(arr_of([0, codecs._BITMAP_MAX_SPAN - 1])) is not None

    def test_probes_are_byte_masking_on_window_edges(self):
        arr = arr_of([100, 103, 104, 110])
        buf = BITMAP.encode(arr)
        # below, between, above, and exact hits — no decode needed
        assert not BITMAP.contains_any(buf, 0, arr_of([0, 99, 101, 102, 105, 111]))
        assert BITMAP.contains_any(buf, 0, arr_of([99, 104]))
        assert BITMAP.intersect(buf, 0, arr_of([99, 100, 104, 110, 200])).tolist() == [
            100,
            104,
            110,
        ]
        # duplicates in the query are preserved, like every other codec
        assert BITMAP.intersect(buf, 0, arr_of([103, 103])).tolist() == [103, 103]

    def test_base_near_int64_max(self):
        """The last mask byte's pad bits address past int64 for a set
        ending at 2**63 - 1; probes must clamp, not overflow."""
        arr = arr_of([2**63 - 4, 2**63 - 2, 2**63 - 1])
        buf = codecs.encode_cells(arr)
        assert buf[0] == codecs.TAG_BITMAP
        out, _ = codecs.decode_cells(buf)
        assert out.tolist() == arr.tolist()
        assert BITMAP.bounds(buf) == (2**63 - 4, 2**63 - 1, 3)
        assert BITMAP.intersect(buf, 0, arr_of([2**63 - 3, 2**63 - 1])).tolist() == [
            2**63 - 1
        ]
        assert not BITMAP.contains_any(buf, 0, arr_of([2**63 - 3]))
        probe = codecs.BatchProbe(buf, arr_of([0]))
        assert probe.contains_any(arr_of([2**63 - 2])).tolist() == [True]
        hit_ids, parts = probe.intersect(arr_of([2**63 - 4, 2**63 - 3]))
        assert hit_ids.tolist() == [0] and parts[0].tolist() == [2**63 - 4]

    def test_negative_base(self):
        arr = arr_of([-20, -18, -15])
        buf = BITMAP.encode(arr)
        out, _ = BITMAP.decode(buf)
        assert out.tolist() == arr.tolist()
        assert BITMAP.bounds(buf) == (-20, -15, 3)
        assert BITMAP.intersect(buf, 0, arr_of([-18, -17])).tolist() == [-18]

    def test_truncation_raises(self):
        buf = BITMAP.encode(np.arange(50, dtype=np.int64) * 2)
        with pytest.raises(StorageError):
            codecs.decode_cells(buf[:-1])

    def test_popcount_mismatch_raises(self):
        buf = bytearray(BITMAP.encode(arr_of([5, 7, 9])))
        buf[1] = 7  # inflate the cell count past the mask's popcount
        with pytest.raises(StorageError):
            codecs.decode_cells(bytes(buf))

    def test_ragged_dense_mask_beats_interval_and_delta(self):
        rng = np.random.default_rng(3)
        span = 4096
        mask = rng.random(span) < 0.5
        mask[0] = mask[-1] = True
        arr = np.flatnonzero(mask).astype(np.int64)
        bitmap = BITMAP.nbytes(arr)
        assert bitmap is not None
        assert 2 * bitmap <= INTERVAL.nbytes(arr)
        assert 2 * bitmap <= DELTA.nbytes(arr)
        assert codecs.encode_cells(arr)[0] == codecs.TAG_BITMAP


class TestOldFormatCompatibility:
    # byte strings captured from the pre-codec encoder (seed commit)
    LEGACY = {
        "sorted_dense": (
            "49013201e803000000000000" + "01" * 49,
            np.arange(50, dtype=np.int64) + 1000,
        ),
        "unsorted": ("49000501fdffffffffffffff0c0011030a", arr_of([9, -3, 14, 0, 7])),
        "single": ("490101013930000000000000", arr_of([12345])),
        "empty": ("490000", arr_of([])),
        "wide_sorted": (
            "490103080000000000ffffff00000000000100000000000000010000",
            arr_of([-(2**40), 0, 2**40]),
        ),
    }

    @pytest.mark.parametrize("name", sorted(LEGACY))
    def test_legacy_bytes_decode(self, name):
        hx, expected = self.LEGACY[name]
        buf = bytes.fromhex(hx)
        out, pos = codecs.decode_cells(buf)
        assert (out == expected).all()
        assert pos == len(buf)

    @pytest.mark.parametrize("name", sorted(LEGACY))
    def test_legacy_bytes_support_probes(self, name):
        hx, expected = self.LEGACY[name]
        buf = bytes.fromhex(hx)
        if expected.size:
            probe = np.sort(expected[:1])
            assert codecs.contains_any(buf, probe)
            lo, hi, n = codecs.decoded_bounds(buf)
            assert (lo, hi, n) == (int(expected.min()), int(expected.max()), expected.size)


class TestErrors:
    def test_bad_tag(self):
        with pytest.raises(StorageError):
            codecs.decode_cells(b"\x00\x01\x02")

    def test_empty_buffer(self):
        with pytest.raises(StorageError):
            codecs.decode_cells(b"")

    @pytest.mark.parametrize(
        "arr",
        [np.arange(64, dtype=np.int64), arr_of([5, 1, 9]), arr_of([-(2**63), 2**63 - 1])],
        ids=["interval", "delta", "raw"],
    )
    def test_truncation_raises(self, arr):
        buf = codecs.encode_cells(arr)
        with pytest.raises(StorageError):
            codecs.decode_cells(buf[:-1])

    def test_interval_corrupt_run_count(self):
        buf = bytearray(INTERVAL.encode(np.arange(10, dtype=np.int64)))
        assert buf[0] == codecs.TAG_INTERVAL
        buf[1] = 200  # inflate the cell count past what the runs cover
        with pytest.raises(StorageError):
            codecs.decode_cells(bytes(buf))


# -- footprint on the evaluation workloads -------------------------------------


def codec_workloads(astro_shape=(128, 500), genomics_scale=25) -> dict:
    """Lineage value sets of the two evaluation workloads: per-cell 9x9
    convolution neighbourhoods and 200-cell reshape blocks on the astronomy
    shape (contiguous), and the genomics ``train_model`` fanin — one of 56
    feature columns across every patient (stride 56, never contiguous)."""
    rng = np.random.default_rng(7)
    r = np.arange(-4, 5)
    offsets = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
    centres = zip(rng.integers(0, astro_shape[0], 1500), rng.integers(0, astro_shape[1], 1500))
    size = int(np.prod(astro_shape))
    return {
        "astro-conv": [
            np.sort(C.pack_coords(dilate_coords(np.asarray([c]), offsets, astro_shape), astro_shape))
            for c in centres
        ],
        "astro-reshape": [
            np.arange(s, s + 200, dtype=np.int64) for s in rng.integers(0, size - 200, 400)
        ],
        "genomics-train": [
            np.arange(100 * genomics_scale, dtype=np.int64) * 56 + f for f in range(56)
        ],
    }


def total_bytes(entries, codec=None):
    """Bytes of ``entries`` forced into ``codec`` (None if any is
    ineligible), or as the automatic selection encodes them."""
    if codec is None:
        return sum(codecs.cells_nbytes(arr) for arr in entries)
    sizes = [codec.nbytes(arr) for arr in entries]
    return None if None in sizes else sum(sizes)


class TestEvaluationFootprint:
    @pytest.fixture(scope="class")
    def workloads(self):
        return codec_workloads()

    @pytest.mark.parametrize("name", ["astro-conv", "astro-reshape"])
    def test_interval_halves_delta_on_contiguous_lineage(self, workloads, name):
        entries = workloads[name]
        interval = total_bytes(entries, INTERVAL)
        assert interval is not None
        assert 2 * interval <= total_bytes(entries, DELTA)
        assert total_bytes(entries) <= interval

    def test_selection_never_loses_on_strided_lineage(self, workloads):
        entries = workloads["genomics-train"]
        assert total_bytes(entries) <= total_bytes(entries, DELTA)
        assert total_bytes(entries) <= total_bytes(entries, RAW)

    @pytest.mark.parametrize("i, density", enumerate([0.35, 0.5, 0.65]))
    def test_bitmap_halves_interval_and_delta_on_ragged_masks(self, i, density):
        # 64 masks of span 512 per density, drawn in density order from one stream
        masks = np.random.default_rng(5).random((3, 64, 512))[i] < density
        masks[:, [0, -1]] = True
        entries = [np.flatnonzero(mask).astype(np.int64) for mask in masks]
        assert all(codecs.encode_cells(arr)[0] == codecs.TAG_BITMAP for arr in entries)
        bitmap = total_bytes(entries, BITMAP)
        assert 2 * bitmap <= total_bytes(entries, INTERVAL)
        assert 2 * bitmap <= total_bytes(entries, DELTA)
