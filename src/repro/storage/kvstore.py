"""Log-structured hash store for region lineage.

The paper stores region lineage in per-operator BerkeleyDB hashtables with
fsync, logging and concurrency control turned off, because lineage is a pure
cache that can always be rebuilt by re-running operators (§VI-A).  We
reproduce that contract with two building blocks:

:class:`HashStore`
    A bulk-loaded multimap from int64 keys (bit-packed cell coordinates) to
    small byte-string values.  Writes append columnar chunks (a key vector
    plus a concatenated value buffer with offsets); :meth:`finalize` sorts
    them into one segment so lookups are vectorised ``searchsorted`` probes.
    Duplicate keys are kept side by side — the multimap view is exactly the
    paper's "on a key collision ... merge the two hash values".

:class:`BlobStore`
    Append-only storage for shared byte blobs (e.g. the single input-cell
    entry that every ``FullOne`` key references).

Both report their serialized footprint (:meth:`disk_bytes`) and can be
flushed to real files (segment containers, :mod:`repro.storage.segment`)
so benchmarks charge honest storage costs.  Values are opaque byte strings
here — codec-tagged cell sets (see :mod:`repro.storage.codecs`) and legacy
delta-only values flush and load identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis import lockcheck
from repro.arrays.coords import expand_ranges
from repro.errors import StorageError
from repro.storage import codecs
from repro.storage import segment as seglib

__all__ = ["HashStore", "BlobStore"]


@dataclass
class _Chunk:
    keys: np.ndarray  # int64 (n,)
    offsets: np.ndarray  # int64 (n + 1,) into buf
    buf: bytes  # any bytes-like (loaded segments pass an mmap-backed view)


class HashStore:
    """Bulk-loaded int64 → bytes multimap (see module docstring)."""

    def __init__(self, name: str = "hashstore"):
        self.name = name
        self._chunks: list[_Chunk] = []
        self._segment: _Chunk | None = None
        self._dirty = False
        # guards the pending->segment merge so concurrent readers (serving
        # sessions) cannot race a finalize; writes themselves stay
        # single-threaded (the ingest path), per the serving contract
        self._flock = lockcheck.make_rlock("hashstore.finalize")

    # -- writes -------------------------------------------------------------

    def put_many(self, keys: np.ndarray, buf: bytes, offsets: np.ndarray) -> None:
        """Append ``len(keys)`` entries; value ``i`` is ``buf[offsets[i]:offsets[i+1]]``."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.shape != (keys.size + 1,):
            raise StorageError("offsets must have len(keys) + 1 entries")
        if keys.size == 0:
            return
        if offsets[0] != 0 or offsets[-1] != len(buf) or (np.diff(offsets) < 0).any():
            raise StorageError("offsets must be non-decreasing and span buf")
        if type(buf) is not bytes:  # zero-copy when already immutable
            buf = bytes(buf)
        # szlint: ignore[SZ006] -- ingest is single-writer by contract; _flock only guards the finalize merge
        self._chunks.append(_Chunk(keys, offsets, buf))
        self._dirty = True

    def put_many_fixed(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append entries whose values are int64 scalars (e.g. blob refs)."""
        values = np.ascontiguousarray(values, dtype=np.int64)
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if values.shape != keys.shape:
            raise StorageError("keys and values must align")
        if keys.size == 0:
            return
        offsets = np.arange(keys.size + 1, dtype=np.int64) * 8
        self.put_many(keys, values.astype("<i8").tobytes(), offsets)

    def put_one(self, key: int, value: bytes) -> None:
        self.put_many(
            np.asarray([key], dtype=np.int64),
            value,
            np.asarray([0, len(value)], dtype=np.int64),
        )

    def extend_from(self, other: "HashStore") -> None:
        """Append every entry of ``other`` (the generational merge writer).

        Consumes the other store's finalized columns in one chunk — the
        multimap contract keeps duplicate keys side by side, so merging two
        generations is exactly concatenation followed by the usual sort in
        :meth:`finalize`.  The value buffer is copied (``put_many`` lifts it
        to ``bytes``), so the merged store outlives the other store's
        backing segment."""
        keys, offsets, buf = other.columns()
        if keys.size:
            self.put_many(keys, buf, offsets)

    # -- segment maintenance ----------------------------------------------------

    def finalize(self) -> None:
        """Sort every pending chunk into the single query segment."""
        if not self._dirty:  # racy fast path; re-checked under the lock
            return
        with self._flock:
            if not self._dirty:
                return
            chunks = list(self._chunks)
            if self._segment is not None:
                chunks.append(self._segment)
            total = sum(c.keys.size for c in chunks)
            if total == 0:
                self._segment = None
                self._chunks = []
                self._dirty = False
                return
            keys = np.concatenate([c.keys for c in chunks])
            lengths = np.concatenate([np.diff(c.offsets) for c in chunks])
            buf = b"".join(c.buf for c in chunks)
            starts = np.concatenate(
                [c.offsets[:-1] + base for c, base in zip(chunks, _bases(chunks))]
            )
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            lengths = lengths[order]
            starts = starts[order]
            new_offsets = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(lengths, out=new_offsets[1:])
            new_buf = _gather_slices(buf, starts, lengths, int(new_offsets[-1]))
            self._segment = _Chunk(keys, new_offsets, new_buf)
            self._chunks = []
            self._dirty = False

    # -- reads ----------------------------------------------------------------

    def lookup_many(self, query_keys: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
        """Probe for ``query_keys``; returns ``(query_idx, values)``.

        ``values[i]`` is one stored value whose key equals
        ``query_keys[query_idx[i]]``.  A key hit by ``k`` stored entries
        yields ``k`` result rows (the multimap view).
        """
        self.finalize()
        query_keys = np.ascontiguousarray(query_keys, dtype=np.int64)
        if self._segment is None or query_keys.size == 0:
            return np.empty(0, dtype=np.int64), []
        seg = self._segment
        lo = np.searchsorted(seg.keys, query_keys, side="left")
        hi = np.searchsorted(seg.keys, query_keys, side="right")
        counts = hi - lo
        hits = np.nonzero(counts)[0]
        if hits.size == 0:
            return np.empty(0, dtype=np.int64), []
        qidx = np.repeat(hits, counts[hits])
        entry_ids = expand_ranges(lo[hits], counts[hits])
        values = [
            bytes(seg.buf[seg.offsets[e]: seg.offsets[e + 1]]) for e in entry_ids
        ]
        return qidx, values

    def lookup_refs(self, query_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`lookup_many` but decodes fixed-width int64 values."""
        self.finalize()
        query_keys = np.ascontiguousarray(query_keys, dtype=np.int64)
        if self._segment is None or query_keys.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        seg = self._segment
        lo = np.searchsorted(seg.keys, query_keys, side="left")
        hi = np.searchsorted(seg.keys, query_keys, side="right")
        counts = hi - lo
        hits = np.nonzero(counts)[0]
        if hits.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        qidx = np.repeat(hits, counts[hits])
        entry_ids = expand_ranges(lo[hits], counts[hits])
        starts = seg.offsets[entry_ids]
        widths = seg.offsets[entry_ids + 1] - starts
        if (widths != 8).any():
            raise StorageError("lookup_refs used on variable-width values")
        raw = _gather_slices(seg.buf, starts, widths, int(widths.sum()))
        refs = np.frombuffer(raw, dtype="<i8").astype(np.int64)
        return qidx, refs

    def scan(self):
        """Iterate ``(key, value)`` over every entry (mismatched-index path)."""
        self.finalize()
        if self._segment is None:
            return
        seg = self._segment
        for i in range(seg.keys.size):
            yield int(seg.keys[i]), bytes(seg.buf[seg.offsets[i]: seg.offsets[i + 1]])

    def items_fixed(self) -> tuple[np.ndarray, np.ndarray]:
        """All entries of a fixed-width store as aligned ``(keys, values)``
        int64 vectors — the batch-scan counterpart of :meth:`scan`.

        Views over the finalized segment (no copy on little-endian hosts);
        raises when any value is not exactly 8 bytes (use :meth:`scan` for
        variable-width values).
        """
        self.finalize()
        if self._segment is None or self._segment.keys.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        seg = self._segment
        if (np.diff(seg.offsets) != 8).any():
            raise StorageError("items_fixed used on variable-width values")
        values = np.frombuffer(seg.buf, dtype="<i8", count=seg.keys.size).astype(
            np.int64, copy=False
        )
        return seg.keys, values

    def columns(self) -> tuple[np.ndarray, np.ndarray, bytes]:
        """The finalized columnar state ``(keys, offsets, buf)`` — entry
        ``i``'s value is ``buf[offsets[i]:offsets[i+1]]``.  This is the
        whole-store scan surface: consumers batch over it instead of
        cursoring entry by entry."""
        self.finalize()
        if self._segment is None:
            return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64), b""
        seg = self._segment
        return seg.keys, seg.offsets, seg.buf

    def keys_array(self) -> np.ndarray:
        """All stored keys (sorted, with duplicates)."""
        self.finalize()
        if self._segment is None:
            return np.empty(0, dtype=np.int64)
        return self._segment.keys

    # -- accounting --------------------------------------------------------------

    @property
    def n_entries(self) -> int:
        pending = sum(c.keys.size for c in self._chunks)
        return pending + (self._segment.keys.size if self._segment is not None else 0)

    def disk_bytes(self) -> int:
        """Serialized size: 8 bytes per key plus the value payload."""
        total = 0
        for chunk in self._chunks + ([self._segment] if self._segment else []):
            total += chunk.keys.size * 8 + len(chunk.buf)
        return total

    def dump(self, writer: seglib.SegmentWriter, prefix: str = "") -> None:
        """Write the finalized segment's columns into a segment file."""
        self.finalize()
        if self._segment is None:
            writer.add_json(prefix + "meta", {"n": 0})
            return
        seg = self._segment
        writer.add_json(prefix + "meta", {"n": int(seg.keys.size)})
        writer.add_array(prefix + "keys", seg.keys)
        writer.add_array(prefix + "offsets", seg.offsets)
        writer.add_bytes(prefix + "buf", seg.buf)

    @classmethod
    def from_segment(
        cls, seg: seglib.Segment, prefix: str = "", name: str = "hashstore"
    ) -> "HashStore":
        """Rehydrate from mmap-backed sections — no copy, no decode."""
        store = cls(name)
        if seg.json(prefix + "meta")["n"]:
            store._segment = _Chunk(
                seg.array(prefix + "keys"),
                seg.array(prefix + "offsets"),
                seg.view(prefix + "buf"),
            )
        return store

    def flush(self, path: str) -> int:
        """Write the finalized segment to ``path``; returns bytes written."""
        writer = seglib.SegmentWriter()
        self.dump(writer)
        return writer.write(path)

    @classmethod
    def load(cls, path: str, name: str = "hashstore") -> "HashStore":
        return cls.from_segment(seglib.Segment.open(path), "", name)

    def clear(self) -> None:
        with self._flock:
            self._chunks = []
            self._segment = None
            self._dirty = False


class BlobStore:
    """Append-only byte-blob storage with integer ids.

    The finalized state is one concatenated heap plus start/end offsets —
    the same shape :class:`~repro.storage.codecs.BatchProbe` consumes and
    the segment format persists, so a segment-backed load is a zero-copy
    rehydration (the heap stays an mmap view).  Every write is a heap
    extension (:meth:`append_buffer`); there is no pending state.
    """

    def __init__(self, name: str = "blobs"):
        self.name = name
        self._buf = b""  # any bytes-like; loaded segments pass an mmap view
        self._starts = np.empty(0, dtype=np.int64)
        self._ends = np.empty(0, dtype=np.int64)
        self._probes: dict = {}
        #: ``(segment, prefix, fields)`` when persisted lowered tables are
        #: available but not yet hydrated (built into a probe on first scan)
        self._probe_source: tuple | None = None
        # serializes heap extension and probe construction so concurrent
        # reader threads cannot race a cache fill (serving contract)
        self._flock = lockcheck.make_rlock("blobstore.finalize")

    def append(self, data: bytes) -> int:
        """Append one blob — :meth:`append_buffer` with ``n = 1``."""
        return int(self.append_buffer(data, [len(data)])[0])

    def append_buffer(self, buf, lengths: np.ndarray) -> np.ndarray:
        """Append many blobs at once from one concatenated buffer.

        Blob ``i`` spans ``lengths[i]`` bytes starting where blob ``i - 1``
        ended; returns the assigned ids.  One heap extension, no per-blob
        Python objects — the only writer the capture path uses.
        """
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if (lengths < 0).any():
            raise StorageError("blob lengths must be non-negative")
        if int(lengths.sum()) != len(buf):
            raise StorageError("blob lengths do not span the buffer")
        if lengths.size == 0:
            return np.empty(0, dtype=np.int64)
        with self._flock:
            base = self._ends.size
            if not isinstance(self._buf, bytearray):
                self._buf = bytearray(self._buf)
            shift = len(self._buf)
            self._buf += buf
            ends = shift + np.cumsum(lengths)
            self._starts = np.concatenate([self._starts, ends - lengths])
            self._ends = np.concatenate([self._ends, ends])
            self._probes = {}
            self._probe_source = None
            return np.arange(base, base + lengths.size, dtype=np.int64)

    def extend_from(self, other: "BlobStore") -> int:
        """Append every blob of ``other``; returns the id *base* — the
        offset callers must add to the other store's blob ids (refs into a
        merged blob heap shift by however many blobs preceded them).  The
        heap bytes are copied, so the merge outlives the other store's
        backing segment.  This is the generational merge writer for the
        ``FullOne`` layouts.

        The heap is kept as a ``bytearray`` while extending (one upgrade
        copy, then amortised appends), so absorbing g generations costs
        O(total bytes), not O(g * total)."""
        with self._flock:
            base = self._ends.size
            if other._ends.size:
                if not isinstance(self._buf, bytearray):
                    self._buf = bytearray(self._buf)
                shift = len(self._buf)
                self._buf += bytes(other._buf)
                self._starts = np.concatenate([self._starts, other._starts + shift])
                self._ends = np.concatenate([self._ends, other._ends + shift])
                self._probes = {}
                self._probe_source = None
            return base

    def batch_probe(self, field: int = 0, ticker=None) -> "codecs.BatchProbe":
        """Vectorised prober over every blob's cell-set ``field``.

        Valid only when the blobs are codec-encoded cell-set values (the
        ``FullOne`` layouts); entry ``i`` of the probe answers for blob id
        ``i``.  Probes (with their lowered tables) are cached until the next
        append — and segment-backed stores rehydrate them straight from the
        persisted lowered tables, so even a fresh process pays no header
        walk.  ``ticker`` is called once per batch (the cold field-offset
        walk counts as one batch), so a query-time budget interrupts at
        batch boundaries only.
        """
        probe = self._probes.get(field)
        if probe is None:
            with self._flock:
                probe = self._probes.get(field)
                if probe is None and self._probe_source is not None:
                    seg, prefix, fields = self._probe_source
                    if field in fields:
                        # hydrate from the persisted lowered tables; this is
                        # the first access that pages them in
                        tables = {
                            tname: seg.array(f"{prefix}probe{field}.{tname}")
                            for tname in codecs.BatchProbe.LOWERED_NAMES
                        }
                        probe = codecs.BatchProbe.from_lowered(
                            self._buf, self._ends.size, tables
                        )
                        self._probes[field] = probe
                if probe is None:
                    buf, starts, ends = self._buf, self._starts, self._ends
                    if field:
                        if ticker is not None:
                            ticker()
                        shifted = np.empty(starts.size, dtype=np.int64)
                        for j, (start, end) in enumerate(zip(starts, ends)):
                            shifted[j] = codecs.skip_fields(
                                buf, int(start), int(end), field
                            )
                        starts = shifted
                    probe = codecs.BatchProbe(buf, starts, ends)
                    self._probes[field] = probe
        return probe

    def probe_fields(self) -> set[int]:
        """Fields whose lowered batch-probe tables are warm — cached, or
        persisted in the backing segment (lazy hydration, no header walk)."""
        fields = {f for f, p in self._probes.items() if p._lowered is not None}
        if self._probe_source is not None:
            fields |= set(self._probe_source[2])
        return fields

    def get(self, blob_id: int) -> bytes:
        i = int(blob_id)
        if 0 <= i < self._ends.size:
            return bytes(self._buf[int(self._starts[i]): int(self._ends[i])])
        raise StorageError(f"unknown blob id {blob_id}")

    def __len__(self) -> int:
        return self._ends.size

    def disk_bytes(self) -> int:
        """Payload plus one offset word per blob."""
        return len(self._buf) + 8 * len(self)

    # -- persistence ---------------------------------------------------------

    def dump(self, writer: seglib.SegmentWriter, prefix: str = "") -> None:
        """Write the heap — and any warm lowered probe tables — into a
        segment file, so a reload probes without re-walking codec headers."""
        fields = sorted(self.probe_fields())
        writer.add_json(
            prefix + "meta", {"n": int(self._ends.size), "probe_fields": fields}
        )
        writer.add_bytes(prefix + "buf", self._buf)
        writer.add_array(prefix + "ends", self._ends)
        for field in fields:
            # batch_probe hydrates lazily-persisted tables when needed
            tables = self.batch_probe(field=field).lowered_tables()
            for tname in codecs.BatchProbe.LOWERED_NAMES:
                writer.add_array(f"{prefix}probe{field}.{tname}", tables[tname])

    @classmethod
    def from_segment(
        cls, seg: seglib.Segment, prefix: str = "", name: str = "blobs"
    ) -> "BlobStore":
        """Rehydrate heap and lowered probe tables from mmap-backed sections."""
        store = cls(name)
        meta = seg.json(prefix + "meta")
        store._buf = seg.view(prefix + "buf")
        ends = seg.array(prefix + "ends")
        store._ends = ends
        starts = np.empty_like(ends)
        if ends.size:
            starts[0] = 0
            starts[1:] = ends[:-1]
        store._starts = starts
        fields = [int(f) for f in meta.get("probe_fields", [])]
        if fields:
            # defer hydration: the lowered tables are wrapped into a probe
            # only when a mismatched scan first asks for one
            store._probe_source = (seg, prefix, fields)
        return store

    def flush(self, path: str) -> int:
        writer = seglib.SegmentWriter()
        self.dump(writer)
        return writer.write(path)

    @classmethod
    def load(cls, path: str, name: str = "blobs") -> "BlobStore":
        return cls.from_segment(seglib.Segment.open(path), "", name)

    def clear(self) -> None:
        with self._flock:
            self._buf = b""
            self._starts = np.empty(0, dtype=np.int64)
            self._ends = np.empty(0, dtype=np.int64)
            self._probes = {}
            self._probe_source = None


def _bases(chunks: list[_Chunk]) -> list[int]:
    bases = []
    total = 0
    for chunk in chunks:
        bases.append(total)
        total += len(chunk.buf)
    return bases


def _gather_slices(buf: bytes, starts: np.ndarray, lengths: np.ndarray, total: int) -> bytes:
    """Concatenate ``buf[s:s+l]`` slices, vectorised via fancy indexing."""
    if total == 0:
        return b""
    keep = lengths > 0
    starts = starts[keep]
    lengths = lengths[keep]
    src = np.frombuffer(buf, dtype=np.uint8)
    if np.array_equal(starts[1:], starts[:-1] + lengths[:-1]):
        # contiguous and in order (fanout 1, or keys already sorted): the
        # output is one slice of the buffer, no per-byte index needed
        return src[starts[0] : starts[0] + total].tobytes()
    # Source index of every output byte, expressed as one cumulative sum:
    # within a slice the step is 1; where slice i begins, the step jumps from
    # the last byte of slice i-1 to starts[i].
    step = np.ones(total, dtype=np.int64)
    step[0] = starts[0]
    if starts.size > 1:
        begin_pos = np.cumsum(lengths)[:-1]
        step[begin_pos] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    idx = np.cumsum(step)
    return src[idx].tobytes()
