"""Per-operator lineage stores: the encoding strategies of §VI-B.

Each workflow node that stores region lineage gets one store object per
:class:`~repro.core.modes.StorageStrategy`.  The strategies are one
product — Full/Pay × One/Many × backward/forward (Figure 4) — so a single
kernel, :class:`LayoutStore`, serves them all.  It reads its layout off
the strategy as key *surfaces* × value *fields*: a backward (or payload)
layout keys the output cells, one surface whose Full value holds one cell
set per input; a forward layout keys each input's cells, one surface per
input whose value holds the output cells.

``One``
    One hash entry per key *cell*; the value references a single shared
    blob holding the other side's cells (or, for one-to-one pairs written
    through the bulk API, the single cell is inlined — same 8 bytes, no
    indirection).  Queries are direct hash lookups.

``Many``
    One entry per *region pair* and surface: the key is the serialized
    key-side cell set, indexed by an R-tree over its bounding box; the
    value is the serialized other side.

``Pay`` / ``Comp``
    Keyed like the backward layouts, but the value is the developer
    payload (duplicated per key cell for ``One``, exactly as the paper
    describes); composite lineage stores its payload overrides this way.

Forward layouts keep one sub-store per input array, since cells of
different inputs would collide after bit-packing.  Queries against the
matching orientation are hash probes / R-tree descents — and
R-tree candidate collection descends *once per query coordinate batch*
(:meth:`~repro.storage.rtree.RTree.query_points`), not once per cell.
Queries against the wrong orientation fall back to a scan over every entry
— the expensive mismatch the paper measures in Figure 6(b).  Those scans
are *batched*: the whole value heap is handed to
:class:`repro.storage.codecs.BatchProbe`, which groups entries by codec tag
and answers per-entry verdicts or intersections in a handful of vectorised
passes (lowered tables cached on the :class:`RegionEntryTable` /
:class:`~repro.storage.kvstore.BlobStore`, so repeat scans skip the header
walk entirely).  The fixed-width hash layouts scan the same way, via one
``isin_sorted`` pass over their key/value vectors; payload layouts expose
their columnar state (:meth:`OpLineageStore.payload_entries`) so the
executor's payload scan batches too.  Matched backward reads are in-situ:
candidate key sets are matched with one concatenated ``searchsorted`` pass,
and only the hit entries' values — and only the requested input's field —
are ever decoded.

Persistence is *scan-ready*: each store flushes to ONE segment file
(:mod:`repro.storage.segment`) holding its sorted columns, the R-tree, and
the lowered batch-scan tables, so a store reloaded in a fresh process —
lazily, via the :class:`~repro.core.catalog.StoreCatalog` — answers its
first mismatched scan at warm speed (no codec header walk; see
``docs/storage_format.md``).

All public methods speak *packed* coordinates (int64, see
:mod:`repro.arrays.coords`).
"""

from __future__ import annotations

import numpy as np

from repro.analysis import lockcheck
from repro.arrays import coords as C
from repro.core.model import BufferSink
from repro.core.modes import (
    EncodingKind,
    LineageMode,
    Orientation,
    StorageStrategy,
)
from repro.errors import LineageError, StorageError
from repro.storage import codecs
from repro.storage import filters as filterlib
from repro.storage import segment as seglib
from repro.storage.kvstore import BlobStore, HashStore, _gather_slices
from repro.storage.rtree import RTree

__all__ = [
    "LayoutStore",
    "OpLineageStore",
    "RegionEntryTable",
    "encode_full_values",
    "make_store",
]


def encode_singleton_int_arrays(values: np.ndarray) -> np.ndarray:
    """Vectorised ``encode_cells([v])`` for many ``v`` at once.

    Single-element arrays always serialize to the same 12-byte layout
    (magic, sorted flag, count=1, width=1, 8-byte base), so a whole batch
    can be emitted as an ``(n, 12)`` uint8 matrix without a Python loop.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n = values.size
    out = np.empty((n, 12), dtype=np.uint8)
    out[:, 0] = 0x49
    out[:, 1] = 0x01
    out[:, 2] = 0x01
    out[:, 3] = 0x01
    out[:, 4:] = values.astype("<i8").view(np.uint8).reshape(n, 8)
    return out


def encode_full_value(incells_per_input: list[np.ndarray]) -> bytes:
    """Serialize one region pair's per-input packed cell sets — the
    per-pair reference the tests hold :func:`encode_full_values` to; the
    stores themselves only ever encode whole batches."""
    return b"".join(codecs.encode_cells(np.sort(arr)) for arr in incells_per_input)


def decode_full_value(buf: bytes, arity: int) -> list[np.ndarray]:
    out = []
    offset = 0
    for _ in range(arity):
        arr, offset = codecs.decode_cells(buf, offset)
        out.append(arr)
    return out


def _encode_sorted_segmented(
    values: np.ndarray, offsets: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Sort each ``offsets`` segment of ``values`` and batch-encode it.

    The byte-for-byte vectorised counterpart of ``encode_cells(sort(s))``
    per segment: one global segmented sort (lexsort keyed by segment owner)
    feeds :func:`repro.storage.codecs.encode_sorted_sets`, so lowering a
    batch costs no per-pair Python work however its pairs were emitted."""
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    order = np.lexsort((values, owner))
    buf, lengths = codecs.encode_sorted_sets(values[order], offsets)
    return buf.tobytes(), lengths


def encode_full_values(
    packed_per_input: list[np.ndarray], offsets_per_input
) -> tuple[bytes, np.ndarray]:
    """Vectorised :func:`encode_full_value` over ``n`` region pairs.

    ``packed_per_input[i]`` holds input ``i``'s packed cells for every pair,
    segmented by ``offsets_per_input[i]`` (an ``(n+1,)`` offset array).
    Returns ``(buf, lengths)`` where pair ``p``'s value bytes — the
    concatenation of its per-input encoded sorted cell sets — occupy
    ``lengths[p]`` consecutive bytes of ``buf`` in pair order.
    """
    arity = len(packed_per_input)
    bufs: list[bytes] = []
    lens_per_input: list[np.ndarray] = []
    for vals, offsets in zip(packed_per_input, offsets_per_input):
        buf, lengths = _encode_sorted_segmented(vals, offsets)
        bufs.append(buf)
        lens_per_input.append(lengths)
    if arity == 1:
        return bufs[0], lens_per_input[0]
    # interleave the per-input streams pair-major (pair p = its arity slices)
    n = lens_per_input[0].size
    starts = np.empty((n, arity), dtype=np.int64)
    lens_m = np.empty((n, arity), dtype=np.int64)
    base = 0
    for i in range(arity):
        li = lens_per_input[i]
        st = np.zeros(n, dtype=np.int64)
        np.cumsum(li[:-1], out=st[1:])
        starts[:, i] = st + base
        lens_m[:, i] = li
        base += len(bufs[i])
    flat_lens = lens_m.reshape(-1)
    out = _gather_slices(
        b"".join(bufs), starts.reshape(-1), flat_lens, int(flat_lens.sum())
    )
    return out, lens_m.sum(axis=1)


class RegionEntryTable:
    """Columnar table of (key cell set, value blob) entries with an R-tree
    over the key sets' bounding boxes (the *Many layouts)."""

    def __init__(self, key_shape: tuple[int, ...]):
        self.key_shape = tuple(key_shape)
        self._key_chunks: list[np.ndarray] = []
        self._klen_chunks: list[np.ndarray] = []
        self._val_chunks: list[bytes] = []
        self._vlen_chunks: list[np.ndarray] = []
        self._keys: np.ndarray | None = None
        self._koff: np.ndarray | None = None
        self._vbuf: bytes = b""
        self._voff: np.ndarray | None = None
        self._lo: np.ndarray | None = None
        self._hi: np.ndarray | None = None
        self._rtree: RTree | None = None
        self._probes: dict[int, codecs.BatchProbe] = {}
        #: ``(segment, prefix, fields, n)`` when persisted lowered tables
        #: are available but not yet hydrated — built into a ``BatchProbe``
        #: only when a mismatched scan first asks, so a matched point query
        #: never pays for it
        self._probe_source: tuple | None = None
        self._dirty = False
        # serializes finalize and probe construction under concurrent
        # readers; the finalized columns themselves are immutable
        self._flock = lockcheck.make_rlock("region_table.finalize")

    # -- writes ----------------------------------------------------------------

    def add_entry(self, key_packed: np.ndarray, value: bytes) -> None:
        """Add one entry — :meth:`add_entries` with ``n = 1``."""
        key_packed = np.ascontiguousarray(key_packed, dtype=np.int64)
        self.add_entries(key_packed, [key_packed.size], value, [len(value)])

    def add_entries(
        self,
        keys_concat: np.ndarray,
        key_counts: np.ndarray,
        val_buf: bytes,
        val_lengths: np.ndarray,
    ) -> None:
        """Bulk-add ``n`` entries with variable-size key cell sets.

        Entry ``e`` owns ``key_counts[e]`` consecutive cells of
        ``keys_concat`` and ``val_lengths[e]`` consecutive bytes of
        ``val_buf``.  Key sets are sorted with one segmented lexsort pass
        (skipped when every set is a single cell), with no per-entry Python
        objects — the only table writer the capture path uses.
        """
        keys_concat = np.ascontiguousarray(keys_concat, dtype=np.int64)
        key_counts = np.ascontiguousarray(key_counts, dtype=np.int64)
        n = key_counts.size
        if n == 0:
            return
        if (key_counts < 1).any():
            raise StorageError("a region entry needs at least one key cell")
        if int(key_counts.sum()) != keys_concat.size:
            raise StorageError("key counts must span the key cell buffer")
        val_lengths = np.ascontiguousarray(val_lengths, dtype=np.int64)
        if val_lengths.size != n or int(val_lengths.sum()) != len(val_buf):
            raise StorageError("value lengths must align with keys and span buffer")
        if keys_concat.size > n:
            owner = np.repeat(np.arange(n, dtype=np.int64), key_counts)
            keys_concat = keys_concat[np.lexsort((keys_concat, owner))]
        # szlint: ignore[SZ006] -- ingest is single-writer by contract; _flock only guards the finalize merge
        self._key_chunks.append(keys_concat)
        self._klen_chunks.append(key_counts)
        # zero-copy when the caller already hands over immutable bytes
        self._val_chunks.append(val_buf if type(val_buf) is bytes else bytes(val_buf))
        self._vlen_chunks.append(val_lengths)
        self._dirty = True

    def add_singleton_entries(
        self, keys_packed: np.ndarray, val_buf: bytes, val_lengths: np.ndarray
    ) -> None:
        """Bulk-add ``n`` entries whose key side is a single cell each."""
        keys_packed = np.ascontiguousarray(keys_packed, dtype=np.int64)
        self.add_entries(
            keys_packed, np.ones(keys_packed.size, dtype=np.int64), val_buf, val_lengths
        )

    def extend_columns(
        self,
        keys: np.ndarray,
        koff: np.ndarray,
        vbuf,
        voff: np.ndarray,
    ) -> None:
        """Bulk-append another table's finalized columns (the generational
        merge writer): entry boundaries are preserved, and the next
        :meth:`finalize` re-sorts boxes/R-tree over the merged entry set.
        The inputs are copied, so the merge outlives the source table's
        backing segment."""
        koff = np.asarray(koff, dtype=np.int64)
        n = koff.size - 1
        if n <= 0:
            return
        # szlint: ignore[SZ006] -- ingest is single-writer by contract; _flock only guards the finalize merge
        self._key_chunks.append(np.array(keys, dtype=np.int64))
        self._klen_chunks.append(np.diff(koff))
        self._val_chunks.append(bytes(vbuf))
        self._vlen_chunks.append(np.diff(np.asarray(voff, dtype=np.int64)))
        self._dirty = True

    # -- finalize -----------------------------------------------------------------

    def finalize(self) -> None:
        if not self._dirty:  # racy fast path; re-checked under the lock
            return
        with self._flock:
            if not self._dirty:
                return
            new_keys = np.concatenate(self._key_chunks) if self._key_chunks else None
            if new_keys is None:
                return
            new_klens = np.concatenate(self._klen_chunks)
            new_vbuf = b"".join(self._val_chunks)
            new_vlens = np.concatenate(self._vlen_chunks)
            if self._keys is not None:
                old_klens = np.diff(self._koff)
                old_vlens = np.diff(self._voff)
                keys = np.concatenate([self._keys, new_keys])
                klens = np.concatenate([old_klens, new_klens])
                vbuf = bytes(self._vbuf) + new_vbuf  # bytes() lifts mmap-backed views
                vlens = np.concatenate([old_vlens, new_vlens])
            else:
                keys, klens, vbuf, vlens = new_keys, new_klens, new_vbuf, new_vlens
            n = klens.size
            koff = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(klens, out=koff[1:])
            voff = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(vlens, out=voff[1:])
            coords = C.unpack_coords(keys, self.key_shape)
            lo = np.minimum.reduceat(coords, koff[:-1], axis=0)
            hi = np.maximum.reduceat(coords, koff[:-1], axis=0)
            self._keys, self._koff = keys, koff
            self._vbuf, self._voff = vbuf, voff
            self._lo, self._hi = lo, hi
            self._rtree = RTree.build(lo, hi)
            # lowered batch-probe tables (cached or persisted) describe the
            # old heap; both must go when the heap grows
            self._probes = {}
            self._probe_source = None
            self._key_chunks, self._klen_chunks = [], []
            self._val_chunks, self._vlen_chunks = [], []
            self._dirty = False

    # -- reads -------------------------------------------------------------------

    @property
    def n_entries(self) -> int:
        pending = sum(arr.size for arr in self._klen_chunks)
        stored = self._koff.size - 1 if self._koff is not None else 0
        return pending + stored

    def candidate_entries(self, query_coords: np.ndarray) -> np.ndarray:
        """Entry ids whose bounding boxes contain any query coordinate.

        Small queries descend the R-tree *once for the whole coordinate
        batch* (:meth:`~repro.storage.rtree.RTree.query_points`, a few
        vectorised passes per level — not one Python descent per cell);
        large frontiers switch to a spatial-join style vectorised sweep
        over the entry boxes.
        """
        self.finalize()
        if self._rtree is None or query_coords.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        n_entries = self._koff.size - 1
        if query_coords.shape[0] <= min(2048, max(64, n_entries // 8)):
            return self._rtree.query_points(query_coords)
        qlo = query_coords.min(axis=0)
        qhi = query_coords.max(axis=0)
        box_hit = ((self._lo <= qhi) & (self._hi >= qlo)).all(axis=1)
        return np.nonzero(box_hit)[0].astype(np.int64)

    def all_singleton_keys(self) -> np.ndarray | None:
        """The flat key vector when every entry holds exactly one key cell
        (enables fully vectorised matching); None otherwise."""
        self.finalize()
        if self._koff is None:
            return np.empty(0, dtype=np.int64)
        if self._koff.size - 1 != self._keys.size:
            return None
        return self._keys

    def entry_keys(self, entry_id: int) -> np.ndarray:
        self.finalize()
        return self._keys[self._koff[entry_id]: self._koff[entry_id + 1]]

    def entries_keys(self, entry_ids: np.ndarray) -> np.ndarray:
        """Concatenated key cells of many entries in one vectorised gather."""
        self.finalize()
        entry_ids = np.asarray(entry_ids, dtype=np.int64)
        if self._koff is None or entry_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self._koff[entry_ids]
        counts = self._koff[entry_ids + 1] - starts
        return self._keys[C.expand_ranges(starts, counts)]

    def match_keys(
        self, entry_ids: np.ndarray, sorted_query: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hit, hit_cells)``: which of ``entry_ids`` have any key cell in
        ``sorted_query``, and the matching key cells themselves — one
        concatenated membership pass instead of a per-entry ``isin``."""
        self.finalize()
        entry_ids = np.asarray(entry_ids, dtype=np.int64)
        if self._koff is None or entry_ids.size == 0:
            return np.zeros(entry_ids.size, dtype=bool), np.empty(0, dtype=np.int64)
        starts = self._koff[entry_ids]
        counts = self._koff[entry_ids + 1] - starts
        keys = self._keys[C.expand_ranges(starts, counts)]
        member = C.isin_sorted(keys, sorted_query)
        owner = np.repeat(np.arange(entry_ids.size, dtype=np.int64), counts)
        hit = np.zeros(entry_ids.size, dtype=bool)
        hit[owner[member]] = True
        return hit, keys[member]

    def entry_value(self, entry_id: int) -> bytes:
        self.finalize()
        return bytes(self._vbuf[self._voff[entry_id]: self._voff[entry_id + 1]])

    # -- in-situ value probes -----------------------------------------------------
    #
    # Valid only for tables whose values are codec-encoded cell sets (the
    # Full layouts); ``field`` skips over preceding sets when a value holds
    # one per input array.  None of these slice the value buffer.

    def batch_probe(self, field: int = 0, ticker=None) -> codecs.BatchProbe:
        """Vectorised prober over every entry's cell-set ``field``.

        Built over the shared value heap (no per-entry byte slicing) and
        cached until new entries are finalized, so a scan's per-entry
        verdicts cost a few NumPy passes — and repeat scans skip even the
        header walk.  Segment-backed tables rehydrate these probes from
        their persisted lowered tables, so a fresh process starts warm.
        ``ticker`` is called once per batch (the cold field-offset walk for
        ``field > 0`` counts as one batch), so a query-time budget
        interrupts at batch boundaries only.
        """
        self.finalize()
        probe = self._probes.get(field)
        if probe is None:
            with self._flock:
                probe = self._probes.get(field)
                if probe is None and self._probe_source is not None:
                    seg, prefix, fields, n = self._probe_source
                    if field in fields:
                        # hydrate from the persisted lowered tables; this is
                        # the first access that pages them in
                        tables = {
                            tname: seg.array(f"{prefix}probe{field}.{tname}")
                            for tname in codecs.BatchProbe.LOWERED_NAMES
                        }
                        probe = codecs.BatchProbe.from_lowered(self._vbuf, n, tables)
                        self._probes[field] = probe
                if probe is None:
                    if self._voff is None:
                        offsets = np.empty(0, dtype=np.int64)
                        ends = offsets
                    elif field == 0:
                        offsets, ends = self._voff[:-1], self._voff[1:]
                    else:
                        if ticker is not None:
                            ticker()
                        offsets = np.empty(self._voff.size - 1, dtype=np.int64)
                        for e in range(offsets.size):
                            offsets[e] = self._value_offset(e, field)
                        ends = self._voff[1:]
                    probe = codecs.BatchProbe(self._vbuf, offsets, ends)
                    self._probes[field] = probe
        return probe

    def probe_fields(self) -> set[int]:
        """Fields whose lowered batch-probe tables are warm — cached in
        memory, or persisted in the backing segment (hydration is lazy but
        costs no header walk, so they count as warm)."""
        fields = {f for f, p in self._probes.items() if p._lowered is not None}
        if self._probe_source is not None:
            fields |= set(self._probe_source[2])
        return fields

    def value_cells(self, entry_id: int, field: int = 0) -> np.ndarray:
        """Decode one cell-set field of the entry value in place."""
        offset = self._value_offset(entry_id, field)  # finalizes first
        cells, _ = codecs.decode_cells(self._vbuf, offset)
        return cells

    def _value_offset(self, entry_id: int, field: int) -> int:
        self.finalize()
        start = int(self._voff[entry_id])
        end = int(self._voff[entry_id + 1])
        # never read into the next entry's bytes: a wrong field count or a
        # value whose header overstates its payload must fail loudly, not
        # probe a neighbouring value
        try:
            offset = codecs.skip_fields(self._vbuf, start, end, field)
        except StorageError as exc:
            raise StorageError(f"entry {entry_id}: {exc}") from None
        if codecs.skip_cells(self._vbuf, offset) > end:
            raise StorageError(
                f"entry {entry_id} field {field} overruns the entry value"
            )
        return offset

    def value_contains_any(
        self, entry_id: int, sorted_query: np.ndarray, field: int = 0
    ) -> bool:
        """Decode-free: does the entry's encoded cell set hit the query?"""
        offset = self._value_offset(entry_id, field)  # finalizes first
        return codecs.contains_any(self._vbuf, sorted_query, offset)

    def value_intersect(
        self, entry_id: int, sorted_query: np.ndarray, field: int = 0
    ) -> np.ndarray:
        """Query values present in the entry's encoded cell set."""
        offset = self._value_offset(entry_id, field)  # finalizes first
        return codecs.intersect(self._vbuf, sorted_query, offset)

    def value_bounds(self, entry_id: int, field: int = 0) -> tuple[int, int, int]:
        """``(lo, hi, count)`` of the encoded set without expanding it."""
        offset = self._value_offset(entry_id, field)  # finalizes first
        return codecs.decoded_bounds(self._vbuf, offset)

    def columns(self) -> tuple[np.ndarray, np.ndarray, bytes, np.ndarray]:
        """The finalized columnar state ``(keys, koff, vbuf, voff)`` — entry
        ``e`` owns key cells ``keys[koff[e]:koff[e+1]]`` and value bytes
        ``vbuf[voff[e]:voff[e+1]]``.  This is the whole-table scan surface:
        consumers batch over it instead of cursoring entry by entry."""
        self.finalize()
        if self._koff is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.zeros(1, dtype=np.int64), b"", np.zeros(1, dtype=np.int64)
        return self._keys, self._koff, self._vbuf, self._voff

    def all_key_cells(self) -> np.ndarray:
        self.finalize()
        if self._keys is None:
            return np.empty(0, dtype=np.int64)
        return self._keys

    # -- persistence ---------------------------------------------------------------

    def dump(self, writer: seglib.SegmentWriter, prefix: str = "") -> None:
        """Write the finalized table — columns, bounding boxes, R-tree, and
        any warm lowered batch-probe tables — into a segment file.  The
        value buffer is opaque at this layer, so values that predate the
        codec tag bytes round-trip unchanged; the derived structures ride
        along so a load serves queries without rebuilding anything."""
        self.finalize()
        if self._koff is None:
            writer.add_json(prefix + "meta", {"n": 0, "probe_fields": []})
            return
        fields = sorted(self.probe_fields())
        writer.add_json(
            prefix + "meta",
            {"n": int(self._koff.size - 1), "probe_fields": fields},
        )
        writer.add_array(prefix + "keys", self._keys)
        writer.add_array(prefix + "koff", self._koff)
        writer.add_array(prefix + "voff", self._voff)
        writer.add_bytes(prefix + "vbuf", self._vbuf)
        writer.add_array(prefix + "lo", self._lo)
        writer.add_array(prefix + "hi", self._hi)
        self._rtree.dump(writer, prefix + "rtree.")
        for field in fields:
            # batch_probe hydrates lazily-persisted tables when needed
            tables = self.batch_probe(field=field).lowered_tables()
            for tname in codecs.BatchProbe.LOWERED_NAMES:
                writer.add_array(f"{prefix}probe{field}.{tname}", tables[tname])

    @classmethod
    def from_segment(
        cls, seg: seglib.Segment, prefix: str, key_shape: tuple[int, ...]
    ) -> "RegionEntryTable":
        """Rehydrate a :meth:`dump`-ed table from mmap-backed sections: no
        column copy, no box recomputation, no R-tree rebuild, and the
        lowered batch-probe tables come back warm."""
        table = cls(key_shape)
        meta = seg.json(prefix + "meta")
        if meta["n"] == 0:
            return table
        table._keys = seg.array(prefix + "keys")
        table._koff = seg.array(prefix + "koff")
        table._voff = seg.array(prefix + "voff")
        table._vbuf = seg.view(prefix + "vbuf")
        table._lo = seg.array(prefix + "lo")
        table._hi = seg.array(prefix + "hi")
        table._rtree = RTree.from_segment(seg, prefix + "rtree.")
        fields = [int(f) for f in meta.get("probe_fields", [])]
        if fields:
            # defer hydration: the lowered tables are wrapped into a probe
            # only when a mismatched scan first asks for one
            table._probe_source = (seg, prefix, fields, int(meta["n"]))
        return table

    def flush(self, path: str) -> int:
        """Write the finalized table to one segment file."""
        writer = seglib.SegmentWriter()
        self.dump(writer)
        return writer.write(path)

    @classmethod
    def load(cls, path: str, key_shape: tuple[int, ...]) -> "RegionEntryTable":
        return cls.from_segment(seglib.Segment.open(path), "", key_shape)

    def disk_bytes(self) -> int:
        self.finalize()
        if self._keys is None:
            return 0
        total = self._keys.nbytes + len(self._vbuf)
        total += self._koff.nbytes + self._voff.nbytes
        total += self._rtree.nbytes() if self._rtree is not None else 0
        return int(total)


class _ClosedComponent:
    """Poison component installed by :meth:`OpLineageStore.close`.

    A closed store must fail *loudly*: if it kept empty live components, a
    caller that held the store across an eviction would silently get empty
    lineage for every query — wrong answers, not an error.  Any attribute
    access on a closed component raises instead.
    """

    __slots__ = ("_what",)

    def __init__(self, what: str):
        self._what = what

    def __getattr__(self, name):
        raise StorageError(
            f"lineage store {self._what} is closed (its segment mapping was "
            "released, e.g. by serving-cache eviction); borrow the store "
            "through a QuerySession to keep it pinned while reading"
        )


class OpLineageStore:
    """The lineage-store read/write interface plus shared persistence.

    :class:`LayoutStore` is the one concrete layout and
    :class:`~repro.core.overlay.OverlayStore` the union view over several.
    The persistence methods here run over the component hooks a concrete
    layout supplies: ``_components()`` (name → sub-store, in section
    order), ``_set_component(name, obj)``, ``_filter_key_arrays()``,
    ``finalize_if_possible()`` and ``warm_lowered_tables()``.
    """

    def __init__(
        self,
        node: str,
        strategy: StorageStrategy,
        out_shape: tuple[int, ...],
        in_shapes: tuple[tuple[int, ...], ...],
    ):
        self.node = node
        self.strategy = strategy
        self.out_shape = tuple(out_shape)
        self.in_shapes = tuple(tuple(s) for s in in_shapes)
        self.arity = len(in_shapes)
        self.write_seconds = 0.0
        #: the segment handle backing this store's components when it was
        #: hydrated from disk (owned: ``close()`` releases it); None for
        #: resident stores built by ingest
        self._segment = None
        #: per-tag :class:`~repro.storage.filters.GenerationFilter` loaded
        #: from the segment's filter sections; None for resident stores and
        #: segments that predate filters (probes then answer "may contain")
        self._filters: dict | None = None

    # -- writes -------------------------------------------------------------

    def ingest(self, sink: BufferSink) -> None:
        raise NotImplementedError

    # -- persistence -------------------------------------------------------

    def persists_filters(self) -> bool:
        """True when :meth:`flush_segment` will write bloom/zone filter
        sections for this store (feeds the catalog manifest's ``filters``
        flag, answered later without opening the segment)."""
        return bool(self._filter_key_arrays())

    def filter_decision(self, tag: str, qpacked: np.ndarray):
        """Tri-state generation-skip probe for overlay reads.

        ``False``: this store provably holds none of the query keys on
        surface ``tag`` (exact — the read may be skipped).  ``True``: it
        may hold some (bloom/zone passed).  ``None``: no filter available
        (resident store, pre-filter segment, unknown tag) — the caller
        must read."""
        if self._filters is None:
            return None
        f = self._filters.get(tag)
        if f is None:
            return None
        return f.may_contain(qpacked)

    def flush_segment(self, path: str) -> int:
        """Persist the whole store — every component plus the lowered
        batch-probe tables — as ONE segment file; returns bytes written."""
        self.finalize_if_possible()
        self.warm_lowered_tables()
        writer = seglib.SegmentWriter()
        writer.add_json(
            "store",
            {
                "node": self.node,
                "strategy": self.strategy.label,
                "components": list(self._components()),
            },
        )
        for name, component in self._components().items():
            component.dump(writer, prefix=f"{name}.")
        surfaces = self._filter_key_arrays()
        if surfaces:
            filterlib.dump_filters(
                writer,
                {
                    tag: filterlib.GenerationFilter.build(keys, shape)
                    for tag, (keys, shape) in surfaces.items()
                },
            )
        return writer.write(path)

    def load_segment(self, source) -> None:
        """Replace every component with its counterpart in ``source`` (a
        path or an open :class:`~repro.storage.segment.Segment`).  Sections
        stay mmap-backed: nothing is decoded or copied until a query touches
        it.  The store takes ownership of the handle: :meth:`close` releases
        it."""
        if isinstance(source, seglib.Segment):
            seg = source
        else:
            seg = seglib.Segment.open(source)
        meta = seg.json("store")
        if (
            meta.get("node") != self.node
            or meta.get("strategy") != self.strategy.label
            or set(meta.get("components", ())) != set(self._components())
        ):
            raise StorageError(
                f"segment {seg.path!r} holds store "
                f"({meta.get('node')!r}, {meta.get('strategy')!r}); "
                f"refusing to load it into ({self.node!r}, {self.strategy.label!r})"
            )
        for name, component in self._components().items():
            prefix = f"{name}."
            if isinstance(component, HashStore):
                self._set_component(name, HashStore.from_segment(seg, prefix, name))
            elif isinstance(component, BlobStore):
                self._set_component(name, BlobStore.from_segment(seg, prefix, name))
            else:
                self._set_component(
                    name,
                    RegionEntryTable.from_segment(seg, prefix, component.key_shape),
                )
        self._filters = filterlib.load_filters(seg)
        old = self._segment
        self._segment = seg
        if old is not None and old is not seg:
            old.close()

    def close(self) -> None:
        """Release the backing segment mapping (if any).

        Components are replaced with poison stand-ins first, so their
        mmap-backed views stop exporting the buffer — which is what lets
        the mapping actually unmap — and any later read through this store
        raises :class:`~repro.errors.StorageError` rather than silently
        answering empty off freed state.  Safe to call on resident stores
        (no-op) and safe to call twice."""
        seg, self._segment = self._segment, None
        if seg is None:
            return
        # filters hold mmap-backed bit views; drop them so the mapping can
        # unmap (probes on a closed store then answer None, and the read
        # they force hits the poison components below — loud, not empty)
        self._filters = None
        what = f"({self.node!r}, {self.strategy.label})"
        for name in self._components():
            self._set_component(name, _ClosedComponent(what))
        seg.close()

    def __enter__(self) -> "OpLineageStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- generational merge (compaction writer) -------------------------------

    def _check_absorb(self, other: "OpLineageStore") -> None:
        if (
            other.strategy != self.strategy
            or other.out_shape != self.out_shape
            or other.in_shapes != self.in_shapes
        ):
            raise StorageError(
                f"cannot merge store ({other.node!r}, {other.strategy.label}, "
                f"out={other.out_shape}) into ({self.node!r}, "
                f"{self.strategy.label}, out={self.out_shape}): layouts differ"
            )

    def absorb(self, other: "OpLineageStore") -> None:
        """Merge every entry of ``other`` (same layout and shapes) into this
        store — the compaction merge writer."""
        raise LineageError(f"{self.strategy.label} store cannot absorb generations")

    # -- matched-orientation reads -------------------------------------------

    def backward_full(
        self, qpacked: np.ndarray, only_input: int | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(matched, per_input)`` lineage of the query cells.

        ``only_input`` restricts value decoding to one input's field — the
        other slots of ``per_input`` come back empty — so a query step that
        follows a single edge never materialises the sibling inputs' cells.
        """
        raise LineageError(f"{self.strategy.label} cannot serve backward_full")

    def forward_full(self, qpacked: np.ndarray, input_idx: int) -> np.ndarray:
        raise LineageError(f"{self.strategy.label} cannot serve forward_full")

    def backward_payload_rows(
        self, qpacked: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
        """``(matched, hit_cells, payloads)``: each matched query cell with
        the payload of the entry that holds it (a cell in several entries
        appears once per entry)."""
        raise LineageError(f"{self.strategy.label} cannot serve backward_payload_rows")

    # -- mismatched-orientation reads (cursor scans) ------------------------------

    def scan_forward_full(
        self, qpacked: np.ndarray, input_idx: int, ticker=None
    ) -> np.ndarray:
        raise LineageError(f"{self.strategy.label} cannot serve scan_forward_full")

    def scan_backward_full(
        self, qpacked: np.ndarray, ticker=None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        raise LineageError(f"{self.strategy.label} cannot serve scan_backward_full")

    def payload_entries(self) -> tuple[np.ndarray, np.ndarray, bytes, np.ndarray]:
        """Columnar view of every payload entry: ``(keys, koff, vbuf, voff)``
        where entry ``e`` owns key cells ``keys[koff[e]:koff[e+1]]`` and
        payload bytes ``vbuf[voff[e]:voff[e+1]]``; a mismatched payload scan
        expands them all in one ``map_p`` batch.
        """
        raise LineageError(f"{self.strategy.label} stores no payload entries")

    def overridden_keys(self) -> np.ndarray:
        raise LineageError(f"{self.strategy.label} stores no payload entries")

    # -- accounting -----------------------------------------------------------------

    def disk_bytes(self) -> int:
        raise NotImplementedError

    @property
    def n_entries(self) -> int:
        raise NotImplementedError


class LayoutStore(OpLineageStore):
    """The one concrete store: a point of Figure 4's product, read off its
    strategy at construction (see the module docstring for the layouts).

    Key surfaces carry the filter tags: ``b`` for the output, ``f<i>`` for
    input ``i``.  ``One`` keeps one ``direct`` hash store per input for
    one-to-one pairs (key cell → the single cell on the other side, fixed
    width), one ``refs`` hash store per surface (key cell → blob id) and one
    shared ``blobs`` heap of encoded values.  ``Many`` keeps one
    :class:`RegionEntryTable` per surface; a pair with no key cells on a
    surface stores no entry there.  ``Pay``/``Comp`` keep a ``pay`` hash
    store (``One``) or a ``paytable`` (``Many``).

    Component names are segment section prefixes, so they are on-disk
    format; the ``store`` section lists them in :meth:`_components` order
    (``docs/storage_format.md``).
    """

    def __init__(self, node, strategy, out_shape, in_shapes):
        if not strategy.stores_pairs:
            raise LineageError(f"{strategy.label} does not materialise lineage")
        super().__init__(node, strategy, out_shape, in_shapes)
        self._payload = strategy.mode in (LineageMode.PAY, LineageMode.COMP)
        self._one = strategy.encoding is EncodingKind.ONE
        #: keyed by the output cells (else by each input's cells)
        self._by_out = self._payload or strategy.orientation is Orientation.BACKWARD
        if self._by_out:
            #: ``(filter tag, key shape)`` per key surface
            self._surfaces = (("b", self.out_shape),)
            prefix, tails = "", [""]
        else:
            self._surfaces = tuple((f"f{i}", s) for i, s in enumerate(self.in_shapes))
            prefix, tails = "f", [str(i) for i in range(self.arity)]
        #: cell-set fields per Full value
        self._n_fields = self.arity if self._by_out else 1
        # component names by role; a role the layout lacks stays empty
        self._direct: list[str] = []
        self._refs: list[str] = []
        self._heap: str | None = None
        self._tables: list[str] = []
        if self._payload and self._one:
            hashes = ["pay"]
            #: per surface, the components keyed on it
            self._keyed = [hashes]
        elif self._one:
            self._direct = [f"{prefix}direct{i}" for i in range(self.arity)]
            self._refs = [f"{prefix}refs{t}" for t in tails]
            self._heap = f"{prefix}blobs"
            hashes = self._direct + self._refs
            #: per surface, its direct stores in field order
            self._direct_on = (
                [self._direct] if self._by_out else [[d] for d in self._direct]
            )
            self._keyed = [[*d, r] for d, r in zip(self._direct_on, self._refs)]
        else:
            hashes = []
            self._tables = (
                ["paytable"] if self._payload else [f"table{t}" for t in tails]
            )
            self._keyed = [[t] for t in self._tables]
        #: the cell-set value heaps a mismatched scan lowers (payload
        #: layouts scan columnar state instead)
        if self._payload:
            self._scanned = []
        else:
            self._scanned = [self._heap] if self._heap else self._tables
        #: the component map, in section order
        self._parts: dict[str, object] = {
            name: HashStore(f"{node}.{name}") for name in hashes
        }
        if self._heap:
            self._parts[self._heap] = BlobStore(f"{node}.{self._heap}")
        for name, (_, shape) in zip(self._tables, self._surfaces):
            self._parts[name] = RegionEntryTable(shape)

    # -- component plumbing --------------------------------------------------

    def _components(self) -> dict[str, object]:
        """Named sub-stores in section order, for flush/load/close."""
        return self._parts

    def _set_component(self, name: str, obj) -> None:
        self._parts[name] = obj

    def _surface_keys(self, surface: int) -> np.ndarray:
        parts = [
            self._parts[name].keys_array()
            if isinstance(self._parts[name], HashStore)
            else self._parts[name].all_key_cells()
            for name in self._keyed[surface]
        ]
        return parts[0] if len(parts) == 1 else _concat(parts)

    def _filter_key_arrays(self) -> dict[str, tuple[np.ndarray, tuple]]:
        """The matched-read key surfaces to summarise at flush time:
        ``tag -> (packed keys, shape)``."""
        return {
            tag: (self._surface_keys(s), shape)
            for s, (tag, shape) in enumerate(self._surfaces)
        }

    def finalize_if_possible(self) -> None:
        """Sort/index pending writes now so the cost lands at write time,
        mirroring the paper's bulk encoding during workflow execution."""
        for name, part in self._parts.items():
            if name != self._heap:
                part.finalize()

    def warm_lowered_tables(self) -> None:
        """Build the lowered batch-probe tables every mismatched scan of
        this layout would need, so a flush persists them and a reloaded
        store starts warm.  Payload layouts scan columnar state and have
        nothing to lower."""
        for name in self._scanned:
            for field in range(self._n_fields):
                self._parts[name].batch_probe(field=field).lowered_tables()

    def lowered_ready(self) -> bool:
        """True when a mismatched-orientation scan runs off cached/persisted
        lowered tables — no codec header walk left to pay."""
        fields = set(range(self._n_fields))
        for name in self._scanned:
            part = self._parts[name]
            empty = (len(part) if name == self._heap else part.n_entries) == 0
            if not (empty or fields <= part.probe_fields()):
                return False
        return True

    # -- writes --------------------------------------------------------------

    def ingest(self, sink: BufferSink) -> None:
        if self._payload:
            for batch in sink.payload_batches:
                keys = C.pack_coords(batch.outcells, self.out_shape)
                if isinstance(batch.payloads, np.ndarray):
                    buf = batch.payloads.tobytes()
                    lengths = np.full(keys.size, batch.payloads.shape[1], dtype=np.int64)
                else:
                    buf = b"".join(batch.payloads)
                    lengths = np.asarray([len(p) for p in batch.payloads], dtype=np.int64)
                self._put_singletons([keys], buf, lengths)
            for rb in sink.region_batches:
                if rb.is_payload:
                    keys = C.pack_coords(rb.out_coords, self.out_shape)
                    self._put_pairs(
                        [(keys, rb.out_offsets)], rb.payloads, np.diff(rb.payload_offsets)
                    )
            return
        for batch in sink.elementwise:
            out = C.pack_coords(batch.outcells, self.out_shape)
            ins = [C.pack_coords(c, s) for c, s in zip(batch.incells, self.in_shapes)]
            if self._one:
                for i, name in enumerate(self._direct):
                    key, value = (out, ins[i]) if self._by_out else (ins[i], out)
                    self._parts[name].put_many_fixed(key, value)
            else:
                values = ins if self._by_out else [out]
                rows = np.concatenate(
                    [encode_singleton_int_arrays(v) for v in values], axis=1
                )
                lengths = np.full(out.size, rows.shape[1], dtype=np.int64)
                self._put_singletons(
                    [out] if self._by_out else ins, rows.tobytes(), lengths
                )
        for rb in sink.region_batches:
            if rb.is_payload:
                continue
            out = C.pack_coords(rb.out_coords, self.out_shape)
            ins = [C.pack_coords(c, s) for c, s in zip(rb.in_coords, self.in_shapes)]
            if self._by_out:
                keyed = [(out, rb.out_offsets)]
                vbuf, vlens = encode_full_values(ins, rb.in_offsets)
            else:
                keyed = list(zip(ins, rb.in_offsets))
                vbuf, vlens = encode_full_values([out], [rb.out_offsets])
            self._put_pairs(keyed, vbuf, vlens)

    def _put_singletons(self, keys: list[np.ndarray], buf: bytes, lengths) -> None:
        """Store ``n`` single-key-cell pairs per surface: pair ``p`` keys
        ``keys[s][p]`` and owns ``lengths[p]`` consecutive bytes of ``buf``
        (``Many`` and ``PayOne``; ``FullOne`` writes fixed-width ``direct``
        pairs instead)."""
        if self._tables:
            for name, k in zip(self._tables, keys):
                self._parts[name].add_singleton_entries(k, buf, lengths)
            return
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        self._parts["pay"].put_many(keys[0], buf, offsets)

    def _put_pairs(self, keyed, buf: bytes, lengths: np.ndarray) -> None:
        """Store ``n`` region pairs: ``keyed[s] = (packed keys, offsets)``
        segments each pair's key cells on surface ``s``, and pair ``p``'s
        value is ``lengths[p]`` consecutive bytes of ``buf``."""
        parts = self._parts
        if self._heap:
            ids = parts[self._heap].append_buffer(buf, lengths)
            for name, (keys, offsets) in zip(self._refs, keyed):
                parts[name].put_many_fixed(keys, np.repeat(ids, np.diff(offsets)))
            return
        starts = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        starts = starts[:-1]
        if not self._tables:
            # PayOne: duplicate each pair's payload once per key cell
            keys, offsets = keyed[0]
            counts = np.diff(offsets)
            rep_lens = np.repeat(lengths, counts)
            dup = _gather_slices(
                buf, np.repeat(starts, counts), rep_lens, int(rep_lens.sum())
            )
            offsets = np.zeros(keys.size + 1, dtype=np.int64)
            np.cumsum(rep_lens, out=offsets[1:])
            parts["pay"].put_many(keys, dup, offsets)
            return
        for name, (keys, offsets) in zip(self._tables, keyed):
            counts = np.diff(offsets)
            keep = counts > 0
            if keep.all():
                parts[name].add_entries(keys, counts, buf, lengths)
            elif keep.any():
                # a pair with no key cells on this surface stores no entry
                kept = lengths[keep]
                parts[name].add_entries(
                    keys,
                    counts[keep],
                    _gather_slices(buf, starts[keep], kept, int(kept.sum())),
                    kept,
                )

    def absorb(self, other: "OpLineageStore") -> None:
        """Merge every entry of ``other`` (same layout and shapes) into this
        store — the compaction merge writer.

        Works at the component level: hash stores and entry tables
        concatenate (the multimap/entry-set contracts make union exactly
        concatenation), and the blob heap appends with the id base returned
        by :meth:`~repro.storage.kvstore.BlobStore.extend_from` re-basing
        the refs that point into it.  All absorbed bytes are copied, so the
        merged store stays valid after the generations' segments close."""
        self._check_absorb(other)
        mine, theirs = self._parts, other._parts
        base = mine[self._heap].extend_from(theirs[self._heap]) if self._heap else 0
        for name, part in mine.items():
            if name in self._refs:
                keys, refs = theirs[name].items_fixed()
                if keys.size:
                    part.put_many_fixed(keys, refs + base)
            elif name in self._tables:
                part.extend_columns(*theirs[name].columns())
            elif name != self._heap:
                part.extend_from(theirs[name])

    # -- matched-orientation reads -------------------------------------------

    def backward_full(self, qpacked, only_input=None):
        if self._payload or not self._by_out:
            raise LineageError(f"{self.strategy.label} cannot serve backward_full")
        matched, per_input = self._matched(qpacked, 0, only_input)
        return matched, [_concat(parts) for parts in per_input]

    def forward_full(self, qpacked, input_idx):
        if self._by_out:
            raise LineageError(f"{self.strategy.label} cannot serve forward_full")
        return _concat(self._matched(qpacked, input_idx, None)[1][0])

    def _matched(self, qpacked, surface: int, only: int | None):
        """``(matched, per-field cell parts)`` of the key cells ``qpacked``
        on ``surface``; ``only`` decodes that one field."""
        per_field: list[list[np.ndarray]] = [[] for _ in range(self._n_fields)]
        parts = self._parts
        if not self._one:
            table = parts[self._tables[surface]]
            coords = C.unpack_coords(qpacked, self._surfaces[surface][1])
            candidates = table.candidate_entries(coords)
            hit, hit_cells = table.match_keys(candidates, np.sort(qpacked))
            fields = range(self._n_fields) if only is None else (only,)
            for entry_id in candidates[hit]:
                for f in fields:
                    per_field[f].append(table.value_cells(int(entry_id), field=f))
            return np.isin(qpacked, hit_cells), per_field
        matched = np.zeros(qpacked.size, dtype=bool)
        for f, name in enumerate(self._direct_on[surface]):
            qidx, cells = parts[name].lookup_refs(qpacked)
            if qidx.size:
                matched[qidx] = True
                if only is None or f == only:
                    per_field[f].append(cells)
        qidx, refs = parts[self._refs[surface]].lookup_refs(qpacked)
        if qidx.size:
            matched[qidx] = True
            heap = parts[self._heap]
            for ref in np.unique(refs):
                blob = heap.get(int(ref))
                if only is None:
                    for f, cells in enumerate(decode_full_value(blob, self._n_fields)):
                        per_field[f].append(cells)
                else:
                    per_field[only].append(_decode_value_field(blob, only))
        return matched, per_field

    def backward_payload_rows(self, qpacked):
        if not self._payload:
            raise LineageError(
                f"{self.strategy.label} cannot serve backward_payload_rows"
            )
        if self._one:
            matched = np.zeros(qpacked.size, dtype=bool)
            qidx, values = self._parts["pay"].lookup_many(qpacked)
            if qidx.size:
                matched[qidx] = True
            return matched, qpacked[qidx], values
        table = self._parts["paytable"]
        query_sorted = np.sort(qpacked)
        coords = C.unpack_coords(qpacked, self.out_shape)
        hits: list[np.ndarray] = []
        payloads: list[bytes] = []
        for entry_id in table.candidate_entries(coords):
            keys = table.entry_keys(int(entry_id))
            hit = keys[C.isin_sorted(keys, query_sorted)]
            if hit.size:
                hits.append(hit)
                payloads += [table.entry_value(int(entry_id))] * hit.size
        hit_packed = _concat(hits)
        return np.isin(qpacked, hit_packed), hit_packed, payloads

    # -- mismatched-orientation reads -----------------------------------------

    def scan_forward_full(self, qpacked, input_idx, ticker=None):
        if self._payload or not self._by_out:
            raise LineageError(f"{self.strategy.label} cannot serve scan_forward_full")
        query = np.sort(qpacked)
        parts = self._parts
        if not self._one:
            table = parts[self._tables[0]]
            verdicts = table.batch_probe(
                field=input_idx, ticker=ticker
            ).contains_any(query, ticker)
            return np.unique(table.entries_keys(np.flatnonzero(verdicts)))
        found: list[np.ndarray] = []
        out_keys, in_cells = parts[self._direct[input_idx]].items_fixed()
        if out_keys.size:
            found.append(out_keys[C.isin_sorted(in_cells, query)])
        if ticker is not None:
            ticker()
        ref_keys, refs = parts[self._refs[0]].items_fixed()
        if ref_keys.size:
            # one vectorised pass over the blob heap; refs are blob ids, so
            # the per-blob verdicts index straight into the ref rows
            verdicts = parts[self._heap].batch_probe(
                field=input_idx, ticker=ticker
            ).contains_any(query, ticker)
            found.append(ref_keys[verdicts[refs]])
        return np.unique(_concat(found))

    def scan_backward_full(self, qpacked, ticker=None):
        if self._by_out:
            raise LineageError(f"{self.strategy.label} cannot serve scan_backward_full")
        query = np.sort(qpacked)
        parts = self._parts
        matched_cells: list[np.ndarray] = []
        per_input: list[list[np.ndarray]] = [[] for _ in range(self.arity)]
        if not self._one:
            for i, name in enumerate(self._tables):
                hit_ids, intersections = parts[name].batch_probe().intersect(query, ticker)
                if hit_ids.size:
                    matched_cells.extend(intersections)
                    per_input[i].append(parts[name].entries_keys(hit_ids))
            return np.isin(qpacked, _concat(matched_cells)), [
                _concat(p) for p in per_input
            ]
        # one vectorised intersect pass over the shared blob heap, reused by
        # every input's ref store (hit_ids ascending, blobs keyed by id)
        hit_ids, intersections = parts[self._heap].batch_probe().intersect(query, ticker)
        inter_by_blob = dict(zip(hit_ids.tolist(), intersections))
        for i in range(self.arity):
            in_keys, out_cells = parts[self._direct[i]].items_fixed()
            if in_keys.size:
                member = C.isin_sorted(out_cells, query)
                if member.any():
                    matched_cells.append(out_cells[member])
                    per_input[i].append(in_keys[member])
            in_keys, refs = parts[self._refs[i]].items_fixed()
            if in_keys.size and hit_ids.size:
                member = C.isin_sorted(refs, hit_ids)
                if member.any():
                    per_input[i].append(in_keys[member])
                    matched_cells.extend(
                        inter_by_blob[int(r)] for r in np.unique(refs[member])
                    )
            if ticker is not None:
                ticker()
        return np.isin(qpacked, _concat(matched_cells)), [_concat(p) for p in per_input]

    def payload_entries(self):
        if not self._payload:
            raise LineageError(f"{self.strategy.label} stores no payload entries")
        if not self._one:
            return self._parts["paytable"].columns()
        keys, voff, vbuf = self._parts["pay"].columns()
        koff = np.arange(keys.size + 1, dtype=np.int64)  # one key cell per entry
        return keys, koff, vbuf, voff

    def overridden_keys(self) -> np.ndarray:
        if not self._payload:
            raise LineageError(f"{self.strategy.label} stores no payload entries")
        return np.unique(self._surface_keys(0))

    # -- accounting -----------------------------------------------------------

    def disk_bytes(self) -> int:
        return sum(part.disk_bytes() for part in self._parts.values())

    @property
    def n_entries(self) -> int:
        return sum(
            part.n_entries for name, part in self._parts.items() if name != self._heap
        )


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    parts = [p for p in parts if p.size]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _decode_value_field(blob: bytes, field: int) -> np.ndarray:
    """Decode one cell-set field of a value blob, skipping (not decoding)
    the fields before it."""
    offset = codecs.skip_fields(blob, 0, len(blob), field)
    cells, _ = codecs.decode_cells(blob, offset)
    return cells


def make_store(
    node: str,
    strategy: StorageStrategy,
    out_shape: tuple[int, ...],
    in_shapes: tuple[tuple[int, ...], ...],
) -> OpLineageStore:
    """The store for ``strategy``: one :class:`LayoutStore`."""
    return LayoutStore(node, strategy, out_shape, in_shapes)
