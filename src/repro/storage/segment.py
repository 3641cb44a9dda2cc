"""Single-file, manifest-led segment format for lineage stores.

Every persisted store component — :class:`~repro.storage.kvstore.HashStore`
segments, :class:`~repro.storage.kvstore.BlobStore` heaps,
:class:`~repro.core.lineage_store.RegionEntryTable` columns, the R-tree
levels, and the *lowered* :class:`~repro.storage.codecs.BatchProbe` tables —
flushes into one segment file, so a fresh process can serve queries straight
off disk without re-deriving anything.

Layout (see ``docs/storage_format.md`` for the full specification)::

    magic "SZSG" (4) | version <H (2) | manifest_len <q (8)
    manifest JSON (utf-8)            -- the section table
    padding to 8-byte alignment
    section payloads                 -- each 8-byte aligned

The manifest is a JSON object ``{"version": 1, "sections": [...]}`` whose
section records carry ``name``, ``kind`` (``array`` / ``bytes`` / ``json``),
``offset`` (absolute), ``length``, ``crc32``, and for arrays ``dtype`` +
``shape``.  Because the section table leads the file, :meth:`Segment.open`
reads *only* the header and manifest: array sections come back as zero-copy
``numpy`` views over one shared ``mmap`` and page in lazily on first touch,
which is what makes the catalog's lazy-open serving path cheap.

Integrity: every section records a CRC-32 of its payload.  Opening validates
structure only (magic, version, bounds); :meth:`Segment.verify` — used by
crash recovery and by ``Segment.open(path, verify=True)`` — checksums the
payloads and raises :class:`~repro.errors.StorageError` naming the first
corrupt section.

Versioning policy: the format version is bumped when the layout of existing
sections changes incompatibly; readers refuse *newer* versions and keep
accepting all older ones.  Adding new (optional) section names is not a
version bump — readers ignore sections they do not ask for.

Sharing and lifecycle: a mapped :class:`Segment` is *open-once/share-many* —
it carries a reference count (:meth:`Segment.acquire` / :meth:`Segment.close`)
so N reader threads reuse one mmap, and the mapping is released when the
last holder closes.  Releasing is best-effort under live numpy views (the OS
mapping survives until the final exported buffer dies), but a closed handle
refuses all further section access, which is the invariant the serving
cache's eviction relies on.

Generations: an *incremental* flush appends a store's new lineage as a
**delta segment** next to the base one instead of rewriting it.  Generation
``g > 0`` of base path ``<name>.seg`` lives at ``<name>.gen.<g>.seg``
(:func:`generation_path`); generation 0 *is* the base path, so a catalog
that never appended is file-for-file identical to the pre-generation
layout.  Every generation is exactly one ordinary segment file — the
overlay/merge semantics live one layer up, in :mod:`repro.core.catalog`.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib

import numpy as np

from repro.analysis import lockcheck
from repro.errors import StorageError

__all__ = [
    "MAGIC",
    "VERSION",
    "GENERATION_INFIX",
    "Segment",
    "SegmentWriter",
    "generation_files",
    "generation_path",
    "is_segment_file",
    "remove_segment",
]

MAGIC = b"SZSG"
VERSION = 1

#: marker splitting a base segment name from its generation ordinal:
#: generation ``g`` of ``<stem>.seg`` is the sibling ``<stem>.gen.<g>.seg``
GENERATION_INFIX = ".gen."

_HEADER = struct.Struct("<4sHq")  # magic, version, manifest length
_KINDS = ("array", "bytes", "json")


def _align8(n: int) -> int:
    return (n + 7) & ~7


def is_segment_file(path: str) -> bool:
    """True when ``path`` starts with the segment magic (cheap sniff)."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def generation_path(path: str, gen: int) -> str:
    """The on-disk path of generation ``gen`` of base segment ``path``.

    Generation 0 is the base path itself (``spot.seg``); generation ``g > 0``
    is the sibling ``spot.gen.<g>.seg``, so an append never touches — and a
    crash mid-append can never tear — the already-committed generations.
    """
    if gen < 0:
        raise StorageError(f"negative segment generation {gen}")
    if gen == 0:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}{GENERATION_INFIX}{gen}{ext}"


def generation_files(path: str) -> dict[int, str]:
    """Every generation of base segment ``path`` present on disk.

    Maps generation ordinal to the file backing it; generation 0 is
    included when the base segment exists.  Quarantined and temporary files
    are ignored.  Used to pick a collision-free ordinal for the next append
    even when a crash left generation files a manifest no longer references.
    """
    out: dict[int, str] = {}
    if os.path.exists(path):
        out[0] = path
    directory = os.path.dirname(path) or "."
    root, ext = os.path.splitext(os.path.basename(path))
    prefix = f"{root}{GENERATION_INFIX}"
    try:
        names = os.listdir(directory)
    except OSError:
        return out
    for name in names:
        ordinal = name[len(prefix): len(name) - len(ext)]
        if not (name.startswith(prefix) and ordinal.isdigit()):
            continue
        gen = int(ordinal)
        gen_path = generation_path(path, gen)
        # "<stem>.gen.<g>.seg" exactly: no ".gen.0.", no zero-padding
        if gen and os.path.basename(gen_path) == name:
            out[gen] = gen_path
    return out


def remove_segment(path: str) -> None:
    """Best-effort removal of segment ``path``.  A missing file is not an
    error — the deferred-unlink path may race a recovery that already
    cleaned up."""
    lockcheck.note_io(f"segment.unlink:{os.path.basename(path)}")
    try:
        os.remove(path)
    except OSError:
        pass


class SegmentWriter:
    """Collects named sections and writes them as one segment file."""

    def __init__(self) -> None:
        self._sections: list[dict] = []
        self._payloads: list[bytes] = []
        self._names: set[str] = set()

    def _add(self, name: str, kind: str, payload: bytes, extra: dict | None = None) -> None:
        if name in self._names:
            raise StorageError(f"duplicate segment section {name!r}")
        self._names.add(name)
        record = {"name": name, "kind": kind, "length": len(payload),
                  "crc32": zlib.crc32(payload) & 0xFFFFFFFF}
        if extra:
            record.update(extra)
        self._sections.append(record)
        self._payloads.append(payload)

    def add_array(self, name: str, arr: np.ndarray) -> None:
        """Add a numpy array section (stored little-endian, C-contiguous)."""
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<")
        self._add(
            name,
            "array",
            arr.astype(dtype, copy=False).tobytes(),
            {"dtype": dtype.str, "shape": list(arr.shape)},
        )

    def add_bytes(self, name: str, data) -> None:
        """Add an opaque byte section (value heaps, blob heaps)."""
        self._add(name, "bytes", bytes(data))

    def add_json(self, name: str, obj) -> None:
        """Add a small JSON metadata section."""
        self._add(name, "json", json.dumps(obj, sort_keys=True).encode("utf-8"))

    def write(self, path: str) -> int:
        """Write the segment to ``path``; returns bytes written."""
        # offsets are relative to the payload base (which the reader derives
        # from the header), so the manifest's own length never perturbs them
        rel = 0
        for record in self._sections:
            rel = _align8(rel)
            record["offset"] = rel
            rel += record["length"]
        manifest = json.dumps(
            {"version": VERSION, "sections": self._sections}, sort_keys=True
        ).encode("utf-8")
        base = _align8(_HEADER.size + len(manifest))
        lockcheck.note_io(f"segment.write:{os.path.basename(path)}")
        # write-then-rename: replacing a segment atomically means an open
        # mapping of the old file keeps its inode (no truncation under a
        # live mmap) and readers only ever see a complete file
        tmp = path + ".tmp"
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(tmp, "wb") as fh:
                fh.write(_HEADER.pack(MAGIC, VERSION, len(manifest)))
                fh.write(manifest)
                fh.write(b"\x00" * (base - _HEADER.size - len(manifest)))
                pos = 0
                for record, payload in zip(self._sections, self._payloads):
                    fh.write(b"\x00" * (record["offset"] - pos))
                    fh.write(payload)
                    pos = record["offset"] + record["length"]
            os.replace(tmp, path)
            nbytes = os.path.getsize(path)
        except BaseException as exc:
            # an interrupted write (e.g. a compaction crash) must leave the
            # target untouched *and* no half-written tmp behind
            try:
                os.remove(tmp)
            except OSError:
                pass
            if isinstance(exc, OSError):
                raise StorageError(
                    f"cannot write segment {path!r}: {exc}"
                ) from exc
            raise
        return nbytes


class Segment:
    """A read-only, lazily mapped segment file (see module docstring).

    Mappings are refcounted so one open segment is shared by many readers:
    :meth:`acquire` hands out another reference, :meth:`close` drops one,
    and the mmap is released when the count reaches zero.  After the last
    close every section accessor raises, so a cache that evicted the
    segment can never serve reads through a stale handle.
    """

    def __init__(self, path: str, sections: dict[str, dict], mm: mmap.mmap):
        self.path = path
        self._sections = sections
        self._mm = mm
        self._refs = 1
        self._lock = lockcheck.make_lock("segment.refs")

    # -- sharing / lifecycle -------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._refs <= 0

    def acquire(self) -> "Segment":
        """Take another reference to the shared mapping."""
        with self._lock:
            if self._refs <= 0:
                raise StorageError(f"segment {self.path!r} is closed")
            self._refs += 1
        return self

    def close(self) -> None:
        """Drop one reference; the mapping is released at zero.

        Releasing is best-effort: live numpy views over the mapping export
        its buffer, in which case the OS mapping survives until the last
        view is garbage-collected — but the handle is *logically* closed
        either way, and further section access raises.
        """
        with self._lock:
            if self._refs <= 0:
                return
            self._refs -= 1
            if self._refs > 0:
                return
            try:
                self._mm.close()
            except BufferError:
                # numpy views still export the buffer; the mapping is freed
                # when the last view dies.  The handle stays closed.
                pass

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._refs <= 0:
            raise StorageError(f"segment {self.path!r} is closed")

    @classmethod
    def open(cls, path: str, verify: bool = False) -> "Segment":
        """Map ``path`` and parse its manifest; no section payload is read.

        ``verify=True`` additionally checksums every section (eager read),
        raising :class:`StorageError` on the first mismatch.
        """
        lockcheck.note_io(f"segment.open:{os.path.basename(path)}")
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise StorageError(f"cannot open segment {path!r}: {exc}") from exc
        with fh:
            head = fh.read(_HEADER.size)
            if head[: len(MAGIC)] != MAGIC:
                raise StorageError(
                    f"segment {path!r}: bad magic {head[: len(MAGIC)]!r} — not a "
                    "segment file (pre-segment layout, re-flush required)"
                )
            if len(head) < _HEADER.size:
                raise StorageError(f"segment {path!r}: truncated header")
            _, version, mlen = _HEADER.unpack(head)
            if version > VERSION:
                raise StorageError(
                    f"segment {path!r}: format version {version} is newer than "
                    f"supported version {VERSION}"
                )
            size = os.fstat(fh.fileno()).st_size
            if mlen < 2 or _HEADER.size + mlen > size:
                raise StorageError(f"segment {path!r}: manifest overruns the file")
            raw_manifest = fh.read(mlen)
            try:
                manifest = json.loads(raw_manifest.decode("utf-8"))
                records = manifest["sections"]
            except (ValueError, KeyError, TypeError) as exc:
                raise StorageError(f"segment {path!r}: corrupt manifest: {exc}") from exc
            base = _align8(_HEADER.size + mlen)
            sections: dict[str, dict] = {}
            for record in records:
                try:
                    name = record["name"]
                    kind = record["kind"]
                    offset = int(record["offset"]) + base  # manifest is base-relative
                    length = int(record["length"])
                    record["offset"] = offset
                    record["crc32"] = int(record["crc32"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise StorageError(
                        f"segment {path!r}: malformed section record: {exc}"
                    ) from exc
                if kind not in _KINDS:
                    raise StorageError(
                        f"segment {path!r}: section {name!r} has unknown kind {kind!r}"
                    )
                if name in sections:
                    raise StorageError(f"segment {path!r}: duplicate section {name!r}")
                if offset < 0 or length < 0 or offset + length > size:
                    raise StorageError(
                        f"segment {path!r}: section {name!r} overruns the file"
                    )
                if kind == "array":
                    try:
                        dtype = np.dtype(record["dtype"])
                        shape = tuple(int(d) for d in record["shape"])
                    except (KeyError, TypeError, ValueError) as exc:
                        raise StorageError(
                            f"segment {path!r}: section {name!r} has a bad "
                            f"dtype/shape: {exc}"
                        ) from exc
                    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                    if expected != length:
                        raise StorageError(
                            f"segment {path!r}: section {name!r} length {length} "
                            f"does not match dtype/shape ({expected} bytes)"
                        )
                sections[name] = record
            try:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except OSError as exc:
                raise StorageError(f"cannot map segment {path!r}: {exc}") from exc
        seg = cls(path, sections, mm)
        if verify:
            try:
                seg.verify()
            except StorageError:
                # release the mapping before reporting: quarantine renames
                # the file next, which needs it unmapped (Windows)
                seg.close()
                raise
        return seg

    # -- section access ------------------------------------------------------

    def _record(self, name: str) -> dict:
        record = self._sections.get(name)
        if record is None:
            raise StorageError(f"segment {self.path!r} has no section {name!r}")
        return record

    def has(self, name: str) -> bool:
        return name in self._sections

    def names(self) -> list[str]:
        return list(self._sections)

    def array(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of an array section (pages in lazily)."""
        self._check_open()
        record = self._record(name)
        if record["kind"] != "array":
            raise StorageError(f"section {name!r} is not an array section")
        dtype = np.dtype(record["dtype"])
        shape = tuple(record["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        return np.frombuffer(
            self._mm, dtype=dtype, count=count, offset=record["offset"]
        ).reshape(shape)

    def view(self, name: str):
        """Zero-copy memoryview of a bytes section."""
        self._check_open()
        record = self._record(name)
        return memoryview(self._mm)[record["offset"]: record["offset"] + record["length"]]

    def read_bytes(self, name: str) -> bytes:
        return bytes(self.view(name))

    def json(self, name: str):
        record = self._record(name)
        if record["kind"] != "json":
            raise StorageError(f"section {name!r} is not a json section")
        try:
            return json.loads(self.read_bytes(name).decode("utf-8"))
        except ValueError as exc:
            raise StorageError(
                f"segment {self.path!r}: corrupt json section {name!r}: {exc}"
            ) from exc

    # -- integrity -----------------------------------------------------------

    def verify(self, names: list[str] | None = None) -> None:
        """Checksum sections (all by default); raise on the first mismatch."""
        self._check_open()
        for name in names if names is not None else self._sections:
            record = self._record(name)
            payload = memoryview(self._mm)[
                record["offset"]: record["offset"] + record["length"]
            ]
            # release the view before any raise: a view captured in the
            # exception's traceback would keep the buffer exported, making
            # the close() that precedes a quarantine rename a silent no-op
            try:
                crc = zlib.crc32(payload) & 0xFFFFFFFF
            finally:
                payload.release()
            if crc != record["crc32"]:
                raise StorageError(
                    f"segment {self.path!r}: section {name!r} failed its checksum "
                    "(corrupt or truncated payload)"
                )
