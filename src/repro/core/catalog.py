"""Workflow-level catalog of persisted lineage-store segments.

The catalog is the serving core of the persistence layer: a ``flush``
writes every materialised :class:`~repro.core.lineage_store.OpLineageStore`
as one segment file (see :mod:`repro.storage.segment`) plus one JSON
manifest (``catalog.json``) describing them.  A fresh process then opens the
manifest only; individual stores are opened on first query — mmap-backed,
no decode — so serving a single backward query over a hundred-store
workflow touches one segment, not a hundred.

Since the concurrent-serving refactor the catalog is also a **thread-safe,
budget-bounded open-store cache**:

* :meth:`StoreCatalog.borrow` / :meth:`StoreCatalog.release` hand out
  *pinned* references — the unit :class:`~repro.core.query.QuerySession`
  builds on.  A pinned store is never closed under a reader.
* ``memory_budget_bytes`` caps the resident segment bytes.  Eviction is
  **scan-resistant 2Q** (the serving-daemon upgrade over the original
  plain LRU): a first-touch store enters a probationary FIFO and is the
  first eviction victim; a re-reference promotes it to a protected LRU
  tier; and a bounded *ghost* queue remembers recently evicted keys, so a
  store that returns after eviction is admitted straight to protected.
  Net effect: a one-off analytical sweep over the whole catalog churns
  only its own probationary admissions and cannot evict the hot working
  set.  Evicted stores' shared mappings are closed
  (:meth:`~repro.core.lineage_store.OpLineageStore.close`).  Pinned stores
  are never victims — the cache may transiently exceed the budget by the
  pinned working set — but the budget is re-checked at every release, so
  a store the policy wants gone closes the moment its last pin drops.
* Hit/miss/evict counters and the open-mapping count are exported via
  :meth:`stats` so serving regressions show up in benchmarks and
  ``QueryResult.explain()``.

Since the append-merge refactor the catalog is also **generational**:

* :meth:`StoreCatalog.append_stores` writes a run's stores as *delta
  segments* (``<name>.gen.<g>.seg``, see
  :func:`repro.storage.segment.generation_path`) and registers them as
  additional generations of the same ``(node, strategy)`` key — the cheap
  incremental commit, O(delta) instead of O(catalog).
* :meth:`borrow` / :meth:`open_store` transparently serve a
  multi-generation key through an
  :class:`~repro.core.overlay.OverlayStore` — the union view that consults
  every live generation, newest first, using each generation's own
  persisted indexes and lowered tables.
* :meth:`StoreCatalog.compact` merges a key's generations back into one
  base segment *online*: the merged segment is written to a tmp file and
  renamed into place, the manifest is swapped atomically, and concurrent
  sessions pinned on the old generation set keep serving it.  Eviction
  accounting is per generation: an open store is charged its manifest
  bytes, and an overlay costs its base plus the deltas it has opened.  A
  borrow maps the base (generation 0) only; each delta is a
  :class:`~repro.core.overlay.LazySource` that maps its segment on first
  read.  The catalog keeps every delta's filters resident once it has been
  opened (bits copied off the mapping, about 10 bits per stored key) until
  compaction, :meth:`drop_generation` or :meth:`close` forgets the entry,
  so a re-borrow after eviction maps only the deltas a matched read may
  need.  The base stays eager because compaction renames the merged
  segment over its path.

One count decides when a mapping closes and a file goes.  An open record
(``_OpenStore``) counts one reference for the cache while cached plus one
per pin, and closes its mappings at 0.  Until then it holds the delta files
of its generation set; a delta file a compaction or full re-flush
supersedes is unlinked once no open record of the process holds it
(``_FILES``), so a session pinned across either keeps its unopened deltas,
and no append reuses a name still on disk.

The manifest records, per store generation: the node, the strategy triple,
the generation ordinal (omitted when 0 — a never-appended catalog is
byte-compatible with the pre-generation schema), the array shapes needed
to reconstruct the store object, the segment filename, its size, and
whether the lowered tables were persisted.  ``catalog.json`` is written
atomically (tmp + ``os.replace``) so a crash mid-write can never brick the
catalog.  A manifest entry carrying ``shards`` (the retired byte-threshold
sharded layout) is refused at :meth:`StoreCatalog.open` — re-flush it.

Corruption handling lives in :func:`repro.workflow.recovery.recover_lineage`,
which checksum-verifies every segment (all generations) against
the manifest and quarantines the corrupt ones — a torn generation is set
aside without losing the older generations under it;
:meth:`StoreCatalog.open_store` itself only does the structural validation
that segment opening performs.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.analysis import lockcheck
from repro.core.lineage_store import OpLineageStore, make_store
from repro.core.modes import EncodingKind, LineageMode, Orientation, StorageStrategy
from repro.core.overlay import FilterStats, LazySource, OverlayStore
from repro.errors import StorageError
from repro.storage import segment as seglib
from repro.storage.filters import GenerationFilter

__all__ = [
    "CatalogEntry",
    "CompactionReport",
    "StoreCatalog",
    "MANIFEST_NAME",
    "store_filename",
]

MANIFEST_NAME = "catalog.json"
FORMAT = "subzero-catalog"
VERSION = 1


def store_filename(node: str, strategy: StorageStrategy) -> str:
    """Deterministic segment filename for one (node, strategy) store."""
    parts = [node, strategy.mode.value]
    if strategy.encoding is not None:
        parts.append(strategy.encoding.value)
    if strategy.orientation is not None:
        parts.append(strategy.orientation.value)
    return "__".join(parts) + ".seg"


def _write_manifest(path: str, obj: dict, what: str) -> int:
    """Atomically (tmp file + ``os.replace``) write one JSON manifest;
    returns its size.  A crash mid-write leaves the previous manifest
    intact instead of a truncated one that would brick the next open."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
        return os.path.getsize(path)
    except BaseException as exc:
        # never leave a half-written tmp behind a crash we can see
        try:
            os.remove(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise StorageError(f"cannot write {what} {path!r}: {exc}") from exc
        raise


def _read_manifest(path: str, fmt: str, version: int, what: str) -> dict:
    """Parse one JSON manifest and check its ``format`` tag and that its
    ``version`` is not newer than ``version``; a missing, unreadable or
    malformed one raises :class:`StorageError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise StorageError(f"no {what} at {os.path.dirname(path)!r}: {exc}") from exc
    except ValueError as exc:
        raise StorageError(f"corrupt {what} {path!r}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != fmt:
        raise StorageError(f"{path!r} is not a {what}")
    if int(manifest.get("version", 0)) > version:
        raise StorageError(
            f"{what} {path!r} has version {manifest['version']}, "
            f"newer than supported version {version}"
        )
    return manifest


def _strategy_to_json(strategy: StorageStrategy) -> dict:
    return {
        "mode": strategy.mode.value,
        "encoding": strategy.encoding.value if strategy.encoding else None,
        "orientation": strategy.orientation.value if strategy.orientation else None,
    }


def _strategy_from_json(obj: Mapping) -> StorageStrategy:
    return StorageStrategy(
        mode=LineageMode(obj["mode"]),
        encoding=EncodingKind(obj["encoding"]) if obj["encoding"] else None,
        orientation=Orientation(obj["orientation"]) if obj["orientation"] else None,
    )


@dataclass(frozen=True)
class CatalogEntry:
    """One persisted store *generation*, as the manifest records it.

    A key that was only ever fully flushed has a single generation-0 entry;
    every ``append_stores`` adds one more (``gen`` 1, 2, …) until a
    compaction collapses them back to one.
    """

    node: str
    strategy: StorageStrategy
    out_shape: tuple[int, ...]
    in_shapes: tuple[tuple[int, ...], ...]
    file: str
    nbytes: int
    lowered: bool
    #: generation ordinal; 0 is the base segment, higher is a newer delta
    gen: int = 0
    #: True when the segment carries bloom/zone filter sections, so overlay
    #: reads can skip this generation decode-free (pre-filter segments have
    #: none and are always read)
    filters: bool = False

    @property
    def key(self) -> tuple[str, StorageStrategy]:
        return (self.node, self.strategy)


@dataclass
class CompactionReport:
    """What one :meth:`StoreCatalog.compact` call did."""

    #: ``(node, strategy, generations_merged)`` per compacted key
    compacted: list[tuple[str, StorageStrategy, int]] = field(default_factory=list)
    #: keys left multi-generation because the rewrite budget ran out
    skipped: list[tuple[str, StorageStrategy]] = field(default_factory=list)
    #: size of the merged base segments written
    bytes_written: int = 0
    #: pre-compaction bytes of the merged generations minus bytes_written
    bytes_reclaimed: int = 0

    @property
    def ok(self) -> bool:
        return not self.skipped


class _FileHolds:
    """The segment files open records may still map, by absolute path, and
    the superseded ones among them.  One table serves the process, because
    two catalogs over one directory share files: the old and the new
    catalog of an in-place re-flush, or two engines serving one directory."""

    def __init__(self):
        self._lock = lockcheck.make_lock("catalog.files")
        self._holds: dict[str, int] = {}
        self._superseded: set[str] = set()

    def hold(self, paths: Iterable[str]) -> None:
        with self._lock:
            for path in paths:
                self._holds[path] = self._holds.get(path, 0) + 1

    def release(self, paths: tuple[str, ...]) -> list[str]:
        """Drop one hold on each of ``paths``; returns the superseded ones
        nothing holds any more, for the caller to unlink."""
        with self._lock:
            for path in paths:
                left = self._holds.pop(path) - 1
                if left:
                    self._holds[path] = left
            return self._unheld_locked(paths)

    def supersede(self, paths: list[str]) -> list[str]:
        """Mark ``paths`` superseded; returns the ones nothing holds, for
        the caller to unlink now (the rest go with their last holder)."""
        with self._lock:
            self._superseded.update(paths)
            return self._unheld_locked(paths)

    def _unheld_locked(self, paths) -> list[str]:
        gone = [p for p in paths if p in self._superseded and p not in self._holds]
        self._superseded.difference_update(gone)
        return gone


_FILES = _FileHolds()


@dataclass(eq=False)
class _OpenStore:
    """One open store: the shared object plus its lifetime count ``refs``
    (one for the cache while in ``StoreCatalog._open``, one per pin); it
    closes at 0 (:meth:`StoreCatalog._unref_locked`) and holds ``files``
    until then.

    ``store`` is None while the first borrower is still opening the
    segment; ``ready`` flips once the load finished (or failed, in which
    case ``error`` is set and the record has left the cache).  The record
    is inserted — pinned — *before* the load runs, so concurrent borrows
    of the same key share one open and borrows of other keys never wait
    behind it.
    """

    key: tuple[str, StorageStrategy]
    store: OpLineageStore | None
    #: the base generation's manifest bytes
    nbytes: int
    #: the delta files of the generation set this record serves (a base
    #: is never superseded: compaction and re-flush rename over it)
    files: tuple[str, ...]
    #: the cache's reference and the first borrower's pin
    refs: int = 2
    #: the overlay's lazily opened delta generations (empty for one
    #: generation)
    lazy: tuple[LazySource, ...] = ()
    #: 2Q tier: first-touch stores sit in ``probation`` (FIFO, first
    #: eviction victims); a re-reference promotes to ``protected`` (LRU)
    tier: str = "probation"
    #: the exception the opening thread hit, for waiting borrowers
    error: BaseException | None = None
    ready: threading.Event = field(default_factory=threading.Event)

    def resident_bytes(self) -> int:
        """What this record costs the budget: its base segment's manifest
        bytes (reserved while the store is still loading) plus the deltas
        its overlay has opened."""
        return self.nbytes + sum(source.resident_bytes() for source in self.lazy)


class StoreCatalog:
    """Lazy-open, budget-bounded (2Q), thread-safe view over a flushed
    workflow's lineage segments (see module docstring)."""

    def __init__(
        self,
        directory: str,
        entries: Iterable[CatalogEntry],
        memory_budget_bytes: int | None = None,
    ):
        self.directory = directory
        self._root = os.path.abspath(directory)
        #: cap on resident (mapped) segment bytes; None means unbounded,
        #: which preserves the pre-LRU behaviour of earlier releases
        self.memory_budget_bytes = memory_budget_bytes
        #: per (node, strategy): the live generations, oldest (lowest gen)
        #: first — a never-appended key holds exactly one gen-0 entry
        self._entries: dict[
            tuple[str, StorageStrategy], tuple[CatalogEntry, ...]
        ] = {}
        for entry in entries:
            self._entries[entry.key] = tuple(
                sorted(
                    self._entries.get(entry.key, ()) + (entry,),
                    key=lambda e: e.gen,
                )
            )
        self._lock = lockcheck.make_rlock("catalog.cache")
        #: serializes the *mutating* maintenance paths (append_stores,
        #: compact) against each other — two concurrent appends must never
        #: race the generation-ordinal choice (a duplicate ordinal would
        #: brick the manifest), and a compact never interleaves with an
        #: append's flush.  Readers are untouched: borrows only take
        #: ``_lock`` for cache bookkeeping.
        self._maintenance_lock = lockcheck.make_lock("catalog.maintenance")
        #: open-store cache with 2Q admission: ``probation`` records keep
        #: their insertion (FIFO) order because only a promotion moves a
        #: key to the end, so iteration order doubles as eviction order —
        #: probationary first-touch stores in arrival order, then
        #: ``protected`` re-referenced stores least-recently-used first
        self._open: "OrderedDict[tuple[str, StorageStrategy], _OpenStore]" = OrderedDict()
        #: 2Q ghost queue: keys recently evicted, remembered without data.
        #: A miss that hits the ghost is a re-reference across an eviction
        #: and admits straight to the protected tier — the scan-resistance
        #: half-life.  Bounded; oldest forgotten first.
        self._ghost: "OrderedDict[tuple[str, StorageStrategy], None]" = OrderedDict()
        #: records that left the cache while pinned: not closed yet, so
        #: still charged to the budget, and closed by :meth:`close`
        self._lingering: set[_OpenStore] = set()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._promotions = 0
        self._ghost_hits = 0
        #: shared generation-skip counters, injected into every overlay this
        #: catalog opens so :meth:`stats` sees process-wide filter hit rates
        self._filter_stats = FilterStats()
        #: ``(key, gen) -> (entry, filters)``: the resident filter copy of
        #: every delta generation opened so far.  The entry is matched by
        #: identity, so a copy a stale reader registers for a generation
        #: that compaction already replaced is never served
        self._resident_filters: dict[tuple, tuple[CatalogEntry, dict | None]] = {}

    # -- writing -------------------------------------------------------------

    @classmethod
    def write(
        cls,
        directory: str,
        stores,
        memory_budget_bytes: int | None = None,
    ) -> tuple["StoreCatalog", int]:
        """Flush ``stores`` (one segment file each, lowered tables
        included) and the manifest; returns ``(catalog, total_bytes_written)``.

        ``stores`` is anything with ``.items()`` yielding
        ``((node, strategy), store)`` pairs — a plain dict, or a lazy view
        like the runtime's one-at-a-time borrowing flush, which keeps only
        the store currently being written pinned in memory.

        A full write collapses generations: flushing an
        :class:`~repro.core.overlay.OverlayStore` writes the merged segment,
        and the delta files of the written stores are removed once no open
        record (of this process) may still map them."""
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise StorageError(
                f"cannot create catalog directory {directory!r}: {exc}"
            ) from exc
        entries: list[CatalogEntry] = []
        stale: list[str] = []
        total = 0
        for (node, strategy), store in stores.items():
            fname = store_filename(node, strategy)
            path = os.path.join(directory, fname)
            nbytes = store.flush_segment(path)
            total += nbytes
            entries.append(
                CatalogEntry(
                    node=node,
                    strategy=strategy,
                    out_shape=store.out_shape,
                    in_shapes=store.in_shapes,
                    file=fname,
                    nbytes=nbytes,
                    lowered=store.lowered_ready(),
                    filters=store.persists_filters(),
                )
            )
            # a full flush supersedes every delta generation of this store
            stale += [
                os.path.abspath(gen_path)
                for gen, gen_path in seglib.generation_files(path).items()
                if gen != 0
            ]
        catalog = cls(directory, entries, memory_budget_bytes=memory_budget_bytes)
        total += catalog.save_manifest()
        cls._reclaim(_FILES.supersede(stale))
        return catalog, total

    def save_manifest(self) -> int:
        """(Re)write ``catalog.json`` from the current entries, atomically;
        returns its size.  Recovery calls this after quarantining segments
        so the on-disk manifest stops advertising stores that no longer
        serve."""
        with self._lock:
            stores = []
            for generations in self._entries.values():
                for entry in generations:
                    obj = {
                        "node": entry.node,
                        "strategy": _strategy_to_json(entry.strategy),
                        "out_shape": list(entry.out_shape),
                        "in_shapes": [list(s) for s in entry.in_shapes],
                        "file": entry.file,
                        "nbytes": entry.nbytes,
                        "lowered": entry.lowered,
                    }
                    if entry.gen:
                        # gen 0 stays implicit so a never-appended manifest is
                        # byte-compatible with the pre-generation schema
                        obj["gen"] = entry.gen
                    if entry.filters:
                        # like gen: optional and additive, so catalogs
                        # written before filters round-trip byte-identically
                        obj["filters"] = True
                    stores.append(obj)
        manifest = {"format": FORMAT, "version": VERSION, "stores": stores}
        path = os.path.join(self.directory, MANIFEST_NAME)
        return _write_manifest(path, manifest, "catalog manifest")

    # -- appending (incremental delta generations) -----------------------------

    @classmethod
    def append(
        cls,
        directory: str,
        stores,
        memory_budget_bytes: int | None = None,
    ) -> tuple["StoreCatalog", int]:
        """Append ``stores`` to the catalog at ``directory`` as delta
        generations — the cheap incremental commit: only the deltas and the
        manifest are written, committed segments are never rewritten.
        Creates the catalog when the directory holds none (the append then
        degenerates to a first full flush).  Returns
        ``(catalog, total_bytes_written)``."""
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            catalog = cls.open(directory, memory_budget_bytes=memory_budget_bytes)
        else:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as exc:
                raise StorageError(
                    f"cannot create catalog directory {directory!r}: {exc}"
                ) from exc
            catalog = cls(directory, [], memory_budget_bytes=memory_budget_bytes)
        return catalog, catalog.append_stores(stores)

    def append_stores(self, stores) -> int:
        """Write each store as the next delta generation of its key and
        re-register the manifest; returns bytes written.

        Per store: a key the catalog already records gains generation
        ``max(gen) + 1`` (skipping ordinals whose files a crash left on
        disk); an unknown key is written as its generation-0 base segment,
        even when empty, so the catalog records that the key's lineage was
        stored.  An empty delta is skipped — it would add a probe pass of
        read amplification and no lineage.  A delta's array shapes must
        match the committed generations (a reshape needs a full re-flush).

        Open records of appended keys are retired, so the next borrow sees
        the new generation set; sessions pinned on the old set keep serving
        it until they release (the committed files are untouched).
        Concurrent appends (and compactions) are serialized, so two racing
        appends can never claim the same generation ordinal.
        """
        with self._maintenance_lock:
            # szlint: ignore[SZ002] -- the maintenance lock exists to serialize flush I/O; readers never take it
            return self._append_stores_locked(stores)

    def _append_stores_locked(self, stores) -> int:
        # validate every delta's shapes BEFORE writing anything, so a
        # mixed-validity batch fails whole: no store of the batch is
        # committed, and the manifest never lags a segment already written
        pending = []
        for (node, strategy), store in stores.items():
            with self._lock:
                existing = self._entries.get((node, strategy), ())
            if existing and store.n_entries == 0:
                continue
            if existing:
                base = existing[0]
                if (
                    store.out_shape != base.out_shape
                    or store.in_shapes != base.in_shapes
                ):
                    raise StorageError(
                        f"cannot append store ({node!r}, {strategy.label}): "
                        f"delta shapes out={store.out_shape} do not match the "
                        f"committed generations (out={base.out_shape}); "
                        "re-flush the catalog in full instead"
                    )
            pending.append(((node, strategy), store))
        total = 0
        appended = False
        try:
            for key, store in pending:
                total += self._append_one_locked(key, store)
                appended = True
        finally:
            # persist whatever WAS committed even when a later store's write
            # fails: the live entry map and catalog.json must not diverge
            if appended:
                total += self.save_manifest()
        return total

    def _append_one_locked(self, key: tuple[str, StorageStrategy], store) -> int:
        node, strategy = key
        with self._lock:
            existing = self._entries.get(key, ())
        base_path = os.path.join(self.directory, store_filename(node, strategy))
        if existing:
            on_disk = seglib.generation_files(base_path)
            gen = max(e.gen for e in existing) + 1
            while gen in on_disk:  # stale files from an interrupted run
                gen += 1
        else:
            gen = 0
        path = seglib.generation_path(base_path, gen)
        nbytes = store.flush_segment(path)
        entry = CatalogEntry(
            node=node,
            strategy=strategy,
            out_shape=store.out_shape,
            in_shapes=store.in_shapes,
            file=os.path.basename(path),
            nbytes=nbytes,
            lowered=store.lowered_ready(),
            gen=gen,
            filters=store.persists_filters(),
        )
        with self._lock:
            merged = self._entries.get(key, ()) + (entry,)
            self._entries[key] = tuple(sorted(merged, key=lambda e: e.gen))
            stale = self._retire_locked(key)
        self._reclaim(stale)
        return nbytes

    # -- compaction -------------------------------------------------------------

    def compact(
        self,
        node: str | None = None,
        strategy: StorageStrategy | None = None,
        budget_bytes: int | None = None,
    ) -> CompactionReport:
        """Merge delta generations back into one base segment per key,
        online: concurrent sessions keep serving throughout.

        ``node`` / ``strategy`` restrict the sweep to one store (or one
        node's stores); by default every multi-generation key is compacted,
        worst read amplification (most generations) first.  ``budget_bytes``
        caps the bytes *read and rewritten* in this call — keys that would
        exceed it are reported in :attr:`CompactionReport.skipped` for a
        later pass, but the first candidate always runs, so a small budget
        still makes progress.

        Per key the sequence is crash-safe and reader-safe: the merged
        segment is written to a tmp file and atomically renamed over the
        generation-0 path (pinned readers of the old base keep their inode);
        the in-memory entry set and then the manifest are swapped (a crash
        before the manifest swap leaves the old manifest pointing at the
        merged base plus the deltas — an overlay of a superset, still
        correct); finally the superseded delta generations are unlinked,
        deferred until the last open record that may map them closes.
        Mutating maintenance (appends, other compactions) is serialized
        with this call; readers are not blocked.
        """
        with self._maintenance_lock:
            # szlint: ignore[SZ002] -- the maintenance lock exists to serialize merge I/O; readers never take it
            return self._compact_locked(node, strategy, budget_bytes)

    def _compact_locked(
        self,
        node: str | None,
        strategy: StorageStrategy | None,
        budget_bytes: int | None,
    ) -> CompactionReport:
        with self._lock:
            candidates = [
                (key, generations)
                for key, generations in self._entries.items()
                if len(generations) > 1
                and (node is None or key[0] == node)
                and (strategy is None or key[1] == strategy)
            ]
        candidates.sort(key=lambda kv: (-len(kv[1]), kv[0][0]))
        report = CompactionReport()
        spent = 0
        for key, generations in candidates:
            size = sum(e.nbytes for e in generations)
            if (
                budget_bytes is not None
                and report.compacted
                and spent + size > budget_bytes
            ):
                report.skipped.append(key)
                continue
            written = self._compact_key(key, generations)
            spent += size
            report.compacted.append((key[0], key[1], len(generations)))
            report.bytes_written += written
            report.bytes_reclaimed += size - written
        return report

    def _compact_key(
        self,
        key: tuple[str, StorageStrategy],
        generations: tuple[CatalogEntry, ...],
    ) -> int:
        node, strategy = key
        base = generations[0]
        stores: list[OpLineageStore] = []
        try:
            # open the generations directly (not through the serving cache):
            # compaction reads stay off the serving path and never perturb
            # the LRU or its pin accounting
            for entry in generations:
                store = make_store(node, strategy, entry.out_shape, entry.in_shapes)
                store.load_segment(os.path.join(self.directory, entry.file))
                stores.append(store)
            # the merge itself is the overlay's: one absorb per generation,
            # oldest first, finalized once
            merged = OverlayStore(stores).merged_store()
            base_path = os.path.join(self.directory, store_filename(node, strategy))
            try:
                nbytes = merged.flush_segment(base_path)
            except (OSError, StorageError) as exc:
                # e.g. Windows refusing to rename over a base segment a
                # pinned reader still maps; nothing was swapped — the old
                # generation set keeps serving, retry after pins drop
                raise StorageError(
                    f"compaction of ({node!r}, {strategy.label}) could not "
                    f"replace {base_path!r} (still mapped by a reader?): "
                    f"{exc}"
                ) from exc
        finally:
            for store in stores:
                store.close()
        new_entry = CatalogEntry(
            node=node,
            strategy=strategy,
            out_shape=base.out_shape,
            in_shapes=base.in_shapes,
            file=store_filename(node, strategy),
            nbytes=nbytes,
            lowered=merged.lowered_ready(),
            gen=0,
            filters=merged.persists_filters(),
        )
        stale = [self._path(e) for e in generations if e.gen != 0]
        merged_gens = {e.gen for e in generations}
        with self._lock:
            # generations appended while we merged survive as deltas over
            # the new base; the ones we merged are replaced by it
            survivors = tuple(
                e for e in self._entries.get(key, ()) if e.gen not in merged_gens
            )
            self._entries[key] = tuple(
                sorted((new_entry,) + survivors, key=lambda e: e.gen)
            )
            for gen in merged_gens:
                self._resident_filters.pop((key, gen), None)
            # closes now unless a session pins it
            unlinkable = self._retire_locked(key)
        self.save_manifest()
        # readers of the old set keep their files until the last one closes
        self._reclaim(unlinkable + _FILES.supersede(stale))
        return nbytes

    # -- opening -------------------------------------------------------------

    @classmethod
    def open(
        cls, directory: str, memory_budget_bytes: int | None = None
    ) -> "StoreCatalog":
        """Parse the manifest only; no segment file is touched."""
        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(path) and os.path.exists(
            os.path.join(directory, "manifest.json")
        ):
            raise StorageError(
                f"{directory!r} holds a manifest.json but no {MANIFEST_NAME}: "
                "pre-segment layout, re-flush required"
            )
        manifest = _read_manifest(path, FORMAT, VERSION, "lineage catalog")
        entries = []
        try:
            for obj in manifest["stores"]:
                if isinstance(obj, dict) and "shards" in obj:
                    raise StorageError(
                        f"lineage catalog {path!r}: store {obj.get('file')!r} "
                        "uses the sharded layout, re-flush required"
                    )
                entries.append(
                    CatalogEntry(
                        node=obj["node"],
                        strategy=_strategy_from_json(obj["strategy"]),
                        out_shape=tuple(obj["out_shape"]),
                        in_shapes=tuple(tuple(s) for s in obj["in_shapes"]),
                        file=obj["file"],
                        nbytes=int(obj["nbytes"]),
                        lowered=bool(obj.get("lowered", False)),
                        gen=int(obj.get("gen", 0)),
                        filters=bool(obj.get("filters", False)),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"corrupt lineage catalog {path!r}: {exc}") from exc
        seen = set()
        for entry in entries:
            if (entry.key, entry.gen) in seen:
                raise StorageError(
                    f"corrupt lineage catalog {path!r}: store "
                    f"({entry.node!r}, {entry.strategy.label}) lists "
                    f"generation {entry.gen} twice"
                )
            seen.add((entry.key, entry.gen))
        return cls(directory, entries, memory_budget_bytes=memory_budget_bytes)

    # -- manifest-level accessors --------------------------------------------

    def __len__(self) -> int:
        """Number of stores (keys) — generations do not inflate the count."""
        return len(self._entries)

    def keys(self) -> list[tuple[str, StorageStrategy]]:
        return list(self._entries)

    def entries(self) -> list[CatalogEntry]:
        """Every live entry, one per *generation* (recovery verifies each)."""
        return [e for generations in self._entries.values() for e in generations]

    def entry(self, node: str, strategy: StorageStrategy) -> CatalogEntry | None:
        """The base (oldest live) generation of the key; None when absent."""
        generations = self._entries.get((node, strategy))
        return generations[0] if generations else None

    def generations_for(
        self, node: str, strategy: StorageStrategy
    ) -> tuple[CatalogEntry, ...]:
        """Every live generation of the key, oldest first."""
        return self._entries.get((node, strategy), ())

    def generation_count(self, node: str, strategy: StorageStrategy) -> int:
        """How many live generations serve the key (1 = compacted/base)."""
        return len(self._entries.get((node, strategy), ()))

    def drop_generation(self, node: str, strategy: StorageStrategy, gen: int) -> None:
        """Forget one generation of a key, keeping the others serving (used
        when recovery quarantines a torn delta segment).  Any open record is
        retired so the next borrow rebuilds the overlay without it."""
        with self._lock:
            generations = self._entries.get((node, strategy), ())
            kept = tuple(e for e in generations if e.gen != gen)
            if len(kept) == len(generations):
                return
            if kept:
                self._entries[(node, strategy)] = kept
            else:
                self._entries.pop((node, strategy), None)
            self._resident_filters.pop(((node, strategy), gen), None)
            stale = self._retire_locked((node, strategy))
        self._reclaim(stale)

    def manifest_bytes(self, node: str, strategy: StorageStrategy) -> int:
        """Total on-disk bytes of the key, summed across generations."""
        return sum(e.nbytes for e in self._entries.get((node, strategy), ()))

    def lowered_ready(self, node: str, strategy: StorageStrategy) -> bool:
        """True only when *every* generation persisted its lowered tables —
        an overlay scan is warm iff each generation's pass is."""
        generations = self._entries.get((node, strategy), ())
        return bool(generations) and all(e.lowered for e in generations)

    def filters_ready(self, node: str, strategy: StorageStrategy) -> bool:
        """True only when *every* generation persisted its key filters —
        the cost model may then price matched overlay reads at the
        filter-skip rate instead of the full per-generation probe rate."""
        generations = self._entries.get((node, strategy), ())
        return bool(generations) and all(e.filters for e in generations)

    # -- serving: borrow / release (the pinned path) --------------------------

    def borrow(self, node: str, strategy: StorageStrategy) -> _OpenStore | None:
        """Open (or hit) the store and return a *pinned* record; None when
        the key is not in the manifest.

        The returned record's ``.store`` is safe to read from the calling
        thread until the matching :meth:`release` — eviction will never
        close a mapping while it holds a pin.  Every borrow must be paired
        with exactly one release (``QuerySession`` does this bookkeeping).

        The catalog lock is held only for the cache bookkeeping: a miss
        inserts a pinned placeholder, then opens the segment *outside* the
        lock, so concurrent borrows of other stores (and hits) never queue
        behind one thread's open; concurrent borrows of the *same* store
        wait on the record's ready event and share the single mapping.
        """
        key = (node, strategy)
        load_entries = None
        with self._lock:
            record = self._open.get(key)
            if record is not None:
                if record.tier == "probation":
                    # 2Q promotion: the second touch proves re-reference
                    record.tier = "protected"
                    self._promotions += 1
                self._open.move_to_end(key)
                record.refs += 1
                self._hits += 1
            else:
                generations = self._entries.get(key)
                if not generations:
                    return None
                self._misses += 1
                tier = "probation"
                if key in self._ghost:
                    # re-reference across an eviction: the ghost remembers
                    # this key was here recently, so admit it protected
                    del self._ghost[key]
                    self._ghost_hits += 1
                    tier = "protected"
                record = _OpenStore(
                    key=key,
                    store=None,
                    nbytes=generations[0].nbytes,
                    files=tuple(self._path(e) for e in generations[1:]),
                    tier=tier,
                )
                self._open[key] = record
                _FILES.hold(record.files)
                load_entries = generations  # this thread inserted the placeholder
                hits = [self._resident_filters.get((key, e.gen)) for e in generations[1:]]
                delta_filters = [
                    hit[1] if hit is not None and hit[0] is e else LazySource.UNKNOWN
                    for hit, e in zip(hits, generations[1:])
                ]
        if load_entries is not None:  # ...so this thread performs the open
            try:
                store, record.lazy = self._open_generations(
                    key, load_entries, delta_filters
                )
            except BaseException as exc:
                with self._lock:
                    record.error = exc
                    stale = self._unref_locked(record)
                    if self._open.get(key) is record:
                        stale += self._retire_locked(key)
                record.ready.set()  # wake waiters; they re-raise via error
                self._reclaim(stale)
                raise
            record.store = store
            record.ready.set()
            with self._lock:
                stale = self._evict_over_budget()
            self._reclaim(stale)
            return record
        record.ready.wait()
        if record.error is not None:
            with self._lock:
                stale = self._unref_locked(record)
            self._reclaim(stale)
            raise StorageError(
                f"store ({node!r}, {strategy.label}) failed to open"
            ) from record.error
        return record

    def _open_generations(
        self,
        key: tuple[str, StorageStrategy],
        generations: tuple[CatalogEntry, ...],
        delta_filters: list,
    ) -> tuple[OpLineageStore, tuple[LazySource, ...]]:
        """Map a key's base; a single generation comes back as the plain
        store, several as the overlay over the base and one
        :class:`LazySource` per delta, each given its resident filter copy
        (``LazySource.UNKNOWN`` before its first open).  Returns
        ``(store, lazy deltas)``."""
        base = self._load_generation(key, generations[0])
        if len(generations) == 1:
            return base, ()
        lazy = tuple(
            LazySource(
                entry,
                lambda entry=entry: self._open_delta(key, entry),
                filters,
            )
            for entry, filters in zip(generations[1:], delta_filters)
        )
        return OverlayStore([base, *lazy], filter_stats=self._filter_stats), lazy

    def _path(self, entry: CatalogEntry) -> str:
        """The absolute path of one generation's segment file."""
        return os.path.join(self._root, entry.file)

    def _load_generation(
        self, key: tuple[str, StorageStrategy], entry: CatalogEntry
    ) -> OpLineageStore:
        """Map one generation's segment into a fresh layout store."""
        store = make_store(key[0], key[1], entry.out_shape, entry.in_shapes)
        store.load_segment(os.path.join(self.directory, entry.file))
        return store

    def _open_delta(
        self, key: tuple[str, StorageStrategy], entry: CatalogEntry
    ) -> tuple[OpLineageStore, dict | None]:
        """A :class:`LazySource`'s opener: map one delta and keep a copy of
        its filters resident while the entry is live."""
        store = self._load_generation(key, entry)
        filters = _resident_copy(store._filters)
        with self._lock:
            if any(e is entry for e in self._entries.get(key, ())):
                self._resident_filters[(key, entry.gen)] = (entry, filters)
        return store, filters

    def release(self, record: _OpenStore) -> None:
        """Drop one pin; a record that left the cache while pinned closes
        on its last release, and otherwise the budget is re-checked now
        that a pin is free."""
        with self._lock:
            stale = self._unref_locked(record)
            if record.refs > 0:
                stale += self._evict_over_budget()
        self._reclaim(stale)

    def open_store(
        self, node: str, strategy: StorageStrategy
    ) -> OpLineageStore | None:
        """Open (and cache) one store lazily; None when not in the manifest.

        The returned store's components are mmap-backed views over the
        segment — nothing is decoded until a query touches it, and the
        persisted lowered tables make its first mismatched scan warm.

        This is the *unpinned* convenience path: with no memory budget the
        store stays cached indefinitely (the pre-LRU contract); with a
        budget set, long-lived readers should borrow through a
        :class:`~repro.core.query.QuerySession` instead, because an
        unpinned store may be evicted (and closed) as soon as the next
        open needs the room.  The store returned here is excluded from the
        unpin's own budget check, so it is always live when handed back —
        a later eviction makes it raise loudly rather than answer empty.
        """
        record = self.borrow(node, strategy)
        if record is None:
            return None
        with self._lock:
            # a record retired while we held the only pin (e.g. recovery
            # dropped the entry) closes now, so the mapping never lingers;
            # the poisoned store tells the caller loudly
            stale = self._unref_locked(record)
            if record.refs > 0:
                stale += self._evict_over_budget(exclude=record)
        self._reclaim(stale)
        return record.store

    # -- eviction ------------------------------------------------------------

    def _evict_over_budget(self, exclude: _OpenStore | None = None) -> list[str]:
        """Evict (2Q order: probation FIFO, then protected LRU) until
        resident bytes fit the budget; returns the superseded files the
        evictions released (the caller reclaims them after dropping the
        lock).

        Only *unpinned* records are eligible — classic buffer-pool
        semantics: borrowed stores stay shared and mapped, and the cache
        may transiently exceed the budget by the pinned working set.  The
        budget is re-checked on every release, so a store that outlived
        its welcome closes the moment its last pin drops.  ``exclude``
        shields one record from this pass only (the store ``open_store``
        is about to hand back unpinned).  Callers hold the lock.
        """
        unlinkable: list[str] = []
        budget = self.memory_budget_bytes
        if budget is None:
            return unlinkable
        while self._resident_bytes_locked() > budget:
            victim_key = None
            # 2Q victim order: probationary (never re-referenced) stores go
            # first, in FIFO arrival order — a one-off scan churns only its
            # own admissions.  Protected stores are plain LRU and fall only
            # when no unpinned probationary victim remains.  Within a tier,
            # multi-generation overlays (cold deltas awaiting compaction,
            # cheap to re-open and due to be merged anyway) fall before
            # single-generation bases at the same recency.
            for wanted_tier in ("probation", "protected"):
                fallback = None
                for key, record in self._open.items():
                    if (
                        record.tier != wanted_tier
                        or record.refs > 1  # pinned
                        or record is exclude
                    ):
                        continue
                    if len(self._entries.get(key, ())) > 1:
                        victim_key = key
                        break
                    if fallback is None:
                        fallback = key
                if victim_key is None:
                    victim_key = fallback
                if victim_key is not None:
                    break
            if victim_key is None:
                break  # everything left is pinned; retry at next release
            self._evictions += 1
            self._remember_ghost_locked(victim_key)
            unlinkable.extend(self._retire_locked(victim_key))
        return unlinkable

    def _remember_ghost_locked(self, key: tuple[str, StorageStrategy]) -> None:
        """Push an evicted key onto the bounded ghost queue (oldest
        forgotten first).  Capacity scales with the catalog so one sweep
        over every store cannot wash out the re-reference memory.
        Callers hold the lock."""
        self._ghost[key] = None
        self._ghost.move_to_end(key)
        capacity = max(16, 2 * len(self._entries))
        while len(self._ghost) > capacity:
            self._ghost.popitem(last=False)

    def _unref_locked(self, record: _OpenStore) -> list[str]:
        """Drop one reference to ``record``; at 0 it closes: its mapping is
        released and its file holds drop.  Returns the superseded files no
        record holds any more.  Callers hold the lock and MUST pass the
        returned paths to :meth:`_reclaim` after dropping it: unlinks are
        disk I/O, and the catalog lock is never held across disk I/O (rule
        SZ002).  The ``store.close()`` itself — an munmap — stays under the
        lock: it is non-blocking bookkeeping, and running it here keeps
        resident-byte accounting exact."""
        record.refs -= 1
        if record.refs != 0:  # still referenced (or a release after close())
            return []
        self._lingering.discard(record)
        if record.store is not None:
            record.store.close()
        return _FILES.release(record.files)

    def _retire_locked(self, key: tuple[str, StorageStrategy]) -> list[str]:
        """Take ``key``'s record (if any) out of the cache and drop the
        cache's reference: it closes now, or lingers until its last
        release while pinned.  Returns paths to reclaim."""
        record = self._open.pop(key, None)
        if record is None:
            return []
        self._lingering.add(record)
        return self._unref_locked(record)

    @staticmethod
    def _reclaim(paths: list[str]) -> None:
        """Unlink superseded segment files — always called after the
        catalog lock is released, so one thread's slow disk never stalls
        every concurrent borrow on cache bookkeeping."""
        for path in paths:
            seglib.remove_segment(path)

    def _resident_bytes_locked(self) -> int:
        total = sum(r.resident_bytes() for r in self._open.values())
        return total + sum(r.resident_bytes() for r in self._lingering)

    # -- introspection ---------------------------------------------------------

    def open_count(self) -> int:
        """How many stores are currently open in the cache (laziness probe)."""
        with self._lock:
            return len(self._open)

    def is_open(self, node: str, strategy: StorageStrategy) -> bool:
        with self._lock:
            return (node, strategy) in self._open

    def stats(self) -> dict[str, int]:
        """Serving-cache counters for benchmarks and ``explain()``."""
        with self._lock:
            out = {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "promotions": self._promotions,
                "ghost_hits": self._ghost_hits,
                "open_mappings": len(self._open) + len(self._lingering),
                "resident_bytes": self._resident_bytes_locked(),
            }
        # the filter counters have their own lock; merged outside ours
        out.update(self._filter_stats.snapshot())
        return out

    # -- lifecycle -------------------------------------------------------------

    def retire(self) -> None:
        """Leave service after a full re-flush of this directory superseded
        it: unpinned mappings close now, pinned ones on their last
        :meth:`release`, and the delta files the re-flush superseded go
        with the last record that may map them."""
        with self._lock:
            stale = [path for key in list(self._open) for path in self._retire_locked(key)]
        self._reclaim(stale)

    def close(self) -> None:
        """Close every open mapping and empty the cache.

        Pinned records are closed too — callers must first end their
        sessions; this is the shutdown path, not an eviction."""
        with self._lock:
            stale = [path for key in list(self._open) for path in self._retire_locked(key)]
            for record in list(self._lingering):
                record.refs = 1  # shutdown: the outstanding pins stop counting
                stale += self._unref_locked(record)
            self._resident_filters.clear()
        self._reclaim(stale)

    def __enter__(self) -> "StoreCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _resident_copy(filters: dict | None) -> dict | None:
    """A loaded store's filters with the bloom bits copied off the mapping,
    so they stay valid after the segment closes."""
    if filters is None:
        return None
    return {
        tag: GenerationFilter.from_meta(f.meta(), np.array(f.bits))
        for tag, f in filters.items()
    }
