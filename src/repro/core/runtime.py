"""The lineage runtime: strategy assignment, sinks, encoding, accounting.

This is the architecture's *Runtime* box (§III): operators send lineage to
it as they process data; it buffers region pairs, encodes them via the
strategy-specific stores, and forwards statistics to the collector that
feeds the optimizer.
"""

from __future__ import annotations

import time

from repro.analysis import lockcheck
from repro.core.capture import CapturePipeline, sink_nbytes
from repro.core.lineage_store import OpLineageStore, make_store
from repro.core.model import BufferSink
from repro.core.modes import BLACKBOX, LineageMode, StorageStrategy
from repro.core.stats import StatsCollector
from repro.errors import LineageError
from repro.ops.base import Operator

__all__ = ["LineageRuntime"]

# Modes that require the operator to execute its lineage-recording code.
_PAIR_MODES = (LineageMode.FULL, LineageMode.PAY, LineageMode.COMP)


class LineageRuntime:
    """Owns every per-(node, strategy) lineage store for one workflow run."""

    def __init__(
        self,
        stats: StatsCollector | None = None,
        profile: bool = False,
        deferred: bool = False,
    ):
        self.stats = stats if stats is not None else StatsCollector()
        #: when True, operators are asked to emit every pair form they can,
        #: the statistics are recorded, and nothing is stored — the paper's
        #: initial black-box phase that feeds the optimizer.
        self.profile = profile
        #: when True, :meth:`ingest` submits each node's lowering job to the
        #: background encode worker instead of running it inline on the
        #: workflow thread (deferred materialisation; :mod:`repro.core.capture`)
        self.deferred = deferred
        self._capture = CapturePipeline()
        self._strategies: dict[str, tuple[StorageStrategy, ...]] = {}
        self._stores: dict[tuple[str, StorageStrategy], OpLineageStore] = {}
        #: lazy-open view over a flushed workflow (attached by load_all);
        #: stores it records are opened on first access via store_for
        self._catalog = None

    # -- strategy assignment ---------------------------------------------------

    def set_strategies(self, node: str, strategies) -> None:
        """Assign the storage strategies for ``node`` (next run applies them)."""
        if isinstance(strategies, StorageStrategy):
            strategies = (strategies,)
        deduped: list[StorageStrategy] = []
        for strategy in strategies:
            if strategy not in deduped:
                deduped.append(strategy)
        self._strategies[node] = tuple(deduped)

    def strategies_for(self, node: str) -> tuple[StorageStrategy, ...]:
        """Assigned strategies; black-box is always implicitly available."""
        return self._strategies.get(node, (BLACKBOX,))

    def validate_against(self, node: str, op: Operator) -> None:
        supported = op.supported_modes() | {LineageMode.BLACKBOX}
        for strategy in self.strategies_for(node):
            if strategy.mode not in supported:
                raise LineageError(
                    f"node {node!r}: operator does not support mode "
                    f"{strategy.mode} (supported: {sorted(m.value for m in supported)})"
                )

    # -- run-time hooks used by the workflow executor -----------------------------

    def cur_modes(self, node: str, op: Operator) -> frozenset[LineageMode]:
        """The ``cur_modes`` argument for this node's ``run()`` call."""
        if self.profile:
            modes = op.supported_modes() & set(_PAIR_MODES)
            return frozenset(modes) if modes else frozenset({LineageMode.BLACKBOX})
        modes = {
            s.mode for s in self.strategies_for(node) if s.mode in _PAIR_MODES
        }
        return frozenset(modes) if modes else frozenset({LineageMode.BLACKBOX})

    def prepare_node(self, node: str, op: Operator) -> None:
        """Create the stores for a node once its schemas are bound."""
        self.validate_against(node, op)
        for strategy in self.strategies_for(node):
            if not strategy.stores_pairs:
                continue
            key = (node, strategy)
            self._stores[key] = make_store(
                node, strategy, op.output_shape, op.input_shapes
            )

    def ingest(
        self,
        node: str,
        sink: BufferSink,
        out_shape: tuple[int, ...] | None = None,
        in_shapes: tuple[tuple[int, ...], ...] | None = None,
    ) -> float:
        """Account and lower everything an operator emitted; returns the
        *foreground* seconds spent.

        Both capture modes run the same steps: count the sink's pairs
        (which seals any staged per-pair rows into region batches), then
        run :meth:`_encode_sink`.  Deferred mode submits that job to the
        background encode worker, so the workflow thread pays only for
        descriptor bookkeeping (``capture_seconds``) and the encode lands
        on ``encode_thread_seconds`` where it overlaps the next node's
        compute.  Eager mode — and the profiling phase, which stores
        nothing and only prices — calls it inline, so the returned seconds
        include the encode.

        When the executor passes the operator's array shapes, the job also
        prices a sample of the pairs through the codec layer so the
        optimizer later budgets against compressed footprints.
        """
        start = time.perf_counter()
        self.stats.record_sink(node, sink)
        stores = [] if self.profile else [
            (strategy, self._stores[(node, strategy)])
            for strategy in self.strategies_for(node)
            if (node, strategy) in self._stores
        ]
        background = self.deferred and not self.profile
        if background:
            self._capture.submit(
                lambda: self.stats.record_encode_thread(
                    self._encode_sink(node, stores, sink, out_shape, in_shapes)
                )
            )
        else:
            self._encode_sink(node, stores, sink, out_shape, in_shapes)
        elapsed = time.perf_counter() - start
        if background:
            self.stats.record_capture(elapsed, sink.n_pairs, sink_nbytes(sink))
        return elapsed

    def _encode_sink(
        self, node: str, stores, sink: BufferSink, out_shape, in_shapes
    ) -> float:
        """The one routine that lowers a sink: codec-price it for the
        optimizer, then ingest it into every assigned store; returns the
        seconds spent.  Runs on the single encode worker (deferred) or the
        workflow thread (eager) — never both for one runtime, which keeps
        each store's single-writer contract."""
        total = 0.0
        if out_shape is not None and in_shapes is not None:
            start = time.perf_counter()
            self.stats.price_sink(node, sink, out_shape, in_shapes)
            total += time.perf_counter() - start
        for strategy, store in stores:
            start = time.perf_counter()
            store.ingest(sink)
            store.finalize_if_possible()
            elapsed = time.perf_counter() - start
            store.write_seconds += elapsed
            total += elapsed
            self.stats.record_store(
                node, strategy.label, elapsed, store.disk_bytes()
            )
        return total

    def drain_capture(self) -> None:
        """Join every in-flight background encode/flush job; re-raises the
        first failure (typically a :class:`~repro.errors.StorageError`).
        Cheap no-op when nothing was ever deferred."""
        self._capture.drain()

    # -- query-side accessors ---------------------------------------------------------

    @property
    def catalog(self):
        """The attached :class:`~repro.storage.partition.PartitionedCatalog`,
        or None."""
        return self._catalog

    def session(self):
        """A :class:`~repro.core.query.QuerySession` over this runtime:
        catalog-backed stores borrowed through it are pinned (never evicted
        mid-read) until the session closes."""
        from repro.core.query import QuerySession

        return QuerySession(self)

    def resident_store(
        self, node: str, strategy: StorageStrategy
    ) -> OpLineageStore | None:
        """The in-memory (ingested) store only — never opens anything from
        the catalog."""
        return self._stores.get((node, strategy))

    def store_for(self, node: str, strategy: StorageStrategy) -> OpLineageStore | None:
        """The store serving (node, strategy) — opened lazily from the
        attached catalog on first access when not resident.

        Catalog stores are cached *in the catalog* (subject to its 2Q
        eviction budget), not copied into the runtime, so this method never mutates
        runtime state.  Readers that must survive eviction (concurrent
        serving) should borrow through :meth:`session` instead."""
        store = self._stores.get((node, strategy))
        if store is None and self._catalog is not None:
            store = self._catalog.open_store(node, strategy)
        return store

    def store_resident(self, node: str, strategy: StorageStrategy) -> bool:
        """True when a query on (node, strategy) needs no segment (re)open:
        the store is in memory, or currently open in the catalog cache."""
        if (node, strategy) in self._stores:
            return True
        return self._catalog is not None and self._catalog.is_open(node, strategy)

    def reopen_bytes(self, node: str, strategy: StorageStrategy) -> int:
        """Segment bytes a query would have to (re)map before serving this
        store — 0 when resident, the manifest size when the store is only
        on disk (never opened, or evicted).  Feeds the cost model's
        reopen-after-evict pricing."""
        if self.store_resident(node, strategy):
            return 0
        if self._catalog is not None:
            return self._catalog.manifest_bytes(node, strategy)
        return 0

    def partition_fanout(self, node: str) -> int:
        """How many catalog partitions a read on ``node`` must probe — 1
        with no catalog or when the node routes to one partition, the
        broadcast width otherwise.  Feeds the cost model's scatter fan-out
        pricing."""
        if self._catalog is None:
            return 1
        return self._catalog.partition_fanout(node)

    def serving_stats(self) -> dict[str, int]:
        """The catalog cache's hit/miss/evict/open-mapping counters (zeros
        when no catalog is attached; a root manifest adds its
        scatter/probe counters), plus the lock-order validator's
        counters — all zero unless ``REPRO_LOCKCHECK=1`` instrumented the
        locks (see :mod:`repro.analysis.lockcheck`) — plus the deferred-
        capture counters (capture/encode-thread seconds, parked pairs and
        bytes), plus the generation-filter and background-maintenance
        counters."""
        if self._catalog is not None:
            stats = self._catalog.stats()
        else:
            stats = {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "open_mappings": 0,
                "resident_bytes": 0,
                "filter_probes": 0,
                "generations_skipped": 0,
                "bloom_fp": 0,
            }
        stats.update(lockcheck.stats())
        stats.update(self.stats.capture)
        stats.update(self.stats.maintenance)
        return stats

    def lowered_ready(self, node: str, strategy: StorageStrategy) -> bool:
        """True when (node, strategy)'s mismatched scans would run off warm
        lowered tables — resident-and-cached, or persisted in the catalog's
        segment.  Answered without opening anything."""
        store = self._stores.get((node, strategy))
        if store is not None:
            return store.lowered_ready()
        if self._catalog is not None:
            return self._catalog.lowered_ready(node, strategy)
        return False

    def filters_ready(self, node: str, strategy: StorageStrategy) -> bool:
        """True when a catalog-served overlay of (node, strategy) can skip
        non-owning generations via persisted key filters.  Resident stores
        answer False: they are a single generation, nothing to skip."""
        if (node, strategy) in self._stores:
            return False
        if self._catalog is not None:
            return self._catalog.filters_ready(node, strategy)
        return False

    def generation_count(self, node: str, strategy: StorageStrategy) -> int:
        """How many catalog generations a query on (node, strategy) must
        overlay — 1 for resident or compacted stores.  Feeds the cost
        model's read-amplification pricing, answered from the manifest."""
        if (node, strategy) in self._stores:
            return 1
        if self._catalog is not None:
            return max(1, self._catalog.generation_count(node, strategy))
        return 1

    # -- accounting ---------------------------------------------------------------------
    #
    # Catalog-backed stores always report their manifest (segment file)
    # size — opened or not — so the totals neither force a segment open
    # nor drift as queries lazily open or the cache evicts stores; resident
    # stores report their logical footprint.

    def total_disk_bytes(self) -> int:
        total = sum(store.disk_bytes() for store in self._stores.values())
        if self._catalog is not None:
            total += sum(
                entry.nbytes
                for entry in self._catalog.entries()
                if entry.key not in self._stores
            )
        return total

    def disk_bytes_by_node(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for key, store in self._stores.items():
            out[key[0]] = out.get(key[0], 0) + store.disk_bytes()
        if self._catalog is not None:
            for entry in self._catalog.entries():
                if entry.key not in self._stores:
                    out[entry.node] = out.get(entry.node, 0) + entry.nbytes
        return out

    def total_write_seconds(self) -> float:
        return sum(store.write_seconds for store in self._stores.values())

    def clear_stores(self) -> None:
        self.close()
        self._stores.clear()

    def close(self) -> None:
        """Stop the background encode worker (re-raising the first failure
        a background job parked), then release every mapping this runtime
        holds open: the catalog's open-store cache, and any resident store
        hydrated straight from a segment.  Mappings are released even when
        a background encode failed — the failure propagates afterwards."""
        try:
            self._capture.close()
        finally:
            if self._catalog is not None:
                self._catalog.close()
                self._catalog = None
            for store in self._stores.values():
                store.close()

    def __enter__(self) -> "LineageRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- persistence --------------------------------------------------------------------

    def flush_all(self, directory: str, append: bool = False, partitions=None) -> int:
        """Drain any in-flight background encodes, then persist every
        lineage store (see :meth:`_flush_all_now` for the write itself);
        returns total bytes written."""
        self.drain_capture()
        return self._flush_all_now(directory, append=append, partitions=partitions)

    def flush_all_async(self, directory: str, append: bool = False, partitions=None):
        """Queue the flush on the background encode worker and return its
        :class:`~concurrent.futures.Future` (resolving to bytes written).

        The worker is a single FIFO thread, so the flush job necessarily
        runs *after* every encode submitted before it — no drain is needed
        (and draining inside the job would self-join).  The caller must
        eventually observe the future (``SubZero.close`` joins pending
        flushes), at which point any :class:`~repro.errors.StorageError`
        re-raises."""
        return self._capture.submit(
            lambda: self._flush_all_now(directory, append=append, partitions=partitions)
        )

    def _flush_all_now(
        self, directory: str, append: bool = False, partitions=None
    ) -> int:
        """Persist every lineage store under ``directory`` as one segment
        file each (lowered batch-scan tables included) plus a workflow
        manifest (``catalog.json``); returns total bytes written.  Region
        lineage stays a cache — this just lets a later session serve it
        straight off disk instead of rebuilding it.

        ``append=True`` turns the flush incremental: only the *resident*
        stores (this run's lineage) are written, as delta generations of
        whatever catalog already lives at ``directory`` — committed
        segments are never rewritten, so the cost is O(delta), not
        O(catalog).  A later ``load_all`` overlays the generations;
        :meth:`~repro.core.catalog.StoreCatalog.compact` merges them back.
        An attached catalog for the same directory is appended in place
        (its open records are retired so new borrows see the delta).
        A full flush into the attached catalog's own directory replaces it:
        the runtime serves the catalog the flush wrote (same memory budget)
        and retires the old one, whose pinned records keep serving their
        sessions until released.

        When a catalog is attached and ``append`` is False, its entries
        that no query has opened yet are borrowed (pinned) *one at a time*
        as the writer reaches them, so a lazy ``load_all`` followed by a
        ``flush_all`` is lossless, a cache eviction racing the flush can
        never close a store mid-write, and peak resident bytes overshoot
        the memory budget by at most one store rather than the whole
        workflow.  A multi-generation catalog entry is re-flushed as its
        merged (compacted) segment.

        ``partitions`` (an int or a node→partition-id mapping) splits the
        flush into a partitioned root (see
        :mod:`repro.storage.partition`) instead of one plain catalog
        directory; omitted, a full flush onto the attached catalog's own
        directory keeps its layout, and ``append=True`` to a partitioned
        root routes each delta to its owning partition (``partitions``
        itself cannot combine with ``append`` — appends never
        re-partition)."""
        import os

        from repro.storage.partition import PartitionedCatalog

        resident = dict(self._stores)
        catalog = self._catalog
        in_place = catalog is not None and os.path.abspath(
            catalog.directory
        ) == os.path.abspath(directory)

        if append:
            if partitions is not None:
                raise LineageError(
                    "append=True cannot re-partition; flush the catalog fresh "
                    "with partitions=... instead"
                )
            if in_place:
                return catalog.append_stores(resident)
            return PartitionedCatalog.append(directory, resident)

        if partitions is None and in_place:
            partitions = catalog.layout()

        class _Stores:
            """One-at-a-time borrowing view consumed by the catalog write."""

            @staticmethod
            def items():
                yield from resident.items()
                if catalog is None:
                    return
                for key in catalog.keys():
                    if key in resident:
                        continue
                    record = catalog.borrow(*key)
                    if record is None:
                        continue
                    try:
                        yield key, record.store
                    finally:
                        # runs as soon as the writer advances past this
                        # store (or abandons the iteration)
                        catalog.release(record)

        budget = catalog.memory_budget_bytes if in_place else None
        written, total = PartitionedCatalog.write(
            directory, _Stores(), partitions=partitions, memory_budget_bytes=budget
        )
        if in_place:
            # the flush removed the delta files the old catalog still names
            self.attach_catalog(written)
            catalog.retire()
        else:
            written.close()
        return total

    def load_all(self, directory: str, memory_budget_bytes: int | None = None) -> int:
        """Attach the catalog flushed to ``directory``; returns the number
        of stores it records.

        Nothing is materialised here: the manifest alone is read, the
        recorded strategies are registered so the query planner sees them,
        and each store's segment is opened lazily (mmap-backed) the first
        time a query asks for it via :meth:`store_for` or a session.
        ``memory_budget_bytes`` bounds the catalog's open-store cache (2Q
        eviction); None keeps it unbounded.  A plain catalog directory
        attaches as a one-partition root; a directory holding a
        ``partitions.json`` root manifest splits the budget across its
        partitions (see :mod:`repro.storage.partition`).  A directory
        flushed before the segmented format (``manifest.json``, no
        ``catalog.json``) is refused with a
        :class:`~repro.errors.StorageError` — re-flush it."""
        from repro.storage.partition import PartitionedCatalog

        return self.attach_catalog(
            PartitionedCatalog.open(directory, memory_budget_bytes=memory_budget_bytes)
        )

    def attach_catalog(self, catalog) -> int:
        """Serve queries from an already-open
        :class:`~repro.storage.partition.PartitionedCatalog`."""
        self._catalog = catalog
        for node, strategy in catalog.keys():
            existing = self._strategies.get(node, ())
            if strategy not in existing:
                self._strategies[node] = existing + (strategy,)
        return len(catalog)
