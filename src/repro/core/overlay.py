"""Source-agnostic read union over the live pieces of one lineage store.

A ``(node, strategy)`` key can be served by more than one physical store
at once, for two independent reasons:

* **Generations.**  An incremental flush (``flush_lineage(append=True)``)
  leaves the key split across the base segment plus one delta segment per
  appended run (``<name>.gen.<g>.seg``, see :mod:`repro.storage.segment`)
  until a compaction merges them.
* **Partitions.**  A partitioned catalog
  (:class:`~repro.storage.partition.PartitionedCatalog`) splits a
  workflow's lineage by node subset; a key that lands in several
  partitions (an explicit multi-assignment, or a re-mapped append) is
  served by one store per partition.

In both cases queries must see the *union* — lineage accumulates, it is
never overwritten — and :class:`OverlayStore` is that union view over any
list of :data:`LineageSource` members (oldest/lowest-precedence first).
It answers the whole read API by consulting all of them, newest first,
merging per-cell verdicts with OR and cell sets by concatenation.  The
merge code is deliberately unaware of *why* the key is split: a
generation overlay and a partition union run the identical paths (one
implementation, per the roadmap — not two parallel merge engines), and a
partition union whose members are themselves generation overlays simply
nests.

Design points:

* **Each source keeps its own indexes.**  Matched probes run one hash
  lookup / R-tree descent per source; mismatched scans run each
  source's vectorised :class:`~repro.storage.codecs.BatchProbe` pass
  over that source's (persisted) lowered tables.  Nothing is rebuilt
  at open time — that is what makes appends cheap — but every extra
  source adds a probe pass, which is the *read amplification* the cost
  model prices (:meth:`~repro.core.costmodel.CostModel.overlay_penalty_seconds`)
  and :meth:`~repro.core.catalog.StoreCatalog.compact` removes.
* **Payload scans pay the amplification most visibly**: the executor's
  columnar forward scan wants one ``(keys, koff, vbuf, voff)`` surface, so
  the overlay concatenates the sources' columns on first use (cached —
  sources are immutable once opened).
* The overlay is read-only: ingest/absorb go to the concrete layouts.  A
  full (non-append) re-flush of an overlay collapses it — the segment it
  writes is the compacted merge.
* The overlay maps no segment of its own.  A catalog-served generation
  overlay holds its base eagerly and each delta as a :class:`LazySource`
  that maps its segment on first read; the serving cache charges the
  base plus the deltas actually opened.  A lazy delta answers the skip
  probe from filters the catalog keeps resident (bits copied off the
  mapping, about 10 bits per stored key), so a matched read never maps a
  delta its filter rules out.

Query answers over an overlay are *set-identical* to the same lineage in
one store: every public read returns packed cell sets (or per-cell
verdicts) that the executor deduplicates, so concatenation across
sources is exact, even when sources overlap.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import lockcheck
from repro.core.lineage_store import OpLineageStore, _concat, make_store
from repro.errors import StorageError

__all__ = ["FilterStats", "LazySource", "LineageSource", "OverlayStore"]

#: The union-member contract.  Anything that answers the
#: :class:`~repro.core.lineage_store.OpLineageStore` read API can be a
#: member of an :class:`OverlayStore`: a concrete single-segment store
#: (one generation, or one partition's compacted key), or another overlay
#: (a partition union over per-partition generation overlays nests).  The
#: alias exists so call sites can say what they mean — "a list of lineage
#: sources" — without caring which physical split produced them.
LineageSource = OpLineageStore


class FilterStats:
    """Shared counters for the overlay's source-skip filters.

    One instance is owned by the :class:`~repro.core.catalog.StoreCatalog`
    (or the partitioned root) and injected into every overlay it opens, so
    the serving stats see the whole process's filter effectiveness; a
    standalone overlay makes its own.  Counter names keep the historical
    ``generations_*`` spelling — generations are by far the common source
    kind — but a skipped partition member counts identically.  Counters
    accumulate once per read call (not per source) to keep the hot path
    to a single short lock acquisition.
    """

    __slots__ = ("_lock", "filter_probes", "generations_skipped", "bloom_fp")

    def __init__(self):
        self._lock = lockcheck.make_lock("overlay.filterstats")
        #: generation probes that had a filter to consult
        self.filter_probes = 0
        #: probes answered False — the generation's read was skipped
        self.generations_skipped = 0
        #: probes answered True whose read then matched nothing (bloom /
        #: zone false positives; the overlay read stayed correct, just paid)
        self.bloom_fp = 0

    def record(self, probes: int, skipped: int, fp: int) -> None:
        if not (probes or skipped or fp):
            return
        with self._lock:
            self.filter_probes += probes
            self.generations_skipped += skipped
            self.bloom_fp += fp

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "filter_probes": self.filter_probes,
                "generations_skipped": self.generations_skipped,
                "bloom_fp": self.bloom_fp,
            }


class LazySource:
    """A lineage source that maps its segment only on its first read.

    ``entry`` is the source's :class:`~repro.core.catalog.CatalogEntry`;
    ``opener()`` maps the segment (outside every lock) and returns
    ``(store, filters)`` — the concrete store and its resident filter copy
    (None when the segment has none).  Given ``filters`` resident from an
    earlier open, :meth:`filter_decision` answers without mapping, so the
    overlay's skip loop leaves a ruled-out source unopened; without them,
    the probe opens the source to learn its filters.  Two threads racing
    on the first read share one mapping: the loser closes its copy.
    ``lowered_ready`` and ``persists_filters`` answer from the entry;
    every other read maps the source and delegates to it.  Not a layout
    store itself, so a delegated read is one store call, not two.

    The owning catalog record decides when it closes, never under a pin;
    :meth:`close` drops the opener, so a later read raises instead of
    mapping the segment again.
    """

    #: the ``filters`` of a source never opened in this catalog
    UNKNOWN = object()

    def __init__(self, entry, opener, filters=UNKNOWN):
        self.node = entry.node
        self.strategy = entry.strategy
        self.out_shape = entry.out_shape
        self.in_shapes = entry.in_shapes
        self._entry = entry
        #: maps the segment; None once the source is closed
        self._opener = opener
        self._filters = filters
        self._store: OpLineageStore | None = None
        #: makes the install of a racing first read happen once
        self._lock = lockcheck.make_lock("overlay.lazy")

    def resident_bytes(self) -> int:
        """The source's segment bytes once mapped, 0 before and after."""
        return self._entry.nbytes if self._store is not None else 0

    def resolve(self) -> OpLineageStore:
        """The concrete store, mapping the segment on the first call."""
        store = self._store
        if store is not None:
            return store
        opener = self._opener
        if opener is not None:
            fresh, filters = opener()
            with self._lock:
                if self._opener is not None and self._store is None:
                    # filters first: a reader that sees the store set must
                    # also see them
                    if self._filters is self.UNKNOWN:
                        self._filters = filters
                    self._store, fresh = fresh, None
                store = self._store
            if fresh is not None:
                fresh.close()  # lost the race (or closed meanwhile)
        if store is None:
            raise StorageError(
                f"lineage store ({self.node!r}, {self.strategy.label}) "
                f"generation {self._entry.gen} is closed"
            )
        return store

    def close(self) -> None:
        with self._lock:
            # a closed source reads (and raises) rather than skip
            store, self._store, self._filters = self._store, None, None
            self._opener = None
        if store is not None:
            store.close()

    def filter_decision(self, tag, qpacked):
        """:meth:`OpLineageStore.filter_decision`, from the resident copy."""
        filters = self._filters
        if filters is self.UNKNOWN:
            self.resolve()
            filters = self._filters
        f = None if filters is None else filters.get(tag)
        return None if f is None else f.may_contain(qpacked)

    def lowered_ready(self) -> bool:
        return self._entry.lowered

    def persists_filters(self) -> bool:
        return self._entry.filters

    def backward_full(self, qpacked, only_input=None):
        return self.resolve().backward_full(qpacked, only_input=only_input)

    def forward_full(self, qpacked, input_idx):
        return self.resolve().forward_full(qpacked, input_idx)

    def backward_payload_rows(self, qpacked):
        return self.resolve().backward_payload_rows(qpacked)

    def scan_forward_full(self, qpacked, input_idx, ticker=None):
        return self.resolve().scan_forward_full(qpacked, input_idx, ticker=ticker)

    def scan_backward_full(self, qpacked, ticker=None):
        return self.resolve().scan_backward_full(qpacked, ticker=ticker)

    def payload_entries(self):
        return self.resolve().payload_entries()

    def overridden_keys(self):
        return self.resolve().overridden_keys()

    @property
    def n_entries(self) -> int:
        return self.resolve().n_entries


class OverlayStore(OpLineageStore):
    """Union view over one key's lineage sources (see module docstring)."""

    def __init__(
        self,
        stores: list[LineageSource],
        filter_stats: FilterStats | None = None,
    ):
        if not stores:
            raise ValueError("an overlay needs at least one source")
        first = stores[0]
        super().__init__(first.node, first.strategy, first.out_shape, first.in_shapes)
        for other in stores[1:]:
            self._check_absorb(other)
        #: the sources, oldest/lowest-precedence first (reads iterate
        #: newest first)
        self._sources: list[LineageSource] = list(stores)
        #: cached concatenation of the sources' payload columns
        self._merged_payload: tuple | None = None
        self._plock = lockcheck.make_lock("overlay.payload")
        #: source-skip counters (shared with the owning catalog)
        self._fstats = filter_stats if filter_stats is not None else FilterStats()

    # -- introspection -------------------------------------------------------

    @property
    def sources(self) -> int:
        """How many lineage sources this union consults."""
        return len(self._sources)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._plock:
            self._merged_payload = None
        for store in self._sources:
            store.close()

    def lowered_ready(self) -> bool:
        return all(store.lowered_ready() for store in self._sources)

    def persists_filters(self) -> bool:
        # a flush of the overlay writes the merged concrete store, whose
        # layout is the generations' layout
        return self._sources[0].persists_filters()

    # -- writes are a layout concern ------------------------------------------

    def ingest(self, sink) -> None:
        raise NotImplementedError("OverlayStore is read-only; ingest into a run store")

    # -- persistence: a full flush collapses the overlay -----------------------

    def merged_store(self) -> OpLineageStore:
        """Materialise the union as one concrete store (the compaction
        product): a fresh layout-store absorbing every generation, oldest
        first, finalized and independent of the generations' mappings."""
        merged = make_store(self.node, self.strategy, self.out_shape, self.in_shapes)
        for store in self._sources:
            merged.absorb(store.resolve() if isinstance(store, LazySource) else store)
        merged.finalize_if_possible()
        return merged

    def flush_segment(self, path: str) -> int:
        return self.merged_store().flush_segment(path)

    # -- matched-orientation reads --------------------------------------------
    #
    # Every matched read consults each generation's persisted bloom/zone
    # filter (``filter_decision``) before touching it: a False is a proof
    # of absence, so the generation's probe is skipped outright — this is
    # what turns an O(generations) matched read back into ~O(1) on stores
    # whose deltas partition the key space.  A None (no filter: resident
    # store or pre-filter segment) always reads.  Counters accumulate once
    # per call on the shared :class:`FilterStats`.

    def _unskipped_reads(self, tag, qpacked, read, hit=lambda r: r[0].any()) -> list:
        """``read(source)`` for every source, newest first, whose filter
        for surface ``tag`` does not rule ``qpacked`` out; a read that
        ``hit(result)`` finds empty counts as a filter false positive."""
        results = []
        probes = skipped = fp = 0
        for store in reversed(self._sources):
            decision = store.filter_decision(tag, qpacked)
            if decision is not None:
                probes += 1
                if not decision:
                    skipped += 1
                    continue
            result = read(store)
            if decision and not hit(result):
                fp += 1
            results.append(result)
        self._fstats.record(probes, skipped, fp)
        return results

    def _merge_backward(self, results, n_cells: int):
        """OR the per-cell verdicts and concatenate the per-input cell sets
        of several sources' ``(matched, per_input)`` backward answers."""
        matched = np.zeros(n_cells, dtype=bool)
        per_input: list[list[np.ndarray]] = [[] for _ in range(self.arity)]
        for m, per in results:
            matched |= m
            for i, cells in enumerate(per):
                per_input[i].append(cells)
        return matched, [_concat(parts) for parts in per_input]

    def backward_full(self, qpacked, only_input=None):
        qpacked = np.asarray(qpacked)
        reads = self._unskipped_reads(
            "b", qpacked, lambda store: store.backward_full(qpacked, only_input=only_input)
        )
        return self._merge_backward(reads, qpacked.size)

    def forward_full(self, qpacked, input_idx):
        qpacked = np.asarray(qpacked)
        reads = self._unskipped_reads(
            f"f{input_idx}", qpacked, lambda s: s.forward_full(qpacked, input_idx), np.size
        )
        return _concat(reads)

    def backward_payload_rows(self, qpacked):
        qpacked = np.asarray(qpacked)
        matched = np.zeros(qpacked.size, dtype=bool)
        hit_parts: list[np.ndarray] = []
        payloads: list = []
        reads = self._unskipped_reads(
            "b", qpacked, lambda store: store.backward_payload_rows(qpacked)
        )
        for m, hits, values in reads:
            matched |= m
            if hits.size:
                hit_parts.append(hits)
                payloads.extend(values)
        return matched, _concat(hit_parts), payloads

    # -- mismatched-orientation reads ------------------------------------------

    def scan_forward_full(self, qpacked, input_idx, ticker=None):
        return np.unique(
            _concat(
                [
                    store.scan_forward_full(qpacked, input_idx, ticker=ticker)
                    for store in reversed(self._sources)
                ]
            )
        )

    def scan_backward_full(self, qpacked, ticker=None):
        reads = [
            store.scan_backward_full(qpacked, ticker=ticker)
            for store in reversed(self._sources)
        ]
        return self._merge_backward(reads, np.asarray(qpacked).size)

    def payload_entries(self):
        """Concatenated columnar payload surface across the generations.

        Built once and cached (generations are immutable once opened); this
        concat IS the payload-path read amplification compaction removes —
        a compacted store hands back its own columns with no copy.
        """
        # map lazy sources before taking the lock: an open takes the
        # catalog lock, which a close holds while it takes this one
        for store in self._sources:
            if isinstance(store, LazySource):
                store.resolve()
        with self._plock:
            if self._merged_payload is None:
                key_parts: list[np.ndarray] = []
                klen_parts: list[np.ndarray] = []
                vbuf_parts: list[bytes] = []
                vlen_parts: list[np.ndarray] = []
                for store in self._sources:
                    keys, koff, vbuf, voff = store.payload_entries()
                    if koff.size <= 1:
                        continue
                    key_parts.append(np.asarray(keys, dtype=np.int64))
                    klen_parts.append(np.diff(np.asarray(koff, dtype=np.int64)))
                    vbuf_parts.append(bytes(vbuf))
                    vlen_parts.append(np.diff(np.asarray(voff, dtype=np.int64)))
                if not key_parts:
                    empty = np.empty(0, dtype=np.int64)
                    zero = np.zeros(1, dtype=np.int64)
                    self._merged_payload = (empty, zero, b"", zero)
                else:
                    klens = np.concatenate(klen_parts)
                    vlens = np.concatenate(vlen_parts)
                    koff = np.zeros(klens.size + 1, dtype=np.int64)
                    np.cumsum(klens, out=koff[1:])
                    voff = np.zeros(vlens.size + 1, dtype=np.int64)
                    np.cumsum(vlens, out=voff[1:])
                    self._merged_payload = (
                        np.concatenate(key_parts),
                        koff,
                        b"".join(vbuf_parts),
                        voff,
                    )
            return self._merged_payload

    def overridden_keys(self) -> np.ndarray:
        return np.unique(
            _concat([store.overridden_keys() for store in self._sources])
        )

    # -- accounting ------------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return sum(store.n_entries for store in self._sources)
