"""Cost model: disk, runtime-overhead, and query-cost estimates.

Feeds both optimizers (§VII): the lineage-strategy ILP consumes
``disk_bytes`` / ``write_seconds`` / ``query_seconds`` per (operator,
strategy), and the query-time optimizer compares ``query_seconds`` of the
materialised strategies against re-execution at every step.

Estimates prefer *measured* values recorded by the statistics collector
(actual store sizes, actual write times, observed query times, observed
re-execution times) and fall back to closed-form formulas over the
operator's pair statistics gathered during a profiling run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.modes import (
    EncodingKind,
    LineageMode,
    Orientation,
    StorageStrategy,
)
from repro.core.stats import OperatorStats, StatsCollector
from repro.errors import OptimizationError

__all__ = ["CostConstants", "CostModel"]


@dataclass(frozen=True)
class CostConstants:
    """Calibration constants (seconds / bytes per primitive operation).

    Absolute values matter less than ratios; they were calibrated once on
    the development machine with the microbenchmark generator.
    """

    hash_probe_s: float = 2.0e-6  # per query cell, direct hash lookup
    rtree_probe_s: float = 2.5e-5  # per query cell, spatial index descent
    scan_entry_s: float = 1.5e-6  # per stored entry, per-entry cursor (payload scans)
    batch_entry_s: float = 4.0e-7  # per stored entry, vectorised batch-scan pass
    decode_cell_s: float = 6.0e-8  # per lineage cell materialised
    map_cell_s: float = 4.0e-7  # per cell through a mapping function
    payload_apply_s: float = 3.0e-6  # per payload group expanded via map_p
    join_cell_s: float = 1.2e-7  # per captured pair joined after re-execution
    write_cell_s: float = 2.5e-7  # per cell encoded into a store
    index_entry_s: float = 1.2e-6  # per entry inserted into the R-tree
    key_bytes: int = 8
    ref_bytes: int = 8
    enc_cell_bytes: float = 9.0  # encoded cell fallback before codec sampling
    entry_overhead_bytes: int = 14
    rtree_entry_bytes: int = 40
    default_reexec_s: float = 0.05  # before any measurement exists
    # reopen-after-evict pricing: opening a store that the 2Q cache evicted
    # (or never opened) pays one segment open — mmap + manifest parse — plus
    # a page-in term proportional to the bytes the first probes touch.  This
    # is what makes the query-time optimizer memory-budget-aware: a strategy
    # whose segment was evicted competes against re-execution honestly.
    segment_open_s: float = 3.0e-4  # per segment (re)open under the cache
    reopen_byte_s: float = 2.0e-10  # per manifest byte paged back in
    # overlay read amplification: a store split across g generations answers
    # every read by consulting all g of them — one extra index probe pass /
    # batch-scan pass / payload-column stitch per extra generation.  This
    # per-generation surcharge is what lets the optimizer see un-compacted
    # appends and recommend compaction (overlay_penalty_seconds).
    gen_overlay_s: float = 2.5e-4  # per extra live generation consulted
    # bloom/zone filter probe: a generation whose segment persisted key
    # filters answers a matched probe with a decode-free membership check,
    # so filtered overlays pay this per cell per extra generation instead
    # of the full index-probe rate above.
    filter_probe_s: float = 2.0e-7  # per query cell, bloom + zone-map check
    # scatter fan-out: a partitioned catalog routes a mapped node's read to
    # one partition (no surcharge), but an unmapped node or broadcast plan
    # probes every partition's manifest/cache once — one extra partition
    # consulted costs one more child-catalog lookup.
    partition_probe_s: float = 5.0e-5  # per extra partition consulted

    @classmethod
    def calibrate(cls, n: int = 50_000, seed: int = 0) -> "CostConstants":
        """Measure this machine's per-primitive costs on synthetic stores.

        Calibrating tightens the query-time optimizer's decisions; the
        defaults are fine for correctness (only orderings matter).
        """
        import time

        import numpy as np

        from repro.storage.kvstore import HashStore
        from repro.storage.rtree import RTree

        rng = np.random.default_rng(seed)
        keys = rng.choice(4 * n, size=n, replace=False).astype(np.int64)

        store = HashStore("calib")
        store.put_many_fixed(keys, keys)
        store.finalize()
        probe_keys = keys[: max(1, n // 10)]
        start = time.perf_counter()
        store.lookup_refs(probe_keys)
        hash_probe = (time.perf_counter() - start) / probe_keys.size

        points = np.stack([keys % 1000, keys // 1000], axis=1)
        tree = RTree.from_points(points[: n // 5])
        start = time.perf_counter()
        for point in points[:200]:
            tree.query_point(point)
        rtree_probe = (time.perf_counter() - start) / 200

        start = time.perf_counter()
        count = 0
        for _ in store.scan():
            count += 1
            if count >= n // 5:
                break
        scan_entry = (time.perf_counter() - start) / max(1, count)

        # the batch-scan engine's per-entry cost: one vectorised membership
        # pass over the whole segment instead of a per-entry cursor
        from repro.arrays.coords import isin_sorted

        _, seg_values = store.items_fixed()
        sorted_probe = np.sort(probe_keys)
        start = time.perf_counter()
        isin_sorted(seg_values, sorted_probe)
        batch_entry = (time.perf_counter() - start) / max(1, seg_values.size)

        start = time.perf_counter()
        shape = (2000, 2000)
        coords = np.stack([keys % 2000, (keys // 2000) % 2000], axis=1)
        from repro.arrays import coords as C

        C.pack_coords(coords, shape)
        map_cell = (time.perf_counter() - start) / n

        base = cls()
        return cls(
            hash_probe_s=max(hash_probe, 1e-8),
            rtree_probe_s=max(rtree_probe, 1e-7),
            scan_entry_s=max(scan_entry, 1e-8),
            batch_entry_s=max(batch_entry, 1e-10),
            map_cell_s=max(map_cell, 1e-9),
            decode_cell_s=base.decode_cell_s,
            payload_apply_s=base.payload_apply_s,
            join_cell_s=base.join_cell_s,
            write_cell_s=base.write_cell_s,
            index_entry_s=base.index_entry_s,
        )


class CostModel:
    """Estimates keyed by (node, strategy); see module docstring."""

    def __init__(
        self, stats: StatsCollector, constants: CostConstants | None = None
    ):
        self.stats = stats
        self.k = constants or CostConstants()

    # -- helpers ------------------------------------------------------------

    def _entries(self, s: OperatorStats, strategy: StorageStrategy) -> float:
        """How many store entries the strategy materialises for this node."""
        if strategy.mode in (LineageMode.PAY, LineageMode.COMP):
            if strategy.encoding is EncodingKind.ONE:
                return float(s.n_payload_outcells)
            return float(s.n_payload_pairs)
        if strategy.encoding is EncodingKind.MANY:
            return float(s.n_pairs)
        if strategy.orientation is Orientation.BACKWARD:
            return float(s.n_outcells)
        return float(s.n_incells)

    # -- ILP inputs ------------------------------------------------------------

    def disk_bytes(self, node: str, strategy: StorageStrategy) -> float:
        """Bytes the strategy would occupy for ``node`` (measured if known).

        The value side of the Full layouts is priced with the codec-aware
        per-cell footprint the stats collector sampled through
        ``cells_nbytes`` — so an operator whose lineage interval-codes
        (convolution, reshape) or bitmap-codes (dense-but-ragged masks)
        budgets at its real compressed size — with the flat
        ``enc_cell_bytes`` constant as the pre-profiling fallback.
        """
        if not strategy.stores_pairs:
            return 0.0
        s = self.stats.get(node)
        measured = s.disk_bytes.get(strategy.label)
        if measured is not None:
            return float(measured)
        k = self.k
        full_out = s.n_outcells - s.n_payload_outcells
        if strategy.mode in (LineageMode.PAY, LineageMode.COMP):
            per_pair_payload = s.payload_bytes_avg
            if strategy.encoding is EncodingKind.ONE:
                return s.n_payload_outcells * (k.key_bytes + per_pair_payload)
            return s.n_payload_outcells * k.key_bytes + s.n_payload_pairs * (
                per_pair_payload + k.entry_overhead_bytes + k.rtree_entry_bytes
            )
        backward = strategy.orientation is Orientation.BACKWARD
        cells_key = full_out if backward else s.n_incells
        cells_val = s.n_incells if backward else full_out
        per_cell = s.enc_in_bytes_per_cell if backward else s.enc_out_bytes_per_cell
        if per_cell is None:
            per_cell = k.enc_cell_bytes
        if strategy.encoding is EncodingKind.ONE:
            return (
                cells_key * (k.key_bytes + k.ref_bytes)
                + cells_val * per_cell
            )
        return (
            cells_key * k.key_bytes
            + cells_val * per_cell
            + s.n_pairs * (k.entry_overhead_bytes + k.rtree_entry_bytes)
        )

    def write_seconds(self, node: str, strategy: StorageStrategy) -> float:
        """Runtime overhead the strategy adds to the workflow for ``node``."""
        if not strategy.stores_pairs:
            return 0.0
        s = self.stats.get(node)
        measured = s.write_seconds.get(strategy.label)
        if measured is not None:
            return float(measured)
        k = self.k
        cells = s.n_outcells + (
            s.n_incells
            if strategy.mode is LineageMode.FULL
            else s.n_payload_pairs
        )
        seconds = cells * k.write_cell_s
        if strategy.encoding is EncodingKind.MANY:
            seconds += self._entries(s, strategy) * k.index_entry_s
        return seconds

    # -- per-step query cost ----------------------------------------------------------

    def reexec_seconds(self, node: str) -> float:
        s = self.stats.get(node)
        if s.reexec_seconds is not None:
            base = s.reexec_seconds
        elif s.compute_seconds:
            base = s.compute_seconds
        else:
            base = self.k.default_reexec_s
        return base + s.n_pairs * self.k.join_cell_s

    def query_seconds(
        self,
        node: str,
        strategy: StorageStrategy,
        direction_backward: bool,
        n_query_cells: int,
        lowered_ready: bool = False,
        reopen_bytes: int = 0,
        generations: int = 1,
        filtered: bool = False,
        fanout: int = 1,
    ) -> float:
        """Estimated cost of one query step over ``n_query_cells``.

        ``lowered_ready`` marks a store whose lowered batch-scan tables are
        already warm — cached from an earlier scan, or rehydrated from a
        segment's persisted tables — so a mismatched access is priced at
        the pure batch rate without the one-off lowering surcharge.

        ``reopen_bytes`` is the segment footprint a materialised access
        would have to (re)map first — nonzero when the store is on disk
        only because the serving cache evicted it (or never opened it).
        The surcharge makes the optimizer see the memory budget: a cheap
        probe against an evicted giant store may lose to re-execution.

        ``generations`` is how many live catalog generations the access
        would overlay (``runtime.generation_count``); every extra
        generation adds a probe/scan pass
        (:meth:`overlay_penalty_seconds`), so the optimizer sees
        un-compacted appends — and a strategy whose overlay grew expensive
        loses honestly to alternatives until a compaction runs.

        ``filtered`` marks an overlay whose every generation persisted its
        bloom/zone key filters (``catalog.filters_ready``): matched reads
        then skip non-owning generations after a cheap membership check,
        so the per-generation repeat is priced at the filter-probe rate.

        ``fanout`` is how many catalog partitions the access must scatter
        across (``runtime.partition_fanout``) — 1 for a monolithic catalog
        or a node the partition map covers; each extra partition adds one
        child-catalog probe, so the optimizer sees broadcast reads as
        honestly more expensive than targeted ones (and than mapping
        functions or re-execution, which never touch the catalog).
        """
        s = self.stats.get(node)
        k = self.k
        n = max(1, int(n_query_cells))
        fanin = max(1.0, s.fanin_avg)
        if strategy.mode is LineageMode.BLACKBOX:
            return self.reexec_seconds(node)
        if strategy.mode is LineageMode.MAP:
            return n * k.map_cell_s
        reopen = (
            k.segment_open_s + reopen_bytes * k.reopen_byte_s if reopen_bytes else 0.0
        )
        reopen += max(0, fanout - 1) * k.partition_probe_s
        measured = s.observed_query_seconds.get(
            self._observation_key(strategy, direction_backward)
        )
        if measured is not None:
            # observations were taken against the live overlay, so the
            # amplification is already folded into the EMA
            return measured + reopen
        overlay = self.overlay_penalty_seconds(
            node, strategy, direction_backward, n, generations, filtered=filtered
        )
        entries = self._entries(s, strategy)
        probe = (
            k.hash_probe_s
            if strategy.encoding is EncodingKind.ONE
            else k.rtree_probe_s
        )
        if strategy.mode is LineageMode.FULL:
            matched = (strategy.orientation is Orientation.BACKWARD) == direction_backward
            if matched:
                return reopen + overlay + n * probe + n * fanin * k.decode_cell_s
            # mismatched orientation: the batch-scan engine answers every
            # entry in a few vectorised passes, so the per-entry constant is
            # far below the per-entry cursor cost.  The decode term prices
            # the one-off lowering of the value heap; it disappears when the
            # lowered tables are already warm (cached, or served straight
            # from a segment's persisted tables).
            if lowered_ready:
                return reopen + overlay + entries * k.batch_entry_s
            return reopen + overlay + entries * (k.batch_entry_s + k.decode_cell_s)
        # payload / composite strategies are always backward-optimized
        if direction_backward:
            cost = reopen + overlay + n * probe + n * k.payload_apply_s
            if strategy.mode is LineageMode.COMP:
                cost += n * k.map_cell_s
            return cost
        cost = reopen + overlay + entries * (k.scan_entry_s + k.payload_apply_s / 8.0)
        if strategy.mode is LineageMode.COMP:
            cost += n * k.map_cell_s
        return cost

    def overlay_penalty_seconds(
        self,
        node: str,
        strategy: StorageStrategy,
        direction_backward: bool,
        n_query_cells: int,
        generations: int,
        filtered: bool = False,
    ) -> float:
        """Read-amplification surcharge of serving ``generations`` live
        generations instead of one compacted segment.

        Matched accesses repeat their per-cell index probe once per extra
        generation; every access additionally pays one fixed per-generation
        pass (``gen_overlay_s``: an extra batch-scan/lowered-table pass, or
        the payload-column stitch).  This is also the *estimated saving per
        query* a compaction buys, which is how ``SubZero.compaction_advice``
        ranks candidates.

        ``filtered`` means every generation carries persisted key filters:
        the matched repeat degrades from an index probe per generation to a
        bloom/zone check per generation (``filter_probe_s``) — much
        cheaper, but still growing with the generation count, so advice
        keeps firing and compaction still pays for itself eventually."""
        if generations <= 1 or not strategy.stores_pairs:
            return 0.0
        k = self.k
        extra = generations - 1
        penalty = extra * k.gen_overlay_s
        n = max(1, int(n_query_cells))
        probe = (
            k.hash_probe_s
            if strategy.encoding is EncodingKind.ONE
            else k.rtree_probe_s
        )
        matched = (
            strategy.mode in (LineageMode.PAY, LineageMode.COMP)
            or (strategy.orientation is Orientation.BACKWARD)
        ) == direction_backward
        if matched:
            if filtered:
                # filters skip non-owning generations after a membership
                # check; only the (rare) owning generation pays its probe
                penalty += extra * n * k.filter_probe_s
            else:
                penalty += extra * n * probe
        return penalty

    @staticmethod
    def _observation_key(strategy: StorageStrategy, direction_backward: bool) -> str:
        arrow = "b" if direction_backward else "f"
        return f"{strategy.label}|{arrow}"

    def record_observation(
        self,
        node: str,
        strategy: StorageStrategy,
        direction_backward: bool,
        seconds: float,
    ) -> None:
        self.stats.record_query(
            node, self._observation_key(strategy, direction_backward), seconds
        )

    # -- sanity -----------------------------------------------------------------------

    def require_profiled(self, node: str) -> OperatorStats:
        s = self.stats.get(node)
        if s.output_size == 0:
            raise OptimizationError(
                f"no statistics recorded for node {node!r}; run the workflow "
                "(or a profiling pass) before optimizing"
            )
        return s
