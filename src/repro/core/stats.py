"""Runtime statistics collector (the architecture's Statistics Collector).

The optimizer's cost model is driven by measurements the runtime gathers as
operators execute and as queries run (§III: the runtime "sends lineage and
other statistics to the Optimizer"; the query executor "sends statistics
(e.g., query fanout and fanin) to the optimizer to refine future
optimizations").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrays import coords as C
from repro.core.model import BufferSink
from repro.storage import codecs

__all__ = ["OperatorStats", "StatsCollector"]

#: how many region pairs :meth:`StatsCollector.record_sink` samples when
#: predicting codec-compressed footprints (the rest is extrapolated)
ENC_SAMPLE_PAIRS = 256

#: serialized bytes of a one-cell codec value (the stable singleton layout),
#: derived from the codec layer so it can never drift from the wire format
_SINGLETON_BYTES = codecs.cells_nbytes(np.zeros(1, dtype=np.int64))


def _segmented_nbytes(values: np.ndarray, offsets: np.ndarray) -> int:
    """Codec-priced bytes of the cell sets ``values[offsets[i]:offsets[i+1]]``
    in one vectorised pass (byte-identical to pricing each sorted set through
    ``cells_nbytes``, per the ``encode_sorted_sets`` equivalence)."""
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    order = np.lexsort((values, owner))
    _, lengths = codecs.encode_sorted_sets(values[order], offsets)
    return int(lengths.sum())


@dataclass
class OperatorStats:
    """Everything the cost model knows about one workflow node."""

    node: str
    compute_seconds: float = 0.0
    n_pairs: int = 0
    n_outcells: int = 0
    n_incells: int = 0
    payload_bytes: int = 0
    n_payload_pairs: int = 0
    n_payload_outcells: int = 0
    output_size: int = 0
    input_sizes: tuple[int, ...] = ()
    # codec-predicted serialized footprints (sampled via cells_nbytes,
    # extrapolated to the whole sink); zero until a run provided shapes
    enc_in_bytes: int = 0
    enc_out_bytes: int = 0
    # measured per strategy label
    write_seconds: dict[str, float] = field(default_factory=dict)
    disk_bytes: dict[str, int] = field(default_factory=dict)
    # observed at query time
    reexec_seconds: float | None = None
    observed_query_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def fanin_avg(self) -> float:
        """Mean input cells per region pair (payload pairs excluded)."""
        full = self.n_pairs - self.n_payload_pairs
        return self.n_incells / full if full else 0.0

    @property
    def payload_bytes_avg(self) -> float:
        return self.payload_bytes / self.n_payload_pairs if self.n_payload_pairs else 0.0

    @property
    def enc_in_bytes_per_cell(self) -> float | None:
        """Codec-aware encoded bytes per input cell (None when unmeasured)."""
        if self.enc_in_bytes <= 0 or self.n_incells <= 0:
            return None
        return self.enc_in_bytes / self.n_incells

    @property
    def enc_out_bytes_per_cell(self) -> float | None:
        """Codec-aware encoded bytes per output cell (None when unmeasured)."""
        full_out = self.n_outcells - self.n_payload_outcells
        if self.enc_out_bytes <= 0 or full_out <= 0:
            return None
        return self.enc_out_bytes / full_out


class StatsCollector:
    """Accumulates :class:`OperatorStats` across runs and queries."""

    def __init__(self):
        self._stats: dict[str, OperatorStats] = {}
        #: last serving-cache snapshot the query layer reported: hit/miss/
        #: evict counts, open-mapping count, resident bytes.  Surfaced so
        #: benchmarks and ``explain()`` can watch serving regressions.
        self.serving: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "open_mappings": 0,
            "resident_bytes": 0,
            # lock-order validator counters (non-zero only under
            # REPRO_LOCKCHECK=1; see repro.analysis.lockcheck)
            "lockcheck_locks": 0,
            "lockcheck_max_held": 0,
            "lockcheck_cycles": 0,
            "lockcheck_held_io": 0,
        }
        #: deferred-capture counters: foreground seconds spent recording
        #: descriptors, pairs/bytes captured in deferred form, and seconds
        #: the background encode worker spent lowering them
        self.capture: dict[str, float] = {
            "capture_seconds": 0.0,
            "deferred_pairs": 0,
            "deferred_bytes": 0,
            "encode_thread_seconds": 0.0,
        }
        #: background-maintenance counters: budgeted compaction slices the
        #: maintenance worker ran, bytes it merged, and wall seconds it
        #: spent doing so (all while the admission gate was idle)
        self.maintenance: dict[str, float] = {
            "compactions_run": 0,
            "bytes_merged": 0,
            "maintenance_seconds": 0.0,
        }

    def get(self, node: str) -> OperatorStats:
        if node not in self._stats:
            self._stats[node] = OperatorStats(node=node)
        return self._stats[node]

    # -- runtime-side hooks ---------------------------------------------------

    def record_run(
        self,
        node: str,
        compute_seconds: float,
        output_size: int,
        input_sizes: tuple[int, ...],
    ) -> None:
        stats = self.get(node)
        stats.compute_seconds = compute_seconds
        stats.output_size = output_size
        stats.input_sizes = input_sizes

    def record_sink(
        self,
        node: str,
        sink: BufferSink,
        out_shape: tuple[int, ...] | None = None,
        in_shapes: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        """Derive pair/fan statistics from what an operator emitted.

        When the caller provides the array shapes, a sample of the region
        pairs is additionally priced through the codec layer
        (:func:`repro.storage.codecs.cells_nbytes`), so the cost
        model sees *compressed* footprints — contiguous convolution or
        reshape lineage interval-codes, and dense-but-ragged masks
        bitmap-code, to a fraction of the old per-cell constant — instead
        of a flat bytes-per-cell guess.
        """
        stats = self.get(node)
        n_pairs = n_out = n_in = pay_bytes = n_pay = n_pay_out = 0
        for batch in sink.elementwise:
            n_pairs += batch.count
            n_out += batch.count
            n_in += batch.count * len(batch.incells)
        for pbatch in sink.payload_batches:
            n_pairs += pbatch.count
            n_pay += pbatch.count
            n_out += pbatch.count
            n_pay_out += pbatch.count
            if hasattr(pbatch.payloads, "nbytes"):
                pay_bytes += int(pbatch.payloads.nbytes)
            else:
                pay_bytes += sum(len(p) for p in pbatch.payloads)
        for rb in sink.region_batches:
            n_pairs += rb.count
            n_out += int(rb.out_coords.shape[0])
            if rb.is_payload:
                n_pay += rb.count
                n_pay_out += int(rb.out_coords.shape[0])
                pay_bytes += len(rb.payloads)
            else:
                n_in += sum(int(arr.shape[0]) for arr in rb.in_coords)
        stats.n_pairs = n_pairs
        stats.n_outcells = n_out
        stats.n_incells = n_in
        stats.payload_bytes = pay_bytes
        stats.n_payload_pairs = n_pay
        stats.n_payload_outcells = n_pay_out
        # the cell counts above were overwritten for this sink; stale codec
        # samples from an earlier (or not-yet-priced) call must not linger
        stats.enc_in_bytes = 0
        stats.enc_out_bytes = 0
        if out_shape is not None and in_shapes is not None:
            self.price_sink(node, sink, out_shape, in_shapes)

    def price_sink(
        self,
        node: str,
        sink: BufferSink,
        out_shape: tuple[int, ...],
        in_shapes: tuple[tuple[int, ...], ...],
    ) -> None:
        """Codec-price ``sink``'s full pairs into ``enc_in/out_bytes``.

        Split from :meth:`record_sink` so deferred capture can run the
        sampling on the background encode worker — pricing costs real codec
        passes, which must not land on the workflow thread."""
        n_elem = sum(batch.count for batch in sink.elementwise)
        stats = self.get(node)
        enc_in, enc_out = self._predict_encoded_bytes(
            n_elem, sink.region_batches, out_shape, in_shapes
        )
        stats.enc_in_bytes = enc_in
        stats.enc_out_bytes = enc_out

    @staticmethod
    def _predict_encoded_bytes(
        n_elem: int,
        region_batches: list,
        out_shape: tuple[int, ...],
        in_shapes: tuple[tuple[int, ...], ...],
    ) -> tuple[int, int]:
        """Codec-priced (input-side, output-side) bytes for the full pairs.

        Prices the leading :data:`ENC_SAMPLE_PAIRS` pairs exactly — one
        segmented pass through the codec layer, byte-for-byte what the
        stores will write — and extrapolates the rest linearly.
        Elementwise batches contribute the fixed singleton layout per cell.
        """
        full_batches = [rb for rb in region_batches if not rb.is_payload]
        in_bytes = out_bytes = sampled = 0
        for rb in full_batches:
            take = min(rb.count, ENC_SAMPLE_PAIRS - sampled)
            if take == 0:
                break
            out_off = rb.out_offsets[: take + 1]
            out_bytes += _segmented_nbytes(
                C.pack_coords(rb.out_coords[: out_off[-1]], out_shape), out_off
            )
            for i, cells in enumerate(rb.in_coords):
                in_off = rb.in_offsets[i][: take + 1]
                in_bytes += _segmented_nbytes(
                    C.pack_coords(cells[: in_off[-1]], in_shapes[i]), in_off
                )
            sampled += take
        if sampled:
            scale = sum(rb.count for rb in full_batches) / sampled
            in_bytes = int(in_bytes * scale)
            out_bytes = int(out_bytes * scale)
        arity = max(1, len(in_shapes))
        in_bytes += n_elem * arity * _SINGLETON_BYTES
        out_bytes += n_elem * _SINGLETON_BYTES
        return in_bytes, out_bytes

    def record_store(
        self, node: str, strategy_label: str, write_seconds: float, disk_bytes: int
    ) -> None:
        stats = self.get(node)
        stats.write_seconds[strategy_label] = (
            stats.write_seconds.get(strategy_label, 0.0) + write_seconds
        )
        stats.disk_bytes[strategy_label] = disk_bytes

    # -- query-side hooks ----------------------------------------------------------

    def record_reexec(self, node: str, seconds: float) -> None:
        stats = self.get(node)
        if stats.reexec_seconds is None:
            stats.reexec_seconds = seconds
        else:  # exponential moving average keeps estimates fresh
            stats.reexec_seconds = 0.5 * stats.reexec_seconds + 0.5 * seconds

    def record_query(self, node: str, strategy_label: str, seconds: float) -> None:
        stats = self.get(node)
        prev = stats.observed_query_seconds.get(strategy_label)
        if prev is None:
            stats.observed_query_seconds[strategy_label] = seconds
        else:
            stats.observed_query_seconds[strategy_label] = 0.5 * prev + 0.5 * seconds

    def record_serving(self, snapshot: dict[str, int]) -> None:
        """Record the catalog cache's counters (cumulative snapshot, not a
        delta) as reported after a query finishes."""
        self.serving = dict(snapshot)

    # -- capture-side hooks ------------------------------------------------------

    def record_capture(self, seconds: float, pairs: int, nbytes: int) -> None:
        """Account one node's foreground deferred-capture work: descriptor
        recording time plus the pairs/bytes parked for background encoding."""
        self.capture["capture_seconds"] += seconds
        self.capture["deferred_pairs"] += int(pairs)
        self.capture["deferred_bytes"] += int(nbytes)

    def record_encode_thread(self, seconds: float) -> None:
        """Account time the pipelined-flush worker spent lowering deferred
        descriptors into the per-strategy stores."""
        self.capture["encode_thread_seconds"] += seconds

    # -- maintenance-side hooks --------------------------------------------------

    def record_maintenance(
        self, compactions: int, bytes_merged: int, seconds: float
    ) -> None:
        """Account one background-maintenance slice: compactions completed,
        segment bytes rewritten by the merge, wall time spent."""
        self.maintenance["compactions_run"] += int(compactions)
        self.maintenance["bytes_merged"] += int(bytes_merged)
        self.maintenance["maintenance_seconds"] += seconds

    # -- persistence ------------------------------------------------------------
    #
    # Profiling a big workflow is expensive; persisting the collector lets a
    # later session optimize without re-profiling.

    def save(self, path: str) -> None:
        import dataclasses
        import json
        import os

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {
            node: dataclasses.asdict(stats) for node, stats in self._stats.items()
        }
        for entry in payload.values():
            entry["input_sizes"] = list(entry["input_sizes"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "StatsCollector":
        import json

        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        collector = cls()
        for node, entry in payload.items():
            entry["input_sizes"] = tuple(entry["input_sizes"])
            collector._stats[node] = OperatorStats(**entry)
        return collector
