"""Black-box re-execution in tracing mode (§V-B).

When a lineage query reaches an operator that stored only black-box
lineage, the operator is re-run on its persisted input versions with
``cur_modes = {Full}`` (or the richest pair mode it supports); the resulting
``lwrite()`` calls are captured in a :class:`~repro.core.model.BufferSink`
(per-pair calls sealed into columnar region batches, as on the capture
path) and joined against the query cells in whole-array passes.

Mapping operators have nothing to capture: re-execution pays the compute
cost (the black-box penalty the paper measures) and the join then uses the
mapping functions.  Un-instrumented operators degrade to all-to-all.
"""

from __future__ import annotations

import time

import numpy as np

from repro.arrays import coords as C
from repro.core.model import BufferSink
from repro.core.modes import LineageMode
from repro.core.stats import StatsCollector
from repro.ops.base import LineageContext, Operator, payload_entry_hits, payload_union
from repro.workflow.instance import WorkflowInstance

__all__ = ["ReExecutor", "join_sink_backward", "join_sink_forward"]


class ReExecutor:
    """Re-runs operators of an executed workflow instance in tracing mode."""

    def __init__(self, instance: WorkflowInstance, stats: StatsCollector | None = None):
        self.instance = instance
        self.stats = stats

    # -- tracing -------------------------------------------------------------

    def _tracing_modes(self, op: Operator) -> frozenset[LineageMode] | None:
        supported = op.supported_modes()
        for mode in (LineageMode.FULL, LineageMode.COMP, LineageMode.PAY):
            if mode in supported:
                return frozenset({mode})
        return None

    def rerun(self, node: str) -> tuple[BufferSink | None, frozenset[LineageMode]]:
        """Re-execute ``node``; returns the captured sink (None when the
        operator has no lineage instrumentation) and the modes used."""
        op = self.instance.operator(node)
        inputs = self.instance.input_arrays(node)
        modes = self._tracing_modes(op)
        start = time.perf_counter()
        if modes is None:
            op.compute(inputs)  # pay the re-execution cost
            sink = None
        else:
            sink = BufferSink()
            ctx = LineageContext(cur_modes=modes, sink=sink, node=node)
            op.run(inputs, ctx)
        elapsed = time.perf_counter() - start
        if self.stats is not None:
            self.stats.record_reexec(node, elapsed)
        return sink, (modes or frozenset())

    # -- query entry points --------------------------------------------------------

    def trace_backward(self, node: str, qpacked: np.ndarray, input_idx: int) -> np.ndarray:
        """Backward lineage of ``qpacked`` (packed against the node's output
        array) in input ``input_idx``, via re-execution."""
        op = self.instance.operator(node)
        out_shape = op.output_shape
        in_shape = op.input_shapes[input_idx]
        sink, modes = self.rerun(node)
        if sink is None:
            if LineageMode.MAP in op.supported_modes():
                coords = C.unpack_coords(qpacked, out_shape)
                return C.pack_coords(op.map_b_many(coords, input_idx), in_shape)
            if qpacked.size == 0:
                return np.empty(0, dtype=np.int64)
            return np.arange(int(np.prod(in_shape)), dtype=np.int64)
        result, matched = join_sink_backward(
            sink, op, qpacked, input_idx, out_shape, in_shape
        )
        if LineageMode.COMP in modes:
            unmatched = qpacked[~matched]
            if unmatched.size:
                coords = C.unpack_coords(unmatched, out_shape)
                default = C.pack_coords(op.map_b_many(coords, input_idx), in_shape)
                result = np.concatenate([result, default])
        return np.unique(result) if result.size else result

    def trace_forward(self, node: str, qpacked: np.ndarray, input_idx: int) -> np.ndarray:
        """Forward lineage of ``qpacked`` (packed against input ``input_idx``)
        into the node's output array, via re-execution."""
        op = self.instance.operator(node)
        out_shape = op.output_shape
        in_shape = op.input_shapes[input_idx]
        sink, modes = self.rerun(node)
        if sink is None:
            if LineageMode.MAP in op.supported_modes():
                coords = C.unpack_coords(qpacked, in_shape)
                return C.pack_coords(op.map_f_many(coords, input_idx), out_shape)
            if qpacked.size == 0:
                return np.empty(0, dtype=np.int64)
            return np.arange(int(np.prod(out_shape)), dtype=np.int64)
        result, covered = join_sink_forward(
            sink, op, qpacked, input_idx, out_shape, in_shape
        )
        if LineageMode.COMP in modes:
            # Cells whose default (mapping) image is not overridden by a
            # payload pair keep their mapped forward lineage.
            coords = C.unpack_coords(qpacked, in_shape)
            default = C.pack_coords(op.map_f_many(coords, input_idx), out_shape)
            keep = default[~np.isin(default, covered)] if covered.size else default
            result = np.concatenate([result, keep])
        return np.unique(result) if result.size else result


def join_sink_backward(
    sink: BufferSink,
    op: Operator,
    qpacked: np.ndarray,
    input_idx: int,
    out_shape: tuple[int, ...],
    in_shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Join captured pairs with query output cells.

    Returns ``(in_packed, matched)`` where ``matched`` flags which query
    cells had explicit lineage (needed for composite defaults).
    """
    query = np.sort(qpacked)
    matched = np.zeros(qpacked.size, dtype=bool)
    parts: list[np.ndarray] = []

    def mark(hit_packed: np.ndarray) -> None:
        matched[np.isin(qpacked, hit_packed)] = True

    for batch in sink.elementwise:
        outp = C.pack_coords(batch.outcells, out_shape)
        mask = C.isin_sorted(outp, query)
        if mask.any():
            mark(outp[mask])
            inp = C.pack_coords(batch.incells[input_idx], in_shape)
            parts.append(inp[mask])
    for pbatch in sink.payload_batches:
        outp = C.pack_coords(pbatch.outcells, out_shape)
        mask = C.isin_sorted(outp, query)
        if not mask.any():
            continue
        mark(outp[mask])
        coords = C.as_coord_array(pbatch.outcells)[mask]
        payloads = (
            pbatch.payloads[mask]
            if isinstance(pbatch.payloads, np.ndarray)
            else [p for p, m in zip(pbatch.payloads, mask) if m]
        )
        parts.append(C.pack_coords(payload_union(op, coords, payloads, input_idx), in_shape))
    for rb in sink.region_batches:
        outp = C.pack_coords(rb.out_coords, out_shape)
        hit_mask = C.isin_sorted(outp, query)
        if not hit_mask.any():
            continue
        mark(outp[hit_mask])
        owner = np.repeat(
            np.arange(rb.count, dtype=np.int64), np.diff(rb.out_offsets)
        )
        if rb.is_payload:
            # every hit cell carries its pair's payload
            poff = rb.payload_offsets
            payloads = [rb.payloads[poff[p]: poff[p + 1]] for p in owner[hit_mask]]
            cells = payload_union(op, rb.out_coords[hit_mask], payloads, input_idx)
            parts.append(C.pack_coords(cells, in_shape))
            continue
        hit_pairs = np.zeros(rb.count, dtype=bool)
        hit_pairs[owner[hit_mask]] = True
        in_off = rb.in_offsets[input_idx]
        idx = C.expand_ranges(in_off[:-1][hit_pairs], np.diff(in_off)[hit_pairs])
        if idx.size:
            parts.append(
                C.pack_coords(rb.in_coords[input_idx][idx], in_shape)
            )
    result = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return result, matched


def join_sink_forward(
    sink: BufferSink,
    op: Operator,
    qpacked: np.ndarray,
    input_idx: int,
    out_shape: tuple[int, ...],
    in_shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Join captured pairs with query input cells.

    Returns ``(out_packed, covered)`` where ``covered`` lists every output
    cell that carried an explicit (payload) pair — composite defaults must
    exclude those.
    """
    query = np.sort(qpacked)
    parts: list[np.ndarray] = []
    covered_parts: list[np.ndarray] = []

    for batch in sink.elementwise:
        inp = C.pack_coords(batch.incells[input_idx], in_shape)
        mask = C.isin_sorted(inp, query)
        if mask.any():
            outp = C.pack_coords(batch.outcells, out_shape)
            parts.append(outp[mask])
    for pbatch in sink.payload_batches:
        outp = C.pack_coords(pbatch.outcells, out_shape)
        covered_parts.append(outp)
        coords = C.as_coord_array(pbatch.outcells)
        cells, rows = op.map_p_batch(coords, pbatch.payloads, input_idx, within=query)
        inp = C.pack_coords(cells, in_shape)
        hit_rows = np.unique(rows[C.isin_sorted(inp, query)])
        if hit_rows.size:
            parts.append(outp[hit_rows])
    for rb in sink.region_batches:
        if rb.is_payload:
            outp = C.pack_coords(rb.out_coords, out_shape)
            covered_parts.append(outp)
            hit = payload_entry_hits(
                op, rb.out_coords, rb.out_offsets, rb.payloads, rb.payload_offsets,
                input_idx, query,
            )
            if hit.size:
                parts.append(outp[hit])
            continue
        inp = C.pack_coords(rb.in_coords[input_idx], in_shape)
        mask = C.isin_sorted(inp, query)
        if not mask.any():
            continue
        owner = np.repeat(
            np.arange(rb.count, dtype=np.int64),
            np.diff(rb.in_offsets[input_idx]),
        )
        hit_pairs = np.zeros(rb.count, dtype=bool)
        hit_pairs[owner[mask]] = True
        idx = C.expand_ranges(
            rb.out_offsets[:-1][hit_pairs], np.diff(rb.out_offsets)[hit_pairs]
        )
        outp = C.pack_coords(rb.out_coords[idx], out_shape)
        parts.append(outp)
    result = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    covered = (
        np.unique(np.concatenate(covered_parts))
        if covered_parts
        else np.empty(0, dtype=np.int64)
    )
    return result, covered
