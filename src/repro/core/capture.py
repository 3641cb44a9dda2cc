"""Deferred lineage capture: descriptor accounting + the pipelined encoder.

Interactive-speed capture borrows Smoke's split between *recording* and
*materialising* lineage.  Operators hand the runtime compact columnar
descriptors (:class:`~repro.core.model.RegionBatch` plus the two unit-row
forms — packed coordinate arrays and offset vectors; per-pair ``lwrite``
calls are staged into the same columns, never stored as objects); the
expensive lowering into codecs, hash tables and R-trees is one job,
``LineageRuntime._encode_sink``.  Deferred capture submits that job to a
single background encode worker, so encoding node ``N``'s lineage overlaps
computing node ``N+1`` (and, via :meth:`LineageRuntime.flush_all_async`,
flushing generation ``N`` overlaps the workflow that produces ``N+1``);
eager capture runs the very same job inline on the workflow thread and
never touches the worker.

The worker is *bounded*: at most :data:`CAPTURE_QUEUE_DEPTH` jobs may be in
flight before the submitting thread blocks — backpressure, not unbounded
buffering.  It is *single* by design: every store keeps its single-writer
ingest contract because all lowering happens on one FIFO thread.  And it is
*loud*: a failed background job parks its exception and re-raises at the
next :meth:`CapturePipeline.drain` / :meth:`CapturePipeline.close` join, so
a crash during background encoding can never be silently dropped (the
segment layer's atomic-rename writes guarantee no torn files either way).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

from repro.core.model import BufferSink

__all__ = [
    "CAPTURE_QUEUE_DEPTH",
    "CapturePipeline",
    "sink_nbytes",
]

#: in-flight background encode jobs before submitters block (backpressure)
CAPTURE_QUEUE_DEPTH = 4


def sink_nbytes(sink: BufferSink) -> int:
    """Resident bytes of a sink's deferred descriptors (coordinate arrays,
    offset vectors, payload buffers) — what deferral keeps alive until the
    background worker lowers it."""
    total = 0
    for rb in sink.region_batches:
        total += rb.out_coords.nbytes + rb.out_offsets.nbytes
        if rb.is_payload:
            total += len(rb.payloads) + rb.payload_offsets.nbytes
        else:
            total += sum(arr.nbytes for arr in rb.in_coords)
            total += sum(off.nbytes for off in rb.in_offsets)
    for batch in sink.elementwise:
        total += batch.outcells.nbytes
        total += sum(arr.nbytes for arr in batch.incells)
    for pbatch in sink.payload_batches:
        total += pbatch.outcells.nbytes
        if hasattr(pbatch.payloads, "nbytes"):
            total += int(pbatch.payloads.nbytes)
        else:
            total += sum(len(p) for p in pbatch.payloads)
    return total


class CapturePipeline:
    """Single-worker, bounded, FIFO background encoder.

    Jobs run in submission order on one thread (preserving the stores'
    single-writer contract); :meth:`drain` joins everything in flight and
    re-raises the first failure; :meth:`close` drains then shuts the worker
    down.  The pool spins up lazily on first submit, so eager-mode runtimes
    never pay for a thread.
    """

    def __init__(self, max_pending: int = CAPTURE_QUEUE_DEPTH):
        self._max_pending = max_pending
        self._pool: ThreadPoolExecutor | None = None
        self._sem: threading.BoundedSemaphore | None = None
        #: futures not yet joined; appended by submit (workflow thread) and
        #: swapped out atomically by drain — both run on the foreground
        #: thread, the worker never touches it
        self._pending: list[Future] = []

    def submit(self, fn: Callable[[], object]) -> Future:
        """Queue ``fn`` behind everything already in flight.

        Blocks when :data:`CAPTURE_QUEUE_DEPTH` jobs are already pending —
        the workflow thread slows to the encoder's pace instead of buffering
        unboundedly (the paper's capture pipeline must stay interactive, not
        merely move the stall to an out-of-memory kill).
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="subzero-capture"
            )
            self._sem = threading.BoundedSemaphore(self._max_pending)
        # szlint: ignore[SZ001] -- semaphore permit, not a segment ref: the job's finally releases it; the except below covers submit failure
        self._sem.acquire()

        def job():
            try:
                return fn()
            finally:
                self._sem.release()

        try:
            future = self._pool.submit(job)
        except BaseException:
            self._sem.release()
            raise
        self._pending.append(future)
        return future

    def drain(self) -> None:
        """Join every in-flight job; re-raise the first failure.

        Every future is joined even when an early one failed — later jobs
        must not keep running against state the caller believes settled —
        and only then does the first exception propagate."""
        pending, self._pending = self._pending, []
        first: BaseException | None = None
        for future in pending:
            try:
                future.result()
            except BaseException as exc:
                if first is None:
                    first = exc
        if first is not None:
            raise first

    def close(self) -> None:
        """Drain, then stop the worker.  Safe to call twice; the exception
        of a failed background job still propagates (after the worker is
        down, so no job outlives the pipeline)."""
        try:
            self.drain()
        finally:
            pool, self._pool = self._pool, None
            self._sem = None
            if pool is not None:
                pool.shutdown(wait=True)
