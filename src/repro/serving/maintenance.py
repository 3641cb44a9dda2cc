"""Background budgeted compaction: the self-driving LSM maintenance loop.

PR 5's delta generations made incremental capture O(delta) but left the
read side paying O(generations) until somebody remembered to call
``compact()``.  Smoke's lesson is that lineage maintenance must ride the
*idle* path, never the foreground one — so :class:`MaintenanceWorker`
runs a single daemon thread that

* sleeps until the serving side reports idle (the daemon's
  :meth:`~repro.serving.daemon.AdmissionGate.is_idle`, or the facade's
  in-flight counter during :meth:`SubZero.serve
  <repro.core.subzero.SubZero.serve>`),
* asks the engine's ``compaction_advice()`` where a merge would pay the
  most (the cost model's overlay penalty, worst first), and
* runs one ``compact_lineage(budget_bytes=...)`` slice — bounded bytes
  read+rewritten, so each slice is short and the worker re-checks for
  foreground work between slices (the backoff contract: a query arriving
  mid-slice waits only for the bounded slice, never a full merge).

Every slice is accounted on the engine's :class:`StatsCollector
<repro.core.stats.StatsCollector>` (``compactions_run``,
``bytes_merged``, ``maintenance_seconds``) so ``serving_stats()``,
``/v1/stats`` and ``explain()`` can show maintenance riding along.

Shutdown contract: :meth:`MaintenanceWorker.stop` wakes the thread, lets
an in-flight slice finish (compaction is atomic per key — there is no
safe midpoint to abandon), joins, and re-raises the first failure the
worker captured — exactly once; the worker parks after a failure rather
than retrying a broken merge forever.
"""

from __future__ import annotations

import threading
import time

from repro.analysis import lockcheck

__all__ = ["MaintenanceWorker", "DEFAULT_BUDGET_BYTES"]

#: bytes read+rewritten per compaction slice — small enough that a
#: foreground query arriving mid-slice waits a bounded moment, large
#: enough that a 20-generation store drains in a handful of slices
DEFAULT_BUDGET_BYTES = 32 << 20


class MaintenanceWorker:
    """One background thread that keeps an engine's catalog compacted.

    ``engine`` is anything exposing ``compaction_advice()``,
    ``compact_lineage(node=, strategy=, budget_bytes=)`` and
    ``runtime.catalog``, the
    :class:`~repro.storage.partition.PartitionedCatalog` those act on,
    whose partitions the worker rotates across (the
    :class:`~repro.core.subzero.SubZero` facade).  ``is_idle`` is the
    foreground-pressure probe — the worker only starts a slice while it
    returns True, and a probe flipping False between slices is the
    backoff signal.  ``stats`` is the engine's collector (may be None).
    """

    def __init__(
        self,
        engine,
        is_idle=None,
        stats=None,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        interval_s: float = 0.05,
        idle_interval_s: float = 1.0,
    ):
        self.engine = engine
        self.is_idle = is_idle if is_idle is not None else lambda: True
        self.stats = stats
        self.budget_bytes = budget_bytes
        self.interval_s = interval_s
        self.idle_interval_s = idle_interval_s
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        self._error_lock = lockcheck.make_lock("serving.maintenance.error")
        #: round-robin cursor over the catalog's partition ids
        #: (only the worker thread touches it)
        self._rr = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MaintenanceWorker":
        """Start the maintenance thread (idempotent); returns self."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="subzero-maintenance", daemon=True
        )
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self, timeout: float | None = 30.0) -> None:
        """Stop and join the worker; an in-flight compaction slice runs to
        completion first (per-key compaction has no safe midpoint).

        Re-raises the first failure the worker captured — once: a second
        ``stop()`` (or a stop after the raise) returns quietly, so the
        shutdown paths that call this from both ``close()`` and ``__exit__``
        do not double-report."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None
        with self._error_lock:
            error, self._error = self._error, None
        if error is not None:
            raise error

    # -- candidate selection ---------------------------------------------------

    def _pick(self, advice):
        """The next compaction candidate from non-empty ``advice``.

        A one-partition catalog takes the top-ranked entry.  Several
        partitions rotate *round-robin*: each pass serves the worst
        candidate of the next partition (in id order) that has any advice,
        so one hot partition's backlog cannot starve the others'
        maintenance — every partition's read amplification drains within
        one rotation."""
        catalog = self.engine.runtime.catalog
        ids = catalog.partition_ids()
        if len(ids) <= 1:
            return advice[0]
        by_pid = {}
        for item in advice:
            # advice is sorted worst-first, so the first entry seen per
            # partition is that partition's costliest candidate
            by_pid.setdefault(catalog.partition_for_node(item[0]), item)
        n = len(ids)
        for offset in range(n):
            item = by_pid.get(ids[(self._rr + offset) % n])
            if item is not None:
                self._rr = (self._rr + offset + 1) % n
                return item
        return advice[0]  # every candidate is on an unmapped node

    # -- the loop ------------------------------------------------------------

    def _run(self) -> None:
        backoff = self.interval_s
        while not self._stop.is_set():
            # sleep first: a freshly started worker yields to whatever the
            # caller is about to do, and every failed/empty pass backs off
            self._wake.wait(backoff)
            self._wake.clear()
            if self._stop.is_set():
                return
            if not self.is_idle():
                backoff = self.interval_s  # foreground pressure: yield
                continue
            try:
                advice = self.engine.compaction_advice()
                if not advice:
                    backoff = self.idle_interval_s  # steady state: nap
                    continue
                node, strategy, _gens, _penalty = self._pick(advice)
                # re-check between advice and the slice: a query may have
                # arrived while we ranked candidates
                if not self.is_idle():
                    backoff = self.interval_s
                    continue
                t0 = time.perf_counter()
                report = self.engine.compact_lineage(
                    node=node, strategy=strategy, budget_bytes=self.budget_bytes
                )
                seconds = time.perf_counter() - t0
                if self.stats is not None:
                    self.stats.record_maintenance(
                        len(report.compacted), report.bytes_written, seconds
                    )
                backoff = 0.0  # more advice may remain: drain while idle
            except BaseException as exc:  # noqa: BLE001 -- parked for stop() to re-raise
                with self._error_lock:
                    if self._error is None:
                        self._error = exc
                return
