"""The SubZero facade: one object tying the whole system together.

Typical use::

    sz = SubZero(spec)
    sz.set_strategy("crd", COMP_ONE_B)        # or sz.optimize(...)
    instance = sz.run({"image": img})
    result = sz.backward_query(star_cells, ["detect", "merge", "crd"])

Re-running after changing strategies rebuilds the lineage stores (region
lineage is a cache; the versioned arrays are the ground truth).

Concurrent serving::

    with SubZero(spec, memory_budget_bytes=256 << 20) as sz:
        sz.resume(versions, wal=wal, lineage_dir="lineage/")
        results = sz.serve(queries, max_workers=8)

``serve`` fans a query batch across a thread pool; every worker thread
borrows stores through its own :class:`~repro.core.query.QuerySession`, so
the catalog's 2Q cache shares one mmap per store among the readers and
never closes a mapping under a pinned session.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Sequence

from repro.analysis import lockcheck
from repro.arrays.array import SciArray
from repro.arrays.versions import VersionStore
from repro.core.costmodel import CostConstants, CostModel
from repro.core.modes import MAP, LineageMode, StorageStrategy
from repro.core.optimizer import (
    OptimizationResult,
    StrategyOptimizer,
    WorkloadProfile,
)
from repro.core.query import QueryExecutor, QueryRequest, QueryResult, QuerySession
from repro.core.runtime import LineageRuntime
from repro.core.stats import StatsCollector
from repro.errors import QueryError, WorkflowError
from repro.storage.wal import WriteAheadLog
from repro.workflow.executor import execute_workflow
from repro.workflow.instance import WorkflowInstance
from repro.workflow.spec import WorkflowSpec

__all__ = ["SubZero"]


class _InflightGauge:
    """Counts queries executing through :meth:`SubZero.serve` — the
    foreground-pressure signal the background-maintenance worker polls
    (idle == zero in flight)."""

    def __init__(self):
        self._lock = lockcheck.make_lock("subzero.serving.inflight")
        self._count = 0

    def enter(self) -> None:
        with self._lock:
            self._count += 1

    def exit(self) -> None:
        with self._lock:
            self._count -= 1

    def idle(self) -> bool:
        with self._lock:
            return self._count == 0


class SubZero:
    """Lineage-tracking workflow engine (the system of the paper)."""

    def __init__(
        self,
        spec: WorkflowSpec,
        constants: CostConstants | None = None,
        enable_entire_array: bool = True,
        enable_query_opt: bool = True,
        memory_budget_bytes: int | None = None,
        capture: str = "deferred",
    ):
        self.spec = spec
        self.stats = StatsCollector()
        self.cost_model = CostModel(self.stats, constants)
        self.enable_entire_array = enable_entire_array
        self.enable_query_opt = enable_query_opt
        #: cap on resident lineage-segment bytes when serving off a flushed
        #: catalog (2Q eviction of open stores); None keeps it unbounded
        self.memory_budget_bytes = memory_budget_bytes
        if capture not in ("deferred", "eager"):
            raise ValueError(
                f"capture must be 'deferred' or 'eager', got {capture!r}"
            )
        #: "deferred" (default) parks lwrite descriptors and lowers them on
        #: a background encode worker; "eager" runs the same lowering job
        #: inline on the workflow thread
        self.capture = capture
        self._strategy_map: dict[str, tuple[StorageStrategy, ...]] = {}
        self.runtime: LineageRuntime | None = None
        self.instance: WorkflowInstance | None = None
        self.executor: QueryExecutor | None = None
        self.wal = WriteAheadLog()
        #: (runtime, future) of flush_lineage(wait=False) calls still in
        #: flight — joined (and their runtimes closed) by :meth:`close`
        self._background: list = []
        #: the background budgeted-compaction worker (started lazily by
        #: :meth:`serve` / :meth:`start_maintenance`, joined by :meth:`close`)
        self._maintenance = None
        #: foreground pressure signal for the maintenance worker: queries
        #: currently executing through :meth:`serve`
        self._serving = _InflightGauge()

    # -- strategy management ---------------------------------------------------

    def set_strategy(self, node: str, *strategies: StorageStrategy) -> None:
        """Assign lineage strategies to one node (takes effect on next run)."""
        if not self.spec.has_node(node):
            raise WorkflowError(f"unknown node {node!r}")
        self._strategy_map[node] = tuple(strategies)

    def apply_plan(self, plan: Mapping[str, list[StorageStrategy]]) -> None:
        for node, strategies in plan.items():
            self.set_strategy(node, *strategies)

    def use_mapping_where_possible(self) -> None:
        """Assign ``Map`` to every operator that declares mapping functions
        (the BlackBoxOpt baseline of Table II keeps everything else black-box)."""
        for name, node in self.spec.nodes.items():
            if LineageMode.MAP in node.operator.supported_modes():
                existing = self._strategy_map.get(name, ())
                if MAP not in existing:
                    self._strategy_map[name] = existing + (MAP,)

    def strategies(self) -> dict[str, tuple[StorageStrategy, ...]]:
        return dict(self._strategy_map)

    # -- execution -----------------------------------------------------------------

    def run(
        self, inputs: Mapping[str, SciArray], version_store: VersionStore | None = None
    ) -> WorkflowInstance:
        """Execute the workflow, materialising lineage per the current plan."""
        self.runtime = LineageRuntime(
            stats=self.stats, deferred=(self.capture == "deferred")
        )
        for node, strategies in self._strategy_map.items():
            self.runtime.set_strategies(node, strategies)
        self.instance = execute_workflow(
            self.spec,
            inputs,
            runtime=self.runtime,
            version_store=version_store,
            wal=self.wal,
        )
        self._attach_executor()
        return self.instance

    def profile(self, inputs: Mapping[str, SciArray]) -> WorkflowInstance:
        """Run once in profiling mode: operators emit every pair form they
        support, statistics are collected, nothing is stored (the initial
        black-box phase that seeds the optimizer)."""
        self.runtime = LineageRuntime(stats=self.stats, profile=True)
        self.instance = execute_workflow(
            self.spec, inputs, runtime=self.runtime, wal=self.wal
        )
        self._attach_executor()
        return self.instance

    def _attach_executor(self) -> None:
        """Point the query executor at the current instance and runtime."""
        self.executor = QueryExecutor(
            self.instance,
            self.runtime,
            cost_model=self.cost_model,
            enable_entire_array=self.enable_entire_array,
            enable_query_opt=self.enable_query_opt,
        )

    # -- persistence / resumption ---------------------------------------------------

    def flush_lineage(
        self,
        directory: str,
        append: bool = False,
        wait: bool = True,
        partitions=None,
    ):
        """Persist every materialised lineage store under ``directory`` as
        one segment file each plus a catalog manifest; returns bytes
        written.

        ``append=True`` makes the flush *incremental*: this run's stores
        are written as delta generations over the catalog already at
        ``directory`` (O(delta), committed segments untouched) instead of
        re-flushing the world.  Readers overlay the generations
        transparently; call :meth:`compact_lineage` — ideally off the
        serving path — to merge them back into single segments.

        ``wait=False`` pipelines the flush: it is queued on the runtime's
        background worker (behind any encodes still in flight) and a
        :class:`~concurrent.futures.Future` of the byte count comes back
        immediately, so flushing generation ``N`` overlaps the workflow
        computing ``N+1``.  :meth:`close` joins every pending background
        flush and re-raises the first :class:`~repro.errors.StorageError`,
        so failures cannot be silently dropped.

        ``partitions=N`` (or an explicit node→partition-id mapping) splits
        the flush into a partitioned catalog root — N independent catalog
        directories under one ``partitions.json`` manifest (see
        :mod:`repro.storage.partition` and ``docs/partitioning.md``);
        :meth:`load_lineage` opens either layout and queries scatter
        across only the partitions that can match."""
        if self.runtime is None:
            raise WorkflowError("execute the workflow before flushing lineage")
        if wait:
            return self.runtime.flush_all(
                directory, append=append, partitions=partitions
            )
        future = self.runtime.flush_all_async(
            directory, append=append, partitions=partitions
        )
        self._background.append((self.runtime, future))
        return future

    def compact_lineage(
        self,
        node: str | None = None,
        strategy: StorageStrategy | None = None,
        budget_bytes: int | None = None,
        parallel: int | None = None,
    ):
        """Merge the attached catalog's delta generations back into one
        segment per store, online (concurrent sessions keep serving; see
        :meth:`~repro.core.catalog.StoreCatalog.compact`).  Returns the
        :class:`~repro.core.catalog.CompactionReport`.

        On a partitioned root the sweep fans across the partitions on a
        small thread pool (their maintenance locks are independent);
        ``parallel`` caps the workers — a plain catalog directory is one
        partition, whose maintenance lock serialises compaction anyway."""
        if self.runtime is None or self.runtime.catalog is None:
            raise WorkflowError(
                "no lineage catalog attached; load_lineage/resume first"
            )
        return self.runtime.catalog.compact(
            node=node, strategy=strategy, budget_bytes=budget_bytes, parallel=parallel
        )

    def compaction_advice(
        self, n_query_cells: int = 64
    ) -> list[tuple[str, StorageStrategy, int, float]]:
        """Where compaction would pay: ``(node, strategy, generations,
        estimated seconds saved per query)`` for every multi-generation
        catalog store, costliest first.  The estimate is the cost model's
        overlay read-amplification penalty — the same term the query-time
        optimizer charges, so an empty list means queries already run at
        single-segment cost."""
        if self.runtime is None or self.runtime.catalog is None:
            return []
        catalog = self.runtime.catalog
        advice = []
        for node, strategy in catalog.keys():
            gens = catalog.generation_count(node, strategy)
            if gens <= 1:
                continue
            penalty = max(
                self.cost_model.overlay_penalty_seconds(
                    node, strategy, backward, n_query_cells, gens
                )
                for backward in (True, False)
            )
            advice.append((node, strategy, gens, penalty))
        advice.sort(key=lambda item: -item[3])
        return advice

    # -- background maintenance ----------------------------------------------------------

    def start_maintenance(
        self,
        budget_bytes: int | None = None,
        interval_s: float = 0.05,
    ):
        """Start (or return) the background budgeted-compaction worker.

        :meth:`serve` calls this automatically when a catalog is attached,
        so steady-state serving needs zero manual :meth:`compact_lineage`
        calls; call it directly to run maintenance under an embedded query
        loop.  The worker consumes :meth:`compaction_advice` one budgeted
        slice at a time, only while no :meth:`serve` query is in flight,
        and is joined by :meth:`close` (or :meth:`stop_maintenance`)."""
        from repro.serving.maintenance import DEFAULT_BUDGET_BYTES, MaintenanceWorker

        if self._maintenance is not None and self._maintenance.running:
            return self._maintenance
        self._maintenance = MaintenanceWorker(
            self,
            is_idle=self._serving.idle,
            stats=self.stats,
            budget_bytes=(
                budget_bytes if budget_bytes is not None else DEFAULT_BUDGET_BYTES
            ),
            interval_s=interval_s,
        )
        return self._maintenance.start()

    def stop_maintenance(self, timeout: float | None = 30.0) -> None:
        """Stop and join the maintenance worker (no-op when none is
        running); re-raises the first failure it captured, once."""
        worker, self._maintenance = self._maintenance, None
        if worker is not None:
            worker.stop(timeout)

    def load_lineage(
        self, directory: str, memory_budget_bytes: int | None = None
    ) -> int:
        """Attach a flushed lineage catalog for lazy serving.

        Only the manifest is read; individual stores open (mmap-backed, no
        decode) on the first query that needs them.  Returns the number of
        stores the catalog records.  ``memory_budget_bytes`` (defaulting to
        the facade-level budget) bounds the open-store cache."""
        if self.runtime is None:
            self.runtime = LineageRuntime(stats=self.stats)
        if memory_budget_bytes is None:
            memory_budget_bytes = self.memory_budget_bytes
        loaded = self.runtime.load_all(
            directory, memory_budget_bytes=memory_budget_bytes
        )
        if self.instance is not None:
            self._attach_executor()
        return loaded

    def resume(
        self,
        versions: VersionStore,
        wal: WriteAheadLog | None = None,
        lineage_dir: str | None = None,
    ) -> WorkflowInstance:
        """Rebuild a queryable engine in a fresh process without re-running.

        The instance comes back from the WAL + version store (black-box
        lineage, §V-a); ``lineage_dir`` additionally attaches a flushed
        region-lineage catalog, so backward/forward queries — including
        mismatched-orientation scans, served from the segments' persisted
        lowered tables — run straight off disk."""
        from repro.workflow.recovery import recover_instance

        self.instance = recover_instance(self.spec, versions, wal or self.wal)
        if self.runtime is None:
            self.runtime = LineageRuntime(stats=self.stats)
        if lineage_dir is not None:
            self.runtime.load_all(
                lineage_dir, memory_budget_bytes=self.memory_budget_bytes
            )
        self._attach_executor()
        return self.instance

    # -- queries ------------------------------------------------------------------------

    def _require_executor(self) -> QueryExecutor:
        if self.executor is None:
            raise QueryError("execute the workflow before running lineage queries")
        return self.executor

    def _dispatch_request(
        self, executor: QueryExecutor, request: QueryRequest, session
    ) -> QueryResult:
        """Route one request: through a
        :class:`~repro.storage.partition.ScatterGatherExecutor` (which
        records the partition fan-out plan on the catalog and marks the
        partitions it could not read) when a catalog is attached, straight
        through the executor otherwise."""
        catalog = self.runtime.catalog if self.runtime is not None else None
        if catalog is None:
            return executor.execute_request(request, session=session)
        from repro.storage.partition import ScatterGatherExecutor

        scatter = ScatterGatherExecutor(executor, catalog)
        return scatter.execute_request(request, session=session)

    def session(self) -> QuerySession:
        """A borrow scope for a batch of queries: catalog stores touched
        through it stay pinned (immune to cache eviction, one shared mmap)
        until the session closes.  Use as a context manager::

            with sz.session() as session:
                for q in queries:
                    sz.query(q, session=session)
        """
        if self.runtime is None:
            raise QueryError("execute or resume the workflow before opening a session")
        return self.runtime.session()

    def serve(
        self,
        queries: Sequence[QueryRequest],
        max_workers: int = 4,
    ) -> list[QueryResult]:
        """Execute a batch of :class:`~repro.core.query.QueryRequest`
        values on a thread pool.

        Every request takes the same route as :meth:`query` (so a
        partitioned catalog accounts its scatter plan per request).
        Results come back in input order.  Each worker thread runs queries
        through its own :class:`~repro.core.query.QuerySession`, so all
        threads share one mmap per store (the catalog's open record) and the
        memory budget's eviction never closes a store under a reader.
        ``max_workers <= 1`` runs sequentially — through one session, so a
        single-worker batch gets the same pinning (no eviction churn
        mid-batch) as the threaded path.
        """
        executor = self._require_executor()
        if not queries:
            return []
        if (
            self.runtime is not None
            and self.runtime.catalog is not None
            and (self._maintenance is None or not self._maintenance.running)
        ):
            # autonomous maintenance rides the serve loop: compaction
            # slices run only between queries (the in-flight counter is
            # the idle signal) and keep running between serve() batches
            # until close()
            self.start_maintenance()

        def run_one(request: QueryRequest, session: QuerySession) -> QueryResult:
            self._serving.enter()
            try:
                return self._dispatch_request(executor, request, session)
            finally:
                self._serving.exit()

        if max_workers <= 1:
            with QuerySession(self.runtime) as session:
                return [run_one(q, session) for q in queries]
        local = threading.local()
        sessions: list[QuerySession] = []
        sessions_lock = lockcheck.make_lock("subzero.serve.sessions")

        def run(query) -> QueryResult:
            session = getattr(local, "session", None)
            if session is None:
                session = QuerySession(self.runtime)
                local.session = session
                with sessions_lock:
                    sessions.append(session)
            return run_one(query, session)

        try:
            with ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="subzero-serve"
            ) as pool:
                return list(pool.map(run, queries))
        finally:
            for session in sessions:
                session.close()

    def query(
        self, request: QueryRequest, session: QuerySession | None = None
    ) -> QueryResult:
        """Execute one :class:`~repro.core.query.QueryRequest` — the
        query entry point; :meth:`backward_query`, :meth:`forward_query`,
        :meth:`trace_back` and :meth:`trace_forward` are one-line sugar
        over it.

        The same frozen, serializable request object drives the embedded
        API, :meth:`serve`, and the network daemon
        (:mod:`repro.serving`), so ``sz.query(r)`` and a daemon answering
        ``r.to_dict()`` over the wire are provably the same query.  Over a
        partitioned catalog the request is planned and accounted by the
        scatter-gather layer first (see :meth:`_dispatch_request`).  Cells
        that do not fit the start array and endpoints that do not resolve
        raise :class:`~repro.errors.QueryError`.  To change a flag on an
        existing request, use ``dataclasses.replace(request,
        entire_array=False)``."""
        return self._dispatch_request(self._require_executor(), request, session)

    def backward_query(self, cells, path, session=None) -> QueryResult:
        """Backward query along an explicit path (sugar for :meth:`query`)."""
        return self.query(QueryRequest.backward(cells, path), session=session)

    def forward_query(self, cells, path, session=None) -> QueryResult:
        """Forward query along an explicit path (sugar for :meth:`query`)."""
        return self.query(QueryRequest.forward(cells, path), session=session)

    def trace_back(self, cells, from_node: str, to: str, session=None) -> QueryResult:
        """Backward query with the path inferred (shortest dataflow route
        from ``from_node``'s output back to node or source ``to``)."""
        return self.query(
            QueryRequest.backward(cells, start=from_node, end=to), session=session
        )

    def trace_forward(self, cells, from_name: str, to_node: str, session=None) -> QueryResult:
        """Forward query with the path inferred (``from_name`` may be a
        source or a node; the trace ends at ``to_node``'s output)."""
        return self.query(
            QueryRequest.forward(cells, start=from_name, end=to_node), session=session
        )

    # -- optimization ----------------------------------------------------------------------

    def optimize(
        self,
        workload: list[QueryRequest] | WorkloadProfile,
        max_disk_bytes: float,
        max_runtime_seconds: float | None = None,
        beta: float = 1.0,
        pinned: Mapping[str, list[StorageStrategy]] | None = None,
        apply: bool = True,
    ) -> OptimizationResult:
        """Pick the optimal strategy mix for a sample workload (a list of
        :class:`~repro.core.query.QueryRequest` values, or a prepared
        :class:`WorkloadProfile`) and budget.

        Requires statistics — run :meth:`profile` (or :meth:`run`) first.
        """
        if isinstance(workload, WorkloadProfile):
            profile = workload
        else:
            profile = WorkloadProfile.from_queries(list(workload), self.spec)
        operators = {
            name: node.operator for name, node in self.spec.nodes.items()
        }
        for name in operators:
            self.cost_model.require_profiled(name)
        optimizer = StrategyOptimizer(self.cost_model)
        result = optimizer.optimize(
            operators,
            profile,
            max_disk_bytes=max_disk_bytes,
            max_runtime_seconds=max_runtime_seconds,
            beta=beta,
            pinned=dict(pinned) if pinned else None,
        )
        if apply:
            self.apply_plan(result.plan)
        return result

    # -- lifecycle ------------------------------------------------------------------------------

    def close(self) -> None:
        """Join pending background flushes, then release every open lineage
        mapping (catalog cache included).

        Safe to call twice; a closed engine can still re-run or re-load —
        closing only drops what is currently mapped.  The first exception a
        background flush or encode raised (typically a
        :class:`~repro.errors.StorageError`) re-raises here, after every
        runtime has released its mappings.  The background-maintenance
        worker is joined first — an active budgeted compaction slice runs
        to completion — and a failure it captured re-raises here exactly
        once, alongside the flush errors (first failure wins)."""
        background, self._background = self._background, []
        first: BaseException | None = None
        worker, self._maintenance = self._maintenance, None
        if worker is not None:
            try:
                worker.stop()
            except BaseException as exc:
                first = exc
        for runtime, future in background:
            try:
                future.result()
            except BaseException as exc:
                if first is None:
                    first = exc
        for runtime, _ in background:
            if runtime is self.runtime:
                continue
            try:
                runtime.close()
            except BaseException as exc:
                if first is None:
                    first = exc
        if self.runtime is not None:
            try:
                self.runtime.close()
            except BaseException as exc:
                if first is None:
                    first = exc
        if first is not None:
            raise first

    def __enter__(self) -> "SubZero":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting -----------------------------------------------------------------------------

    def lineage_disk_bytes(self) -> int:
        """Bytes held by every materialised lineage store."""
        return self.runtime.total_disk_bytes() if self.runtime else 0

    def workflow_seconds(self) -> float:
        """Wall time of the last run, including lineage generation/encoding."""
        if self.instance is None:
            return 0.0
        return (
            self.instance.total_compute_seconds()
            + self.instance.total_lineage_seconds()
        )

    def input_bytes(self) -> int:
        return self.instance.versions.input_bytes() if self.instance else 0

    def base_storage_bytes(self) -> int:
        return self.instance.versions.total_bytes() if self.instance else 0
