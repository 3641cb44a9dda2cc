"""Lineage query executor (§VI-C) with the query-time optimizer (§VII-A).

A query walks a path of operators, joining the current cell frontier with
each operator's lineage.  Intermediate results live in a boolean array with
one bit per cell (deduplication for free); the *entire-array optimization*
short-circuits steps whose operators are annotated safe; and the query-time
optimizer chooses, per step, between the materialised strategies and
re-execution — dynamically switching to re-execution if the materialised
access exceeds its budget, which bounds the worst case near 2x black-box.

Store access is batch-first: matched backward steps ask the store to decode
only the traversed input's field (``backward_full(..., only_input=idx)``),
and mismatched-orientation steps run the stores' vectorised batch-scan
paths (one :class:`~repro.storage.codecs.BatchProbe` pass over the value
heap) rather than per-entry cursor loops, so the wall-clock the budget
meters is dominated by a few NumPy passes.

Concurrency: query execution *borrows* stores through a
:class:`QuerySession` — catalog-backed stores are pinned on first touch and
unpinned when the session closes, so the catalog's 2Q eviction can never
close a mapping under a reader, and execution never mutates runtime state.
``QueryExecutor.execute_request`` is therefore safe to call from many
threads at once (each call gets its own implicit session unless one is
passed in); lowered-table warming is serialized per store, so two threads
cannot race a cache fill.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.arrays import coords as C
from repro.core.costmodel import CostModel
from repro.core.lineage_store import OpLineageStore
from repro.core.model import Direction, Frontier, QueryStep
from repro.core.modes import BLACKBOX, LineageMode, Orientation, StorageStrategy
from repro.core.reexec import ReExecutor
from repro.core.runtime import LineageRuntime
from repro.errors import CoordinateError, QueryError, WorkflowError
from repro.ops.base import Operator, payload_entry_hits, payload_union
from repro.workflow.instance import WorkflowInstance

__all__ = [
    "QueryExecutor",
    "QueryRequest",
    "QueryResult",
    "QuerySession",
    "StepStats",
    "REQUEST_SCHEMA_VERSION",
    "RESULT_SCHEMA_VERSION",
]

#: version stamped into ``QueryRequest.to_dict()`` / parsed by ``from_dict``;
#: bump only on a breaking change to the field set (additive fields with
#: defaults do not need a bump — ``from_dict`` ignores unknown keys)
REQUEST_SCHEMA_VERSION = 1
#: version stamped into ``QueryResult.to_dict()`` — the wire format the
#: serving daemon returns; documented field-by-field in docs/serving.md
RESULT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class QueryRequest:
    """One lineage query as a frozen, serializable value.

    This is the public query surface — the same object drives the embedded
    API (:meth:`SubZero.query <repro.core.subzero.SubZero.query>`), batch
    serving (:meth:`SubZero.serve`), and the network daemon
    (:mod:`repro.serving`): ``request -> to_dict() -> JSON -> from_dict()``
    round-trips losslessly, so an embedded and a networked caller are
    provably issuing the *same* query.

    The traversal is given either as an explicit ``path`` (the paper's
    ``((P1, idx1), ..., (Pm, idxm))``) or as ``start``/``end`` endpoints
    resolved against the workflow spec at execution time (the shortest
    dataflow route, like ``trace_back``/``trace_forward``).  Exactly one
    of the two forms must be set.

    ``entire_array`` / ``query_opt`` override the engine's §VI-C / §VII-A
    optimizations for this request only; ``None`` keeps the engine default.
    """

    direction: str
    cells: tuple[tuple[int, ...], ...]
    path: tuple[tuple[str, int], ...] | None = None
    start: str | None = None
    end: str | None = None
    entire_array: bool | None = None
    query_opt: bool | None = None

    def __post_init__(self) -> None:
        direction = self.direction
        if isinstance(direction, Direction):
            direction = direction.value
        if direction not in (Direction.BACKWARD.value, Direction.FORWARD.value):
            raise QueryError(
                f"direction must be 'backward' or 'forward', got {self.direction!r}"
            )
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "cells", _freeze_cells(self.cells))
        if self.path is not None:
            path = _freeze_path(self.path)
            if not path:
                raise QueryError("an explicit path must be non-empty")
            object.__setattr__(self, "path", path)
        for endpoint in (self.start, self.end):
            if endpoint is not None and not isinstance(endpoint, str):
                raise QueryError(
                    f"start/end must be node names (str), got {endpoint!r}"
                )
        has_endpoints = self.start is not None or self.end is not None
        if (self.path is None) == (not has_endpoints):
            raise QueryError(
                "a query request carries either an explicit path or "
                "start/end endpoints, not both"
            )
        if has_endpoints and (self.start is None or self.end is None):
            raise QueryError("endpoint requests need both start and end")
        for flag in ("entire_array", "query_opt"):
            value = getattr(self, flag)
            if value is not None and not isinstance(value, bool):
                raise QueryError(f"{flag} must be True, False, or None")

    # -- convenience constructors -------------------------------------------

    @classmethod
    def backward(cls, cells, path=None, *, start=None, end=None, **flags) -> "QueryRequest":
        return cls(Direction.BACKWARD.value, cells, path, start=start, end=end, **flags)

    @classmethod
    def forward(cls, cells, path=None, *, start=None, end=None, **flags) -> "QueryRequest":
        return cls(Direction.FORWARD.value, cells, path, start=start, end=end, **flags)

    # -- wire format --------------------------------------------------------

    def to_dict(self) -> dict:
        """The versioned JSON-ready form (schema ``subzero.request`` v1).

        Optional fields that hold their default are omitted, so the wire
        form of a plain path query stays minimal and stable.
        """
        obj: dict = {
            "v": REQUEST_SCHEMA_VERSION,
            "direction": self.direction,
            "cells": [list(c) for c in self.cells],
        }
        if self.path is not None:
            obj["path"] = [[node, idx] for node, idx in self.path]
        if self.start is not None:
            obj["start"] = self.start
            obj["end"] = self.end
        if self.entire_array is not None:
            obj["entire_array"] = self.entire_array
        if self.query_opt is not None:
            obj["query_opt"] = self.query_opt
        return obj

    @classmethod
    def from_dict(cls, obj) -> "QueryRequest":
        """Parse :meth:`to_dict` output; raises :class:`QueryError` on a
        malformed or newer-versioned payload.  Unknown keys are ignored
        (additive schema evolution)."""
        if not isinstance(obj, dict):
            raise QueryError(f"query request must be an object, got {type(obj).__name__}")
        version = obj.get("v", REQUEST_SCHEMA_VERSION)
        if not isinstance(version, int) or version > REQUEST_SCHEMA_VERSION:
            raise QueryError(
                f"query request schema v{version!r} is newer than supported "
                f"v{REQUEST_SCHEMA_VERSION}"
            )
        try:
            path = obj.get("path")
            return cls(
                direction=obj["direction"],
                cells=tuple(tuple(c) for c in obj["cells"]),
                path=tuple((n, i) for n, i in path) if path is not None else None,
                start=obj.get("start"),
                end=obj.get("end"),
                entire_array=obj.get("entire_array"),
                query_opt=obj.get("query_opt"),
            )
        except QueryError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise QueryError(f"malformed query request: {exc}") from exc

    # -- resolution ---------------------------------------------------------

    def resolve_path(self, spec) -> tuple[QueryStep, ...]:
        """The traversal as executable steps: the explicit ``path``, or the
        shortest dataflow route between the endpoints over ``spec``.  An
        endpoint that does not resolve is a :class:`QueryError` naming the
        request field that holds it."""
        if self.path is not None:
            return tuple(QueryStep(node, idx) for node, idx in self.path)
        backward = self.direction == Direction.BACKWARD.value
        # the cells index a node's output (backward: start) and the trace
        # runs to a node or source (backward: end); forward swaps the roles
        node_field, other_field = ("start", "end") if backward else ("end", "start")
        node, other = getattr(self, node_field), getattr(self, other_field)
        if not spec.has_node(node):
            raise QueryError(f"unknown {node_field} node {node!r}")
        if not spec.has_node(other) and other not in spec.sources:
            raise QueryError(f"unknown {other_field} {other!r}")
        try:
            path = spec.lineage_path(node, other)
        except WorkflowError as exc:  # start == end, or no dataflow route
            raise QueryError(str(exc)) from exc
        steps = tuple(QueryStep(n, idx) for n, idx in path)
        return steps if backward else steps[::-1]


def _as_int(value, what: str) -> int:
    """``value`` as an int, refusing what a plain ``int()`` would quietly
    turn into a different cell or input: bools, strings, and floats with a
    fractional part (an integral float such as ``2.0`` is accepted)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise QueryError(f"{what} must be an integer, got {value!r}")


def _freeze_cells(cells) -> tuple[tuple[int, ...], ...]:
    """Cells as one int tuple per cell; malformed cells are a
    :class:`QueryError` (the request surface's error type), not a bare
    coordinate error."""
    try:
        if not (isinstance(cells, np.ndarray) and cells.dtype.kind in "iu"):
            grid = np.asarray(cells, dtype=object)
            values = [_as_int(v, "a cell coordinate") for v in grid.ravel()]
            cells = np.array(values, dtype=np.int64).reshape(grid.shape)
        arr = C.as_coord_array(cells)
    except (CoordinateError, OverflowError, ValueError) as exc:
        # OverflowError: a coordinate beyond int64
        raise QueryError(f"invalid query cells: {exc}") from exc
    if arr.shape[0] == 0:
        raise QueryError("a query request needs at least one cell")
    if arr.shape[1] == 0:
        raise QueryError("a query cell needs at least one coordinate")
    return tuple(map(tuple, arr.tolist()))


def _freeze_path(path) -> tuple[tuple[str, int], ...]:
    steps = []
    for step in path:
        if isinstance(step, str):
            step = QueryStep(step)
        elif not isinstance(step, QueryStep):
            try:
                step = QueryStep(*step)
            except TypeError as exc:
                raise QueryError(f"invalid path step {step!r}") from exc
        if not isinstance(step.node, str):
            raise QueryError(f"path nodes must be node names (str), got {step.node!r}")
        steps.append((step.node, _as_int(step.input_idx, "a path input index")))
    return tuple(steps)


class QuerySession:
    """A borrow scope for catalog-backed stores.

    Every store a query step touches is obtained through the session:
    resident stores pass straight through; catalog stores are *borrowed*
    (pinned) on first touch and cached for the session's lifetime, then
    released (unpinned) on :meth:`close`.  Pinning guarantees cache
    eviction never closes a mapping this session is reading — eviction of
    a pinned store is deferred until its last pin drops.

    Sessions are cheap; the executor opens one per query when the caller
    does not supply one.  For batches, reusing a session across queries
    keeps its stores pinned (hot) between them.  A session must be used by
    one thread at a time; concurrent threads each take their own.
    """

    def __init__(self, runtime: "LineageRuntime"):
        self.runtime = runtime
        self._borrowed: dict = {}  # key -> catalog _OpenStore record
        self._closed = False

    def store_for(self, node: str, strategy: StorageStrategy) -> OpLineageStore | None:
        """The store serving (node, strategy), pinned for this session when
        it comes from the catalog; None when nothing serves the key."""
        if self._closed:
            raise QueryError("query session is closed")
        store = self.runtime.resident_store(node, strategy)
        if store is not None:
            return store
        catalog = self.runtime.catalog
        if catalog is None:
            return None
        key = (node, strategy)
        held = self._borrowed.get(key)
        if held is None:
            record = catalog.borrow(node, strategy)
            if record is None:
                return None
            held = (catalog, record)
            self._borrowed[key] = held
        return held[1].store

    def close(self) -> None:
        """Release every pin.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        held, self._borrowed = list(self._borrowed.values()), {}
        for catalog, record in held:
            catalog.release(record)

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _BudgetExceeded(Exception):
    """Internal: materialised access blew through its time budget."""


class _Budget:
    """Wall-clock budget.

    ``tick`` tests the deadline on every call because every call site is
    now per *batch*, not per entry: BatchProbe's lowering walk ticks once
    per codec-tag batch, the blob/table field-offset walks tick once per
    walk, and payload scans tick per column pass.  That keeps the check
    itself off the hot path — and means a cold lowering walk can only be
    interrupted at batch boundaries, so a budget that fires mid-scan no
    longer throws away an almost-finished (and cacheable) lowering.
    """

    __slots__ = ("deadline", "_start")

    def __init__(self, seconds: float | None):
        self.deadline = seconds
        self._start = time.perf_counter()

    def tick(self) -> None:
        if self.deadline is not None and time.perf_counter() - self._start > self.deadline:
            raise _BudgetExceeded


@dataclass
class StepStats:
    """What happened at one query step (for benchmarks and debugging)."""

    node: str
    direction: Direction
    method: str
    seconds: float
    cells_in: int
    cells_out: int
    switched_to_blackbox: bool = False
    shortcut: str | None = None
    #: cells a store returned that fell outside the target array and were
    #: discarded — nonzero values point at store/encoder bugs that silent
    #: clipping used to mask
    dropped_cells: int = 0

    def to_dict(self) -> dict:
        """JSON-ready form; part of the ``QueryResult.to_dict`` schema."""
        return {
            "node": self.node,
            "direction": self.direction.value,
            "method": self.method,
            "seconds": self.seconds,
            "cells_in": self.cells_in,
            "cells_out": self.cells_out,
            "switched_to_blackbox": self.switched_to_blackbox,
            "shortcut": self.shortcut,
            "dropped_cells": self.dropped_cells,
        }


@dataclass
class QueryResult:
    """Final frontier plus per-step diagnostics."""

    frontier: Frontier
    steps: list[StepStats] = field(default_factory=list)
    #: serving-cache snapshot taken when the query finished (hits, misses,
    #: evictions, open_mappings, resident_bytes); None without a catalog
    cache: dict | None = None
    #: sorted ids of catalog partitions the query should have read but
    #: could not (degraded at open or quarantined): the answer holds only
    #: the live partitions' lineage.  Empty for a healthy catalog
    degraded: list[str] = field(default_factory=list)

    @property
    def coords(self) -> np.ndarray:
        return self.frontier.coords()

    @property
    def count(self) -> int:
        return self.frontier.count

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    def to_dict(self) -> dict:
        """The versioned JSON-ready form (schema ``subzero.result`` v1) —
        the wire format the serving daemon returns, documented field by
        field in docs/serving.md.

        Deterministic fields — ``shape``, ``count``, ``coords`` (row-major
        scan order of the final frontier), ``degraded``, and the structural
        step fields — are identical for identical requests against
        identical lineage;
        ``seconds`` (wall clock) and ``cache`` (serving-cache snapshot) are
        run diagnostics and excluded from any equivalence comparison
        (:func:`repro.serving.protocol.canonical_result`)."""
        return {
            "v": RESULT_SCHEMA_VERSION,
            "shape": list(self.frontier.shape),
            "count": self.count,
            "coords": self.coords.tolist(),
            "seconds": self.seconds,
            "steps": [s.to_dict() for s in self.steps],
            "cache": self.cache,
            "degraded": list(self.degraded),
        }

    def explain(self) -> str:
        """Human-readable per-step execution report (EXPLAIN ANALYZE-style)."""
        lines = [
            f"lineage query: {len(self.steps)} steps, "
            f"{self.count} result cells, {self.seconds * 1e3:.2f} ms total"
        ]
        width = max((len(s.node) for s in self.steps), default=4)
        for i, s in enumerate(self.steps):
            extras = []
            if s.shortcut:
                extras.append(s.shortcut)
            if s.switched_to_blackbox:
                extras.append("switched-to-blackbox")
            if s.dropped_cells:
                extras.append(f"dropped={s.dropped_cells}")
            note = f"  [{', '.join(extras)}]" if extras else ""
            lines.append(
                f"  {i + 1:>2}. {s.node:<{width}}  {s.direction.value:<8} "
                f"via {s.method:<14} {s.cells_in:>8} -> {s.cells_out:<8} cells  "
                f"{s.seconds * 1e3:8.2f} ms{note}"
            )
        if self.degraded:
            lines.append(
                f"  degraded partitions: {', '.join(self.degraded)} "
                "(answer holds the live partitions' lineage only)"
            )
        if self.cache is not None:
            c = self.cache
            lines.append(
                f"  serving cache: {c.get('hits', 0)} hits / "
                f"{c.get('misses', 0)} misses / {c.get('evictions', 0)} evictions, "
                f"{c.get('open_mappings', 0)} open mappings "
                f"({c.get('resident_bytes', 0)} resident bytes)"
            )
            if c.get("deferred_pairs", 0) or c.get("capture_seconds", 0.0):
                lines.append(
                    f"  deferred capture: {c.get('deferred_pairs', 0)} pairs / "
                    f"{c.get('deferred_bytes', 0)} bytes parked, "
                    f"{c.get('capture_seconds', 0.0) * 1e3:.2f} ms foreground, "
                    f"{c.get('encode_thread_seconds', 0.0) * 1e3:.2f} ms encode thread"
                )
            if c.get("filter_probes", 0):
                lines.append(
                    f"  generation filters: {c.get('filter_probes', 0)} probes, "
                    f"{c.get('generations_skipped', 0)} generations skipped, "
                    f"{c.get('bloom_fp', 0)} bloom false positives"
                )
            if c.get("compactions_run", 0):
                lines.append(
                    f"  background maintenance: {c.get('compactions_run', 0)} "
                    f"compactions, {c.get('bytes_merged', 0)} bytes merged, "
                    f"{c.get('maintenance_seconds', 0.0) * 1e3:.2f} ms"
                )
            if c.get("partitions", 0):
                lines.append(
                    f"  partitioned catalog: {c.get('partitions', 0)} partitions "
                    f"({c.get('partitions_degraded', 0)} degraded), "
                    f"{c.get('partition_probes', 0)} probes "
                    f"({c.get('targeted_probes', 0)} targeted / "
                    f"{c.get('broadcast_probes', 0)} broadcast), "
                    f"{c.get('scatter_queries', 0)} scatter plans "
                    f"({c.get('scatter_broadcasts', 0)} broadcast)"
                )
        return "\n".join(lines)


class QueryExecutor:
    """Executes backward/forward lineage queries over an executed workflow."""

    def __init__(
        self,
        instance: WorkflowInstance,
        runtime: LineageRuntime,
        cost_model: CostModel | None = None,
        enable_entire_array: bool = True,
        enable_query_opt: bool = True,
    ):
        self.instance = instance
        self.runtime = runtime
        self.cost_model = cost_model or CostModel(runtime.stats)
        self.enable_entire_array = enable_entire_array
        self.enable_query_opt = enable_query_opt
        self.reexec = ReExecutor(instance, runtime.stats)

    # -- public API ----------------------------------------------------------

    def execute_request(
        self, request: QueryRequest, session: QuerySession | None = None
    ) -> QueryResult:
        """Run one :class:`QueryRequest` — the executor's only entry point,
        shared by the embedded API, ``serve()``, and the network daemon.

        Endpoint requests are resolved against the executed workflow's
        spec; ``entire_array``/``query_opt`` override the engine defaults
        for this request only.  Cells that do not fit the start array and
        endpoints that do not resolve are a :class:`QueryError`.

        ``session`` lets a caller share one borrow scope (pinned stores)
        across queries; without one, a session is opened for this call and
        closed before returning.  With per-call or per-thread sessions,
        this method is safe to invoke concurrently from many threads.
        """
        entire = (
            self.enable_entire_array
            if request.entire_array is None
            else request.entire_array
        )
        opt = self.enable_query_opt if request.query_opt is None else request.query_opt
        path = request.resolve_path(self.instance.spec)
        backward = request.direction == Direction.BACKWARD.value
        if backward:
            self.instance.validate_backward_path(path)
            start_shape = self.instance.output_shape(path[0].node)
        else:
            self.instance.validate_forward_path(path)
            start_shape = self.instance.operator(path[0].node).input_shapes[
                path[0].input_idx
            ]
        try:
            frontier = Frontier.from_coords(np.asarray(request.cells), start_shape)
        except CoordinateError as exc:
            raise QueryError(
                f"request cells do not fit the start array {start_shape}: {exc}"
            ) from exc
        owns_session = session is None
        if owns_session:
            session = QuerySession(self.runtime)
        try:
            result = QueryResult(frontier=frontier)
            for step in path:
                frontier, stats = self._execute_step(
                    step, frontier, backward, entire, opt, session
                )
                result.steps.append(stats)
                result.frontier = frontier
        finally:
            if owns_session:
                session.close()
        snapshot = self.runtime.serving_stats()
        if self.runtime.catalog is not None:
            result.cache = snapshot
        self.runtime.stats.record_serving(snapshot)
        return result

    # -- one step ------------------------------------------------------------------

    def _execute_step(
        self,
        step: QueryStep,
        frontier: Frontier,
        backward: bool,
        entire: bool,
        opt: bool,
        session: QuerySession,
    ) -> tuple[Frontier, StepStats]:
        node, idx = step.node, step.input_idx
        op = self.instance.operator(node)
        out_shape = op.output_shape
        in_shape = op.input_shapes[idx]
        target_shape = in_shape if backward else out_shape
        start = time.perf_counter()
        next_frontier = Frontier(target_shape)
        direction = Direction.BACKWARD if backward else Direction.FORWARD

        if frontier.is_empty:
            return next_frontier, StepStats(
                node, direction, "empty", 0.0, 0, 0, shortcut="empty-frontier"
            )

        # Entire-array optimization (§VI-C): exact for all-to-all operators,
        # and manually-annotated safe operators under a full frontier.
        if entire and op.all_to_all:
            next_frontier.set_all()
            seconds = time.perf_counter() - start
            return next_frontier, StepStats(
                node, direction, "all-to-all", seconds,
                frontier.count, next_frontier.count, shortcut="all-to-all",
            )
        if entire and frontier.is_full and op.entire_array_ok(backward):
            next_frontier.set_all()
            seconds = time.perf_counter() - start
            return next_frontier, StepStats(
                node, direction, "entire-array", seconds,
                frontier.count, next_frontier.count, shortcut="entire-array",
            )

        qpacked = frontier.packed()
        strategy = self._choose_strategy(node, op, backward, qpacked.size, opt)
        budget = None
        if opt and strategy.stores_pairs:
            blackbox_estimate = self.cost_model.reexec_seconds(node)
            budget = _Budget(max(2.0 * blackbox_estimate, 0.05))
        switched = False
        try:
            packed = self._run_strategy(
                node, op, strategy, qpacked, idx, backward, out_shape, in_shape,
                budget, session,
            )
        except _BudgetExceeded:
            switched = True
            packed = self._run_strategy(
                node, op, BLACKBOX, qpacked, idx, backward, out_shape, in_shape,
                None, session,
            )
        dropped = 0
        if packed.size:
            in_range = (packed >= 0) & (packed < int(np.prod(target_shape)))
            dropped = int(packed.size - np.count_nonzero(in_range))
            packed = packed[in_range]
            next_frontier.add_packed(np.unique(packed))
        seconds = time.perf_counter() - start
        self.cost_model.record_observation(
            node, strategy if not switched else BLACKBOX, backward, seconds
        )
        label = strategy.label if not switched else f"{strategy.label}->Blackbox"
        return next_frontier, StepStats(
            node,
            direction,
            label,
            seconds,
            frontier.count,
            next_frontier.count,
            switched_to_blackbox=switched,
            dropped_cells=dropped,
        )

    # -- strategy selection (query-time optimizer, §VII-A) ----------------------------

    def _choose_strategy(
        self, node: str, op: Operator, backward: bool, n_cells: int, opt: bool
    ) -> StorageStrategy:
        assigned = list(self.runtime.strategies_for(node))
        if not opt:
            # Static behaviour: blindly use the stored lineage (mapping
            # first, then whatever was materialised), re-executing only when
            # nothing was stored — matches Figure 6(b).  Configurations that
            # store both orientations (FullBoth/PayBoth) use the one whose
            # index matches the query direction; single-orientation
            # configurations are used even when mismatched.
            for strategy in assigned:
                if strategy.mode is LineageMode.MAP:
                    return strategy
            stored = [s for s in assigned if s.stores_pairs]
            for strategy in stored:
                if self._orientation_matches(strategy, backward):
                    return strategy
            if stored:
                return stored[0]
            return BLACKBOX
        candidates = list(assigned)
        if BLACKBOX not in candidates:
            candidates.append(BLACKBOX)
        best, best_cost = None, float("inf")
        for strategy in candidates:
            cost = self.cost_model.query_seconds(
                node,
                strategy,
                backward,
                n_cells,
                lowered_ready=self.runtime.lowered_ready(node, strategy),
                reopen_bytes=self.runtime.reopen_bytes(node, strategy),
                # multi-generation scan planning: an un-compacted store pays
                # one probe/scan pass per live generation, so its overlay
                # amplification competes honestly here — discounted to the
                # filter-probe rate when every generation persisted filters
                generations=self.runtime.generation_count(node, strategy),
                filtered=self.runtime.filters_ready(node, strategy),
                # scatter fan-out: materialised reads on a partitioned
                # catalog pay one child-catalog probe per extra partition
                fanout=self.runtime.partition_fanout(node),
            )
            if cost < best_cost:
                best, best_cost = strategy, cost
        return best if best is not None else BLACKBOX

    @staticmethod
    def _orientation_matches(strategy: StorageStrategy, backward: bool) -> bool:
        """Payload/composite stores are backward-indexed; full stores carry
        an explicit orientation."""
        if strategy.mode in (LineageMode.PAY, LineageMode.COMP):
            return backward
        matched = strategy.orientation is Orientation.BACKWARD
        return matched == backward

    # -- strategy dispatch ------------------------------------------------------------

    def _run_strategy(
        self,
        node: str,
        op: Operator,
        strategy: StorageStrategy,
        qpacked: np.ndarray,
        idx: int,
        backward: bool,
        out_shape: tuple[int, ...],
        in_shape: tuple[int, ...],
        budget: _Budget | None,
        session: QuerySession,
    ) -> np.ndarray:
        if strategy.mode is LineageMode.BLACKBOX:
            if backward:
                return self.reexec.trace_backward(node, qpacked, idx)
            return self.reexec.trace_forward(node, qpacked, idx)
        if strategy.mode is LineageMode.MAP:
            if backward:
                coords = C.unpack_coords(qpacked, out_shape)
                return C.pack_coords(op.map_b_many(coords, idx), in_shape)
            coords = C.unpack_coords(qpacked, in_shape)
            return C.pack_coords(op.map_f_many(coords, idx), out_shape)
        # borrow through the session: catalog stores come back pinned, so
        # eviction can never close this mapping while the step is reading it
        store = session.store_for(node, strategy)
        if store is None:
            raise QueryError(
                f"strategy {strategy.label} assigned to {node!r} but no store exists; "
                "was the workflow executed after assigning strategies?"
            )
        ticker = budget.tick if budget is not None else None
        if strategy.mode is LineageMode.FULL:
            # the scan paths forward the ticker into BatchProbe's cold
            # lowering loop (the one remaining per-entry walk), so a huge
            # first scan can still abort to re-execution near the deadline
            if backward:
                if strategy.orientation is Orientation.BACKWARD:
                    # matched path: decode only the traversed input's field
                    _, per_input = store.backward_full(qpacked, only_input=idx)
                else:
                    _, per_input = store.scan_backward_full(qpacked, ticker=ticker)
                return per_input[idx]
            if strategy.orientation is Orientation.FORWARD:
                return store.forward_full(qpacked, idx)
            return store.scan_forward_full(qpacked, idx, ticker=ticker)
        # PAY / COMP
        if backward:
            return self._payload_backward(op, store, strategy, qpacked, idx, out_shape, in_shape)
        return self._payload_forward(op, store, strategy, qpacked, idx, out_shape, in_shape, budget)

    def _payload_backward(
        self,
        op: Operator,
        store: OpLineageStore,
        strategy: StorageStrategy,
        qpacked: np.ndarray,
        idx: int,
        out_shape: tuple[int, ...],
        in_shape: tuple[int, ...],
    ) -> np.ndarray:
        matched, hit_packed, payloads = store.backward_payload_rows(qpacked)
        parts: list[np.ndarray] = []
        if hit_packed.size:
            coords = C.unpack_coords(hit_packed, out_shape)
            parts.append(C.pack_coords(payload_union(op, coords, payloads, idx), in_shape))
        if strategy.mode is LineageMode.COMP:
            unmatched = qpacked[~matched]
            if unmatched.size:
                coords = C.unpack_coords(unmatched, out_shape)
                parts.append(C.pack_coords(op.map_b_many(coords, idx), in_shape))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def _payload_forward(
        self,
        op: Operator,
        store: OpLineageStore,
        strategy: StorageStrategy,
        qpacked: np.ndarray,
        idx: int,
        out_shape: tuple[int, ...],
        in_shape: tuple[int, ...],
        budget: _Budget | None,
    ) -> np.ndarray:
        parts: list[np.ndarray] = []
        # columnar scan surface: every stored cell is one row of a single
        # map_p batch that group-tests rows sharing a payload
        keys, koff, vbuf, voff = store.payload_entries()
        if budget is not None:
            budget.tick()
        if koff.size > 1:
            keys = np.asarray(keys, dtype=np.int64)
            hit = payload_entry_hits(
                op, C.unpack_coords(keys, out_shape), koff, vbuf, voff, idx, np.sort(qpacked)
            )
            if hit.size:
                parts.append(keys[hit])
        if strategy.mode is LineageMode.COMP:
            coords = C.unpack_coords(qpacked, in_shape)
            default = C.pack_coords(op.map_f_many(coords, idx), out_shape)
            overridden = store.overridden_keys()
            if overridden.size:
                default = default[~np.isin(default, overridden)]
            parts.append(default)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)
