"""The engine's lineage catalog: one root over independent catalog directories.

A :class:`~repro.core.catalog.StoreCatalog` serves one directory of
segments — one box.  :class:`PartitionedCatalog` is the only catalog the
engine holds: a root over one or more *partitions*, each a
``StoreCatalog`` child with its own ``catalog.json``, delta generations,
bloom/zone filters and compaction.

* A **plain catalog directory** (a ``catalog.json`` and no
  ``partitions.json``) opens as a root with one implicit partition at
  ``.``, the directory itself.  No root manifest is read or written for
  it, every node routes to that partition, and an unreadable
  ``catalog.json`` raises :class:`~repro.errors.StorageError` instead of
  degrading.
* A **partitioned root** splits a workflow's lineage **by node subset**
  for bigger-than-one-box datasets; its root manifest
  (``partitions.json``) records the partition ids, their paths, and the
  node→partition map.  The shape follows FamDB's root+leaf partition
  files and OrpheusDB's bolt-on facade: independent storage units behind
  one logical catalog.

Reads *scatter*: a key is routed to the partition its node maps to (one
probe), falling back to an all-partition broadcast for nodes the map does
not cover; when a key turns out to live in several partitions, the
per-partition stores are merged through the same source-agnostic
:class:`~repro.core.overlay.OverlayStore` union that merges generations —
one merge implementation.

Failure isolation is per partition: a torn partition (unreadable or
corrupt child manifest) under a root manifest is *degraded* at open time —
its nodes lose their materialised lineage (queries on them fall back to
mapping functions or re-execution) while every other partition keeps
serving, and a query's :attr:`~repro.core.query.QueryResult.degraded`
names the partitions it could not read.
:func:`repro.workflow.recovery.recover_lineage` persists that verdict by
marking the partition ``quarantined`` in the root manifest.

:class:`ScatterGatherExecutor` adds the request-level plan on top: given a
backward/forward :class:`~repro.core.query.QueryRequest` it computes which
partitions can match (the unique partitions of the path's nodes),
recording targeted-vs-broadcast fan-out counters the cost model and the
benchmarks consume.  A partition is the stepping stone to a remote shard:
the plan's partition set is exactly the fan-out set a multi-machine
deployment would send the request to (see ``docs/partitioning.md``).
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.analysis import lockcheck
from repro.core.catalog import (
    CompactionReport,
    StoreCatalog,
    _read_manifest,
    _write_manifest,
)
from repro.core.modes import StorageStrategy
from repro.core.overlay import FilterStats, OverlayStore
from repro.errors import QueryError, StorageError

__all__ = [
    "PARTITIONS_MANIFEST",
    "PartitionInfo",
    "PartitionedCatalog",
    "ScatterGatherExecutor",
    "ScatterPlan",
    "assign_partition",
    "is_partitioned_root",
]

PARTITIONS_MANIFEST = "partitions.json"
PARTITION_FORMAT = "subzero-partitions"
PARTITION_VERSION = 1

#: floor on a partition's open-store cache budget when the root budget is
#: split across partitions — a sliver budget would thrash every borrow
_MIN_CHILD_BUDGET = 1 << 16


def assign_partition(node: str, partition_ids: list[str]) -> str:
    """Stable hash assignment: which partition serves ``node``.

    CRC32 of the node name modulo the partition count — deterministic
    across processes and Python versions, so a re-opened catalog (or a
    remote shard router) computes the same map without reading it."""
    if not partition_ids:
        raise StorageError("cannot assign a node to zero partitions")
    return partition_ids[zlib.crc32(node.encode("utf-8")) % len(partition_ids)]


def is_partitioned_root(directory: str) -> bool:
    """True when ``directory`` holds a partitioned-catalog root manifest."""
    return os.path.isfile(os.path.join(directory, PARTITIONS_MANIFEST))


@dataclass(frozen=True)
class PartitionInfo:
    """One partition as the root manifest records it."""

    id: str
    #: directory of the partition's own catalog, relative to the root
    path: str
    #: set when recovery set the whole partition aside (unreadable child
    #: manifest); a quarantined partition is skipped at open — its nodes
    #: degrade to mapping/re-execution, everything else keeps serving
    quarantined: bool = False


#: the one partition of a plain catalog directory: the directory itself
_PLAIN = PartitionInfo(id=".", path=".")


@dataclass
class _PartitionLease:
    """One borrow served by the root: ``store`` is the single partition's
    store, or an overlay when the key lives in several partitions;
    ``leases`` are the child pins, released child by child."""

    store: object
    leases: list[tuple[StoreCatalog, object]] = field(default_factory=list)


@dataclass(frozen=True)
class ScatterPlan:
    """Which partitions one request can touch (see
    :meth:`ScatterGatherExecutor.plan`)."""

    #: unique partition ids the request's path nodes map to
    partition_ids: tuple[str, ...]
    #: True when the plan could not be narrowed (a path node missing from
    #: the node map, or ``entire_array`` in play) and every live partition
    #: must be consulted
    broadcast: bool
    #: the path nodes the plan was derived from
    nodes: tuple[str, ...]
    #: sorted ids of partitions the request should read but cannot
    #: (degraded at open or quarantined): its answer omits their lineage
    degraded: tuple[str, ...] = ()


class PartitionedCatalog:
    """Root over per-partition :class:`StoreCatalog` children (see module
    docstring)."""

    def __init__(
        self,
        directory: str,
        infos: Iterable[PartitionInfo],
        node_map: Mapping[str, str],
        memory_budget_bytes: int | None = None,
    ):
        self.directory = directory
        self.memory_budget_bytes = memory_budget_bytes
        self._infos: dict[str, PartitionInfo] = {}
        for info in infos:
            if info.id in self._infos:
                raise StorageError(
                    f"partitioned catalog {directory!r} lists partition "
                    f"{info.id!r} twice"
                )
            self._infos[info.id] = info
        self._node_map: dict[str, str] = dict(node_map)
        for node, pid in self._node_map.items():
            if pid not in self._infos:
                raise StorageError(
                    f"node {node!r} maps to unknown partition {pid!r}"
                )
        #: the partition every node outside the map routes to: the plain
        #: catalog directory's implicit one; None under a root manifest,
        #: where unmapped nodes broadcast
        self._default = _PLAIN.id if list(self._infos.values()) == [_PLAIN] else None
        #: partition id -> child catalog; None when quarantined or degraded
        self._children: dict[str, StoreCatalog | None] = {}
        #: ``(partition id, StorageError)`` per partition that failed to
        #: open — the runtime quarantine verdict recovery later persists
        self.degraded: list[tuple[str, StorageError]] = []
        live = [i for i in self._infos.values() if not i.quarantined]
        child_budget = self._split_budget(memory_budget_bytes, len(live))
        for info in self._infos.values():
            if info.quarantined:
                self._children[info.id] = None
                continue
            try:
                self._children[info.id] = StoreCatalog.open(
                    os.path.join(directory, info.path),
                    memory_budget_bytes=child_budget,
                )
            except StorageError as exc:
                if self._default is not None:
                    raise  # a plain directory has nothing to degrade to
                # per-partition quarantine at open: a torn partition
                # degrades only its own nodes, never the whole root
                self._children[info.id] = None
                self.degraded.append((info.id, exc))
        #: shared skip counters for partition-level unions (children keep
        #: their own for generation overlays)
        self._filter_stats = FilterStats()
        self._lock = lockcheck.make_lock("partition.root")
        #: per-partition child-catalog probes routed by borrows/opens
        self._probes: dict[str, int] = {pid: 0 for pid in self._infos}
        self._targeted_probes = 0
        self._broadcast_probes = 0
        self._scatter_queries = 0
        self._scatter_broadcasts = 0
        self._scatter_partitions_matched = 0

    @staticmethod
    def _split_budget(budget: int | None, n_live: int) -> int | None:
        """Each child gets an even share of the root budget, so the total
        resident bytes stay bounded by the root figure (not N times it).
        A lone partition keeps the whole budget."""
        if budget is None or n_live <= 1:
            return budget
        return max(budget // n_live, _MIN_CHILD_BUDGET)

    # -- writing ---------------------------------------------------------------

    @classmethod
    def write(
        cls,
        directory: str,
        stores,
        partitions=None,
        memory_budget_bytes: int | None = None,
    ) -> tuple["PartitionedCatalog", int]:
        """Flush ``stores``; returns ``(catalog, total_bytes_written)``.

        ``partitions=None`` writes a plain catalog directory (one
        ``catalog.json``, no root manifest).  Otherwise it is an int ``N``
        (partitions ``p0..p{N-1}``, nodes hash-assigned via
        :func:`assign_partition`) or an explicit ``node -> partition id``
        mapping (ids are taken from its values; unmapped nodes are
        hash-assigned over the same ids).  ``stores`` is anything with
        ``.items()`` yielding ``((node, strategy), store)`` — including the
        runtime's lazy one-at-a-time borrowing view, which this method
        iterates once per partition so at most one store is pinned at a
        time."""
        if partitions is None:
            child, total = StoreCatalog.write(directory, stores)
            child.close()
            return cls(directory, [_PLAIN], {}, memory_budget_bytes), total
        infos, explicit = cls._resolve_partitions(partitions)
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise StorageError(
                f"cannot create partitioned catalog root {directory!r}: {exc}"
            ) from exc
        ids = [info.id for info in infos]
        node_map: dict[str, str] = {}

        def pid_of(node: str) -> str:
            pid = node_map.get(node)
            if pid is None:
                pid = explicit.get(node) or assign_partition(node, ids)
                node_map[node] = pid
            return pid

        class _OnePartition:
            """items() view filtered to one partition (re-iterable)."""

            def __init__(self, pid: str):
                self.pid = pid

            def items(self):
                for key, store in stores.items():
                    if pid_of(key[0]) == self.pid:
                        yield key, store

        total = 0
        for info in infos:
            child, nbytes = StoreCatalog.write(
                os.path.join(directory, info.path), _OnePartition(info.id)
            )
            child.close()
            total += nbytes
        catalog = cls(
            directory, infos, node_map, memory_budget_bytes=memory_budget_bytes
        )
        total += catalog.save_root_manifest()
        return catalog, total

    @staticmethod
    def _resolve_partitions(partitions) -> tuple[list[PartitionInfo], dict[str, str]]:
        """Normalise the ``partitions`` argument to ``(infos, explicit
        node->id map)``."""
        if isinstance(partitions, int):
            if partitions < 1:
                raise StorageError(
                    f"a partitioned catalog needs >= 1 partition, got {partitions}"
                )
            infos = [
                PartitionInfo(id=f"p{i}", path=f"p{i}") for i in range(partitions)
            ]
            return infos, {}
        if isinstance(partitions, Mapping):
            if not partitions:
                raise StorageError("an explicit partition map must be non-empty")
            ids = sorted({str(pid) for pid in partitions.values()})
            infos = [PartitionInfo(id=pid, path=pid) for pid in ids]
            return infos, {str(n): str(p) for n, p in partitions.items()}
        raise StorageError(
            "partitions must be an int (hash assignment) or a node->id mapping, "
            f"got {type(partitions).__name__}"
        )

    def save_root_manifest(self) -> int:
        """Atomically (re)write ``partitions.json``; returns its size."""
        with self._lock:
            obj = {
                "format": PARTITION_FORMAT,
                "version": PARTITION_VERSION,
                "partitions": [
                    {
                        "id": info.id,
                        "path": info.path,
                        **({"quarantined": True} if info.quarantined else {}),
                    }
                    for info in self._infos.values()
                ],
                "nodes": dict(sorted(self._node_map.items())),
            }
        path = os.path.join(self.directory, PARTITIONS_MANIFEST)
        return _write_manifest(path, obj, "partition manifest")

    # -- opening ---------------------------------------------------------------

    @classmethod
    def open(
        cls, directory: str, memory_budget_bytes: int | None = None
    ) -> "PartitionedCatalog":
        """Parse the root manifest and each live child manifest; no
        segment file is touched.  Under a root manifest a child that fails
        to open is degraded (recorded in :attr:`degraded`), not fatal; a
        plain catalog directory's own ``catalog.json`` must open."""
        if not is_partitioned_root(directory):
            return cls(directory, [_PLAIN], {}, memory_budget_bytes)
        path = os.path.join(directory, PARTITIONS_MANIFEST)
        manifest = _read_manifest(
            path, PARTITION_FORMAT, PARTITION_VERSION, "partition manifest"
        )
        try:
            infos = [
                PartitionInfo(
                    id=str(p["id"]),
                    path=str(p["path"]),
                    quarantined=bool(p.get("quarantined", False)),
                )
                for p in manifest["partitions"]
            ]
            node_map = {str(n): str(p) for n, p in manifest.get("nodes", {}).items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"corrupt partition manifest {path!r}: {exc}") from exc
        return cls(directory, infos, node_map, memory_budget_bytes=memory_budget_bytes)

    @classmethod
    def append(cls, directory: str, stores) -> int:
        """Append ``stores`` as delta generations to the catalog at
        ``directory`` (see :meth:`append_stores`), creating a plain one
        when there is none; returns bytes written."""
        if is_partitioned_root(directory):
            with cls.open(directory) as root:
                return root.append_stores(stores)
        child, total = StoreCatalog.append(directory, stores)
        child.close()
        return total

    # -- partition topology ----------------------------------------------------

    def partition_ids(self) -> list[str]:
        return list(self._infos)

    def partition(self, pid: str) -> StoreCatalog | None:
        """The live child catalog for ``pid``; None when quarantined,
        degraded, or unknown."""
        return self._children.get(pid)

    def partition_for_node(self, node: str) -> str | None:
        """The partition ``node`` routes to; None when a root manifest's
        node map does not cover it (reads broadcast)."""
        return self._node_map.get(node, self._default)

    def partition_fanout(self, node: str) -> int:
        """How many partitions a read on ``node`` must probe: 1 when it
        routes to one partition, every live partition otherwise.  Feeds
        the cost model's scatter fan-out pricing."""
        if self.partition_for_node(node) is not None:
            return 1
        return max(1, len(self._live_children()))

    def layout(self) -> dict[str, str] | None:
        """The ``partitions`` argument of :meth:`write` that keeps this
        root's layout (None for a plain catalog directory)."""
        if self._default is not None:
            return None
        with self._lock:
            return dict(self._node_map)

    def _live_children(self) -> dict[str, StoreCatalog]:
        with self._lock:
            return {
                pid: child
                for pid, child in self._children.items()
                if child is not None
            }

    def _children_for(self, node: str) -> list[tuple[str, StoreCatalog]]:
        """The children a read on ``node`` must consult: the one it routes
        to (possibly none when it is degraded), or — unmapped — all live."""
        pid = self.partition_for_node(node)
        if pid is not None:
            child = self._children.get(pid)
            return [(pid, child)] if child is not None else []
        return list(self._live_children().items())

    def mark_quarantined(self, pid: str, persist: bool = True) -> None:
        """Set a partition aside: close its child (if open), flag it in
        the root manifest, and drop its nodes from serving.  Recovery
        calls this when a child manifest fails verification."""
        with self._lock:
            info = self._infos.get(pid)
            if info is None or info.quarantined:
                return
            self._infos[pid] = replace(info, quarantined=True)
            child = self._children.get(pid)
            self._children[pid] = None
        if child is not None:
            child.close()
        if persist:
            self.save_root_manifest()

    # -- scatter accounting ----------------------------------------------------

    def _route(self, node: str) -> list[tuple[str, StoreCatalog]]:
        """:meth:`_children_for`, counted as one probe per child."""
        targets = self._children_for(node)
        with self._lock:
            for pid, _child in targets:
                self._probes[pid] = self._probes.get(pid, 0) + 1
            if self.partition_for_node(node) is not None:
                self._targeted_probes += len(targets)
            else:
                self._broadcast_probes += len(targets)
        return targets

    def probes_by_partition(self) -> dict[str, int]:
        """Child-catalog probes per partition id (the counter the targeted
        4-partition benchmark asserts on)."""
        with self._lock:
            return dict(self._probes)

    def record_scatter(self, plan: ScatterPlan) -> None:
        """Account one request-level scatter plan (see
        :class:`ScatterGatherExecutor`)."""
        with self._lock:
            self._scatter_queries += 1
            self._scatter_partitions_matched += len(plan.partition_ids)
            if plan.broadcast:
                self._scatter_broadcasts += 1

    # -- serving: borrow / release ---------------------------------------------

    def borrow(self, node: str, strategy: StorageStrategy) -> _PartitionLease | None:
        """Scatter one key: probe the owning partition (or broadcast when
        the node is unmapped), pinning each child record touched.  Returns
        a lease whose ``.store`` is the merged read surface — the single
        partition's store, or an overlay of the partitions' stores — or None
        when no live partition serves the key."""
        targets = self._route(node)
        leases: list[tuple[StoreCatalog, object]] = []
        try:
            for _pid, child in targets:
                record = child.borrow(node, strategy)
                if record is not None:
                    leases.append((child, record))
        except BaseException:
            for child, record in leases:
                child.release(record)
            raise
        if not leases:
            return None
        store = self._union([record.store for _, record in leases])
        return _PartitionLease(store=store, leases=leases)

    def release(self, lease: _PartitionLease) -> None:
        for child, record in lease.leases:
            child.release(record)

    def open_store(self, node: str, strategy: StorageStrategy):
        """Unpinned convenience open (the ``StoreCatalog.open_store``
        contract): the store is live when handed back, but a later child
        eviction may close it — long-lived readers should borrow through a
        session instead."""
        stores = [child.open_store(node, strategy) for _pid, child in self._route(node)]
        stores = [store for store in stores if store is not None]
        return self._union(stores) if stores else None

    def _union(self, stores: list):
        """One partition's store as is; a key spanning partitions through
        the same overlay union as generations."""
        if len(stores) == 1:
            return stores[0]
        return OverlayStore(stores, filter_stats=self._filter_stats)

    # -- appending / compaction -------------------------------------------------

    def append_stores(self, stores) -> int:
        """Route each store to its partition and append it there as a
        delta generation; returns bytes written.  Unmapped (new) nodes are
        hash-assigned over the full partition list — including quarantined
        ids, so the assignment stays stable when a partition returns — and
        the root manifest is rewritten when the map grew.  Appending a
        node that routes to a quarantined/degraded partition is an error:
        its lineage would vanish from serving."""
        pending = [(key, store) for key, store in stores.items()]
        ids = list(self._infos)
        grew = False
        with self._lock:
            for (node, _strategy), _store in pending:
                if self.partition_for_node(node) is None:
                    self._node_map[node] = assign_partition(node, ids)
                    grew = True
        by_pid: dict[str, dict] = {}
        for key, store in pending:
            pid = self.partition_for_node(key[0])
            if self._children.get(pid) is None:
                raise StorageError(
                    f"cannot append node {key[0]!r}: its partition {pid!r} "
                    "is quarantined/degraded"
                )
            by_pid.setdefault(pid, {})[key] = store
        total = 0
        for pid, sub in by_pid.items():
            total += self._children[pid].append_stores(sub)
        if grew:
            total += self.save_root_manifest()
        return total

    def compact(
        self,
        node: str | None = None,
        strategy: StorageStrategy | None = None,
        budget_bytes: int | None = None,
        parallel: int | None = None,
    ) -> CompactionReport:
        """Compact the partitions' delta generations, each partition
        independently (their maintenance locks do not contend), and merge
        the per-partition reports.

        A ``node``-restricted sweep is routed to the owning partition
        only.  The full sweep fans across the live partitions on a small
        thread pool — ``parallel`` workers (default: one per partition,
        capped at 4); each partition applies ``budget_bytes`` to its own
        sweep, so the cap bounds per-partition foreground impact."""
        if node is not None and self.partition_for_node(node) is not None:
            targets = [c for _pid, c in self._children_for(node)]
        else:
            targets = list(self._live_children().values())
        if not targets:
            return CompactionReport()
        kwargs = dict(node=node, strategy=strategy, budget_bytes=budget_bytes)
        if len(targets) == 1 or (parallel is not None and parallel <= 1):
            reports = [child.compact(**kwargs) for child in targets]
        else:
            workers = parallel if parallel is not None else min(4, len(targets))
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="subzero-partition-compact"
            ) as pool:
                reports = list(
                    pool.map(lambda child: child.compact(**kwargs), targets)
                )
        merged = CompactionReport()
        for report in reports:
            merged.compacted.extend(report.compacted)
            merged.skipped.extend(report.skipped)
            merged.bytes_written += report.bytes_written
            merged.bytes_reclaimed += report.bytes_reclaimed
        return merged

    # -- manifest-level accessors ------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct keys across the live partitions."""
        return len({key for child in self._live_children().values() for key in child.keys()})

    def keys(self) -> list[tuple[str, StorageStrategy]]:
        seen: dict[tuple[str, StorageStrategy], None] = {}
        for child in self._live_children().values():
            for key in child.keys():
                seen[key] = None
        return list(seen)

    def entries(self) -> list:
        return [e for child in self._live_children().values() for e in child.entries()]

    def generations_for(self, node: str, strategy: StorageStrategy) -> tuple:
        """Every live generation of the key in the partitions serving it."""
        return tuple(
            entry
            for _pid, child in self._children_for(node)
            for entry in child.generations_for(node, strategy)
        )

    def generation_count(self, node: str, strategy: StorageStrategy) -> int:
        """Live sources a read must union — generations summed across the
        partitions serving the key (normally exactly one partition)."""
        return len(self.generations_for(node, strategy))

    def manifest_bytes(self, node: str, strategy: StorageStrategy) -> int:
        return sum(
            child.manifest_bytes(node, strategy)
            for _pid, child in self._children_for(node)
        )

    def _every_holder(self, node: str, strategy: StorageStrategy, ready) -> bool:
        """True when some partition holds the key and ``ready(child)`` is
        true of every one that does."""
        holders = [
            child
            for _pid, child in self._children_for(node)
            if child.generation_count(node, strategy)
        ]
        return bool(holders) and all(ready(child) for child in holders)

    def lowered_ready(self, node: str, strategy: StorageStrategy) -> bool:
        return self._every_holder(node, strategy, lambda c: c.lowered_ready(node, strategy))

    def filters_ready(self, node: str, strategy: StorageStrategy) -> bool:
        return self._every_holder(node, strategy, lambda c: c.filters_ready(node, strategy))

    # -- introspection -----------------------------------------------------------

    def is_open(self, node: str, strategy: StorageStrategy) -> bool:
        return any(
            child.is_open(node, strategy)
            for _pid, child in self._children_for(node)
        )

    def stats(self) -> dict[str, int]:
        """Child cache counters summed, plus — under a root manifest — the
        root's scatter counters (``partitions``, ``partition_probes``,
        targeted/broadcast splits, and the request-level scatter-plan
        tallies)."""
        out: dict[str, int] = {}
        for child in self._live_children().values():
            for key, value in child.stats().items():
                out[key] = out.get(key, 0) + value
        for key, value in self._filter_stats.snapshot().items():
            out[key] = out.get(key, 0) + value
        if self._default is not None:
            return out
        with self._lock:
            out["partitions"] = len(self._infos)
            out["partitions_degraded"] = sum(
                1 for child in self._children.values() if child is None
            )
            out["partition_probes"] = sum(self._probes.values())
            out["targeted_probes"] = self._targeted_probes
            out["broadcast_probes"] = self._broadcast_probes
            out["scatter_queries"] = self._scatter_queries
            out["scatter_broadcasts"] = self._scatter_broadcasts
            out["scatter_partitions_matched"] = self._scatter_partitions_matched
        return out

    # -- lifecycle ----------------------------------------------------------------

    def retire(self) -> None:
        """:meth:`StoreCatalog.retire` on every live partition."""
        for child in self._live_children().values():
            child.retire()

    def close(self) -> None:
        for child in self._live_children().values():
            child.close()

    def __enter__(self) -> "PartitionedCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ScatterGatherExecutor:
    """Request-level scatter-gather over a :class:`PartitionedCatalog`.

    Wraps a :class:`~repro.core.query.QueryExecutor`: :meth:`plan`
    computes which partitions a :class:`~repro.core.query.QueryRequest`
    can touch (the unique partitions of its path's nodes), and
    :meth:`execute_request` records the plan on the catalog's scatter
    counters before running the query.  The plan is an all-partition
    broadcast when it cannot be narrowed: a path node missing from the
    node map, an unresolvable path, or ``entire_array`` forced on
    (shortcut steps may touch any store the engine deems cheapest)."""

    def __init__(self, executor, catalog: PartitionedCatalog):
        self._executor = executor
        self.catalog = catalog

    def plan(self, request) -> ScatterPlan:
        """The partitions ``request`` can match; never raises — an
        unresolvable request yields a broadcast plan and the real error
        surfaces from execution."""
        live = self.catalog._live_children()
        dead = tuple(sorted(set(self.catalog.partition_ids()) - set(live)))
        broadcast = ScatterPlan(
            partition_ids=tuple(live), broadcast=True, nodes=(), degraded=dead
        )
        try:
            path = request.resolve_path(self._executor.instance.spec)
            nodes = tuple(step.node for step in path)
        except QueryError:
            return broadcast
        if request.entire_array is True:
            return replace(broadcast, nodes=nodes)
        pids: list[str] = []
        for node in nodes:
            pid = self.catalog.partition_for_node(node)
            if pid is None:
                return replace(broadcast, nodes=nodes)
            if pid not in pids:
                pids.append(pid)
        return ScatterPlan(
            partition_ids=tuple(pids),
            broadcast=False,
            nodes=nodes,
            degraded=tuple(pid for pid in dead if pid in pids),
        )

    def execute_request(self, request, session=None):
        """Plan, account and run ``request``; the result's ``degraded``
        lists the partitions its answer could not read."""
        plan = self.plan(request)
        self.catalog.record_scatter(plan)
        result = self._executor.execute_request(request, session=session)
        result.degraded = list(plan.degraded)
        return result
