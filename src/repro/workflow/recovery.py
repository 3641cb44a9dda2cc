"""Crash recovery: rebuild a workflow instance from the WAL + version store.

Black-box lineage is exactly "the intermediate results plus the invocation
log" (§V-a); if the process dies after a run, those two artifacts suffice to
reconstruct a queryable :class:`~repro.workflow.instance.WorkflowInstance`
without re-executing anything — operators re-bind to the persisted input
versions and lineage queries (including black-box re-execution) work as
before.

Region-lineage stores are a cache, persisted as checksummed segment files
behind a catalog manifest (:mod:`repro.core.catalog`).  Recovery does not
trust those files blindly: :func:`recover_lineage` verifies every section
checksum against the segment manifests and *quarantines* corrupt segments
(renames them aside and drops them from the catalog) instead of serving
garbage — the lineage they held is rebuildable by re-running the operator,
which is exactly the cache contract (§VI-A).

Generational catalogs are verified *per generation*: a torn delta segment
(interrupted append, bit-flip, or a file a partial delete removed outright
— missing files take the same quarantine path as checksum failures, never
a raw ``FileNotFoundError``) is quarantined alone, and the generations
under it keep serving.  Recovery also sweeps up generation files the
manifest no longer references — the residue of a crash between
compaction's manifest swap and its deferred unlink.

Partitioned catalogs (:mod:`repro.storage.partition`) recover *per
partition*: each live partition's segments are verified exactly like a
monolithic catalog's, and a partition whose own ``catalog.json`` is torn
is quarantined whole — flagged in the root ``partitions.json`` manifest so
later loads skip it — degrading only that partition's nodes while every
other partition keeps serving.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.arrays.versions import VersionStore
from repro.core.catalog import MANIFEST_NAME, StoreCatalog
from repro.errors import StorageError, WorkflowError
from repro.storage.segment import Segment, generation_files
from repro.storage.wal import WriteAheadLog
from repro.workflow.instance import NodeExecution, WorkflowInstance
from repro.workflow.spec import WorkflowSpec

__all__ = ["recover_instance", "recover_lineage", "LineageRecovery"]

#: suffix appended to a corrupt segment file when it is quarantined
QUARANTINE_SUFFIX = ".quarantined"


@dataclass
class LineageRecovery:
    """Outcome of :func:`recover_lineage`: the verified catalog plus what
    had to be set aside."""

    #: the verified :class:`StoreCatalog` — or a
    #: :class:`~repro.storage.partition.PartitionedCatalog` when the
    #: directory held a partitioned root
    catalog: object
    #: ``(segment filename, StorageError)`` per quarantined segment; for a
    #: partitioned catalog the filename is partition-qualified
    #: (``"p1/smooth__full...seg"``), and a partition torn whole reports as
    #: its manifest path (``"p1/catalog.json"``)
    quarantined: list[tuple[str, StorageError]] = field(default_factory=list)
    #: unreferenced generation files swept up (compaction-crash residue)
    removed_stale: list[str] = field(default_factory=list)
    #: partition ids set aside whole (torn child manifest) — empty for a
    #: monolithic catalog
    quarantined_partitions: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.quarantined


def recover_lineage(
    directory: str,
    runtime=None,
    strict: bool = False,
) -> LineageRecovery:
    """Recover a flushed lineage catalog, trusting checksums over bare files.

    Every segment the manifest records — one per store *generation* — is
    opened and checksum-verified section by section.  A segment that fails
    — truncated, bit-flipped, structurally invalid, or missing outright
    (a partially deleted store directory surfaces the same way, never as a
    raw ``FileNotFoundError``) — is *quarantined*: the file, if present, is
    renamed with :data:`QUARANTINE_SUFFIX`, that generation is dropped
    from the catalog, and the failure is reported as
    a :class:`~repro.errors.StorageError` in the result (or raised
    immediately when ``strict=True``).  A torn generation never takes the
    generations under it down: the rest of the key keeps serving, so an
    interrupted append or compaction costs only the delta it was writing.
    Quarantined lineage can be rebuilt by re-running the workflow.

    Generation files no manifest entry references — left behind when a
    crash hit between compaction's manifest swap and its deferred unlink —
    are removed and reported in ``removed_stale``.

    ``runtime`` (a :class:`~repro.core.runtime.LineageRuntime`) is attached
    to the verified catalog when given, so queries resume lazily off the
    surviving segments.

    A partitioned root (``partitions.json``) recovers partition by
    partition: live partitions are verified like monolithic catalogs (their
    quarantined segment names come back partition-qualified), and a
    partition whose child manifest itself fails to open is quarantined
    *whole* — flagged in the root manifest, listed in
    ``quarantined_partitions`` — so only its nodes degrade.
    """
    from repro.storage.partition import PartitionedCatalog, is_partitioned_root

    if is_partitioned_root(directory):
        root = PartitionedCatalog.open(directory)
        quarantined: list[tuple[str, StorageError]] = []
        removed_stale: list[str] = []
        torn: list[str] = []
        for pid, exc in root.degraded:
            error = StorageError(
                f"partition {pid!r} failed to open and was quarantined "
                f"whole: {exc}"
            )
            if strict:
                raise error from exc
            torn.append(pid)
            quarantined.append((f"{pid}/{MANIFEST_NAME}", error))
        for pid in root.partition_ids():
            child = root.partition(pid)
            if child is None:
                continue
            bad, stale = _verify_catalog(child, strict=strict, prefix=f"{pid}/")
            quarantined.extend(bad)
            removed_stale.extend(stale)
        for pid in torn:
            # persist the verdict so later plain load_all calls skip the
            # torn partition instead of re-degrading it on every open
            root.mark_quarantined(pid)
        if runtime is not None:
            runtime.attach_catalog(root)
        return LineageRecovery(
            catalog=root,
            quarantined=quarantined,
            removed_stale=removed_stale,
            quarantined_partitions=torn,
        )

    catalog = StoreCatalog.open(directory)
    quarantined, removed_stale = _verify_catalog(catalog, strict=strict)
    if runtime is not None:
        runtime.attach_catalog(catalog)
    return LineageRecovery(
        catalog=catalog, quarantined=quarantined, removed_stale=removed_stale
    )


def _verify_catalog(
    catalog: StoreCatalog, strict: bool = False, prefix: str = ""
) -> tuple[list[tuple[str, StorageError]], list[str]]:
    """Checksum-verify one catalog's segments, quarantining failures (see
    :func:`recover_lineage`); returns ``(quarantined, removed_stale)`` with
    filenames ``prefix``-qualified for partition-aware reporting."""
    directory = catalog.directory
    quarantined: list[tuple[str, StorageError]] = []
    for entry in catalog.entries():
        path = os.path.join(directory, entry.file)
        try:
            # verify=True checksums every section.  The mapping is closed
            # before any rename: Windows cannot rename a mapped file, so
            # quarantine must not depend on GC timing.  FileNotFoundError
            # (and every other OSError) is caught here so a half-deleted
            # store quarantines exactly like a corrupt one.
            Segment.open(path, verify=True).close()
        except (StorageError, OSError) as exc:
            generation = f", generation {entry.gen}" if entry.gen else ""
            error = StorageError(
                f"lineage segment {prefix + entry.file!r} (store {entry.node!r} / "
                f"{entry.strategy.label}{generation}) failed verification "
                f"and was quarantined: {exc}"
            )
            if strict:
                raise error from exc
            if os.path.exists(path):
                os.replace(path, path + QUARANTINE_SUFFIX)
            catalog.drop_generation(entry.node, entry.strategy, entry.gen)
            quarantined.append((prefix + entry.file, error))
    removed_stale = [
        prefix + name for name in _remove_stale_generations(directory, catalog)
    ]
    if quarantined:
        # persist the quarantine: a later plain load_all must not re-register
        # strategies whose segments were set aside
        catalog.save_manifest()
    return quarantined, removed_stale


def _remove_stale_generations(directory: str, catalog: StoreCatalog) -> list[str]:
    """Delete generation files the manifest does not reference.

    A compaction that crashed after its atomic manifest swap but before the
    deferred unlink leaves fully-merged delta files behind; they are pure
    residue (their lineage lives in the merged base segment), but a later
    append must not trip over their ordinals forever.  Only files carrying
    the ``.gen.`` infix are candidates — base segments are never touched.
    """
    from repro.core.catalog import store_filename

    referenced = {entry.file for entry in catalog.entries()}
    removed: list[str] = []
    for node, strategy in catalog.keys():
        # derive the base path from the key, not from a gen-0 entry: a key
        # whose base generation was itself quarantined must still have its
        # unreferenced delta residue swept
        base_path = os.path.join(directory, store_filename(node, strategy))
        for gen, fpath in sorted(generation_files(base_path).items()):
            if gen == 0 or os.path.basename(fpath) in referenced:
                continue
            try:
                os.remove(fpath)
            except OSError:
                continue
            removed.append(os.path.basename(fpath))
    return removed


def recover_instance(
    spec: WorkflowSpec,
    versions: VersionStore,
    wal: WriteAheadLog,
) -> WorkflowInstance:
    """Reconstruct the most recent execution of ``spec`` from its artifacts.

    Uses the *last* WAL record per node (the most recent run wins, matching
    the no-overwrite version store).  Raises
    :class:`~repro.errors.WorkflowError` when the log references versions
    the store does not hold, or covers only part of the workflow.
    """
    spec.validate()
    # Delta-aware replay: the WAL is append-only and only the newest record
    # per node matters, so scan backwards and stop at the first moment every
    # spec node has been seen.  A long-lived log — many incremental runs,
    # each committing one delta generation — replays O(nodes) records
    # instead of O(history): everything older than the last committed
    # generation of each node is never touched.
    latest = {}
    want = len(spec.nodes)
    for record in reversed(wal.records()):
        if record.node not in latest and record.node in spec.nodes:
            latest[record.node] = record
            if len(latest) == want:
                break

    missing = [name for name in spec.nodes if name not in latest]
    if missing:
        raise WorkflowError(
            f"WAL does not cover nodes {missing}; cannot recover a full instance"
        )

    instance = WorkflowInstance(spec=spec, versions=versions)

    # Source versions: the recorded inputs of nodes that consume sources.
    for name, node in spec.nodes.items():
        record = latest[name]
        if len(record.input_versions) != len(node.inputs):
            raise WorkflowError(
                f"WAL record for {name!r} has {len(record.input_versions)} inputs; "
                f"spec expects {len(node.inputs)}"
            )
        for dep, vid in zip(node.inputs, record.input_versions):
            if vid not in versions:
                raise WorkflowError(
                    f"version {vid} (input of {name!r}) missing from the store"
                )
            if dep in spec.sources:
                instance.source_versions[dep] = vid

    for name in spec.topo_order():
        node = spec.node(name)
        record = latest[name]
        if record.output_version not in versions:
            raise WorkflowError(
                f"output version {record.output_version} of {name!r} missing"
            )
        input_arrays = [versions.get(v).array for v in record.input_versions]
        op = node.operator
        op.bind(tuple(arr.schema for arr in input_arrays))
        produced = versions.get(record.output_version).array
        if produced.shape != op.output_schema.shape:
            raise WorkflowError(
                f"recovered output of {name!r} has shape {produced.shape}; "
                f"operator declares {op.output_schema.shape}"
            )
        instance.executions[name] = NodeExecution(
            node=name,
            operator=op,
            input_versions=tuple(record.input_versions),
            output_version=record.output_version,
        )
    return instance
