"""Outside-in span recorder: times each layer at its public boundary.

Nothing under ``src/`` knows about this file.  ``LAYER_BOUNDARIES`` names,
per layer (a ``repro`` module), the public callables a request crosses on
its way in; :meth:`Tracer.install` resolves each dotted path with
``importlib`` and replaces the attribute with a timing wrapper for the
length of the traced run.  A boundary that no longer resolves is reported
as ``<layer>.missing = 1`` in the per-layer table — a visible gap, not a
crash — and the untraced run never imports this table's targets at all.

A *span* is one call through a boundary: kind, start, end, the span that
was open on the same thread when it began (its parent), and the id of the
end-to-end operation it served.  A span's *self time* is its duration
minus the part its child spans cover.  Three rules decide the operation:

* a span opened under another span inherits that span's operation;
* a span on a thread with no open span (the capture encode worker, a
  compaction pool thread) joins the *ambient* operation — the one the
  single caller thread has open — but is not subtracted from any parent,
  because it runs beside the caller, not inside it;
* a daemon handler thread learns its client from
  ``AdmissionGate.enter(client)`` (the value of the ``X-SubZero-Client``
  header) and from then on parents its spans under that client's open
  ``DaemonClient.query`` span: each client is closed-loop, so it has
  exactly one operation in flight.  Spans the handler recorded before the
  first ``enter`` (the first ``load_request``) are adopted at that point.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import types
from dataclasses import dataclass
from typing import Callable

__all__ = ["Boundary", "LAYER_BOUNDARIES", "PER_LAYER_METRICS", "Tracer"]

_now = time.perf_counter


@dataclass(frozen=True)
class Boundary:
    """One public callable timed from outside."""

    layer: str
    kind: str
    target: str
    #: name of a counter fed by ``measure(result)`` on every call
    counter: str | None = None
    measure: Callable[[object], float] | None = None
    #: "client" publishes the span under the DaemonClient's id, "gate"
    #: binds the handler thread to the client named in the call
    role: str | None = None


LAYER_BOUNDARIES: tuple[Boundary, ...] = (
    # ops / workflow.executor
    Boundary("workflow.executor", "run", "repro.workflow.executor.execute_workflow"),
    Boundary("ops", "run", "repro.ops.base.Operator.run"),
    Boundary("ops", "map_p", "repro.ops.base.Operator.map_p_batch"),
    # core.capture
    Boundary("core.capture", "submit", "repro.core.capture.CapturePipeline.submit"),
    Boundary("core.capture", "drain", "repro.core.capture.CapturePipeline.drain"),
    # core.lineage_store
    Boundary("core.lineage_store", "ingest", "repro.core.lineage_store.OpLineageStore.ingest"),
    Boundary("core.lineage_store", "ingest", "repro.core.lineage_store.OpLineageStore.flush_segment"),
    Boundary("core.lineage_store", "probe", "repro.core.lineage_store.OpLineageStore.backward_full"),
    Boundary("core.lineage_store", "probe", "repro.core.lineage_store.OpLineageStore.forward_full"),
    Boundary("core.lineage_store", "probe", "repro.core.lineage_store.OpLineageStore.backward_payload_rows"),
    Boundary("core.lineage_store", "scan", "repro.core.lineage_store.OpLineageStore.scan_forward_full"),
    Boundary("core.lineage_store", "scan", "repro.core.lineage_store.OpLineageStore.scan_backward_full"),
    Boundary("core.lineage_store", "payload_entries", "repro.core.lineage_store.OpLineageStore.payload_entries"),
    # storage.codecs
    Boundary(
        "storage.codecs", "encode", "repro.storage.codecs.encode_sorted_sets",
        counter="storage.codecs.encoded_bytes", measure=lambda r: float(r[0].size),
    ),
    Boundary("storage.codecs", "batchprobe", "repro.storage.codecs.BatchProbe.contains_any"),
    Boundary("storage.codecs", "batchprobe", "repro.storage.codecs.BatchProbe.intersect"),
    # storage.segment
    Boundary(
        "storage.segment", "write", "repro.storage.segment.SegmentWriter.write",
        counter="storage.segment.write_bytes", measure=float,
    ),
    Boundary("storage.segment", "open", "repro.storage.segment.Segment.open"),
    Boundary("storage.segment", "verify", "repro.storage.segment.Segment.verify"),
    # core.catalog
    Boundary("core.catalog", "write", "repro.core.catalog.StoreCatalog.write"),
    Boundary("core.catalog", "write", "repro.core.catalog.StoreCatalog.append_stores"),
    Boundary("core.catalog", "manifest_swap", "repro.core.catalog.StoreCatalog.save_manifest"),
    Boundary(
        "core.catalog", "compact", "repro.core.catalog.StoreCatalog.compact",
        counter="core.catalog.compact_bytes_rewritten", measure=lambda r: float(r.bytes_written),
    ),
    Boundary("core.catalog", "borrow", "repro.core.catalog.StoreCatalog.borrow"),
    Boundary("core.catalog", "borrow", "repro.core.catalog.StoreCatalog.release"),
    Boundary("core.catalog", "open_store", "repro.core.catalog.StoreCatalog.open_store"),
    # the store-side half of a catalog open (mmap + section table + crc)
    Boundary("core.catalog", "open_store", "repro.core.lineage_store.OpLineageStore.load_segment"),
    # storage.filters / core.overlay
    Boundary("storage.filters", "probe", "repro.storage.filters.GenerationFilter.may_contain"),
    Boundary("core.overlay", "union", "repro.core.overlay.OverlayStore.backward_full"),
    Boundary("core.overlay", "union", "repro.core.overlay.OverlayStore.forward_full"),
    Boundary("core.overlay", "union", "repro.core.overlay.OverlayStore.backward_payload_rows"),
    Boundary("core.overlay", "union", "repro.core.overlay.OverlayStore.scan_forward_full"),
    Boundary("core.overlay", "union", "repro.core.overlay.OverlayStore.scan_backward_full"),
    Boundary("core.overlay", "union", "repro.core.overlay.OverlayStore.payload_entries"),
    # storage.partition
    Boundary("storage.partition", "route", "repro.storage.partition.PartitionedCatalog.borrow"),
    Boundary("storage.partition", "route", "repro.storage.partition.PartitionedCatalog.release"),
    Boundary("storage.partition", "route", "repro.storage.partition.ScatterGatherExecutor.execute_request"),
    # core.query
    Boundary(
        "core.query", "execute", "repro.core.query.QueryExecutor.execute_request",
        counter="core.query.result_cells", measure=lambda r: float(r.count),
    ),
    Boundary("core.query", "session_pin", "repro.core.query.QuerySession.store_for"),
    Boundary("core.query", "request_decode", "repro.core.query.QueryRequest.from_dict"),
    Boundary("core.query", "result_encode", "repro.core.query.QueryResult.to_dict"),
    # serving.*
    Boundary("serving.protocol", "load", "repro.serving.protocol.load_request"),
    Boundary("serving.daemon", "gate_wait", "repro.serving.daemon.AdmissionGate.enter", role="gate"),
    Boundary("serving.daemon", "execute", "repro.serving.daemon.QueryDaemon.execute"),
    Boundary("serving.client", "call", "repro.serving.client.DaemonClient.query", role="client"),
    # a reconnect is the client's only retry; the stdlib call is its boundary
    Boundary("serving.client", "connect", "http.client.HTTPConnection.connect"),
)

#: the root span every end-to-end operation opens; its self time is what
#: no boundary claimed (harness glue plus un-instrumented code)
_ROOT = ("e2e", "op")


def _resolve(target: str):
    """``(owner, attribute name)`` of a dotted public callable."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        getattr(owner, parts[-1])  # AttributeError when the callable is gone
        return owner, parts[-1]
    raise ImportError(target)


def _overriding_subclasses(cls: type, name: str):
    """Every subclass of ``cls`` that defines its own ``name``."""
    seen, stack = set(), list(cls.__subclasses__())
    while stack:
        sub = stack.pop()
        if sub in seen:
            continue
        seen.add(sub)
        stack.extend(sub.__subclasses__())
        if name in sub.__dict__:
            yield sub


class Tracer:
    """Records spans for the boundaries it installed; see module docstring."""

    def __init__(self) -> None:
        self.kinds: list[tuple[str, str]] = [_ROOT]
        #: (kind index, start, end, self seconds, op id, span id, parent span id)
        self.spans: list[tuple] = []
        #: op id -> (class, start, end)
        self.ops: dict[int, tuple] = {}
        #: (counter name, op id) -> sum of the values measured for that op
        self.counters: dict[tuple, float] = {}
        self.missing: set[str] = set()
        self.enabled = False
        self._local = threading.local()
        self._ambient: int | None = None
        #: span and op ids; ``next()`` on a count is atomic under the GIL
        self._ids = itertools.count(1)
        self._client_frames: dict[str, list] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self, boundaries=LAYER_BOUNDARIES) -> None:
        """Wrap every boundary that resolves; note the layers of the rest."""
        explicit = set()
        resolved = []
        for boundary in boundaries:
            try:
                owner, name = _resolve(boundary.target)
            except (ImportError, AttributeError):
                self.missing.add(boundary.layer)
                continue
            explicit.add((owner, name))
            resolved.append((boundary, owner, name))
        for boundary, owner, name in resolved:
            kind = self._kind_index(boundary.layer, boundary.kind)
            owners = [owner]
            if isinstance(owner, type):
                # a base-class boundary also covers the overrides, except
                # those listed as a boundary of their own (the overlay)
                owners += [
                    sub
                    for sub in _overriding_subclasses(owner, name)
                    if (sub, name) not in explicit
                ]
            for target in owners:
                self._patch(target, name, kind, boundary)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _kind_index(self, layer: str, kind: str) -> int:
        key = (layer, kind)
        if key not in self.kinds:
            self.kinds.append(key)
        return self.kinds.index(key)

    def _patch(self, owner, name: str, kind: int, boundary: Boundary) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        rewrap = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            rewrap, fn = type(raw), raw.__func__
        wrapper = self._wrap(fn, kind, boundary)
        self._patched.append((owner, name, raw))
        setattr(owner, name, rewrap(wrapper) if rewrap else wrapper)
        if isinstance(owner, types.ModuleType):
            # ``from module import fn`` copied the function into the
            # importer's namespace; swap those copies too
            package = owner.__name__.split(".")[0]
            for module in list(sys.modules.values()):
                if module is owner or not getattr(module, "__name__", "").startswith(package):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._patched.append((module, alias, raw))
                        setattr(module, alias, wrapper)

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, fn, kind: int, boundary: Boundary):
        tracer = self
        local = self._local
        counter, measure, role = boundary.counter, boundary.measure, boundary.role

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if role == "gate":
                tracer._bind_client(local, args[1])
            parent = stack[-1] if stack else None
            beside = False
            if parent is None:
                client = getattr(local, "client", None)
                if client is not None:
                    parent = tracer._client_frames.get(client)
                else:
                    beside = True
            # frame: [span id, op id, seconds covered by children]
            frame = [
                next(tracer._ids),
                parent[1] if parent is not None else tracer._ambient,
                0.0,
            ]
            if role == "client":
                tracer._client_frames[args[0].client_id] = frame
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                span = (
                    kind, start, end, end - start - frame[2], frame[1], frame[0],
                    parent[0] if parent is not None else None,
                )
                if beside and frame[1] is None:
                    # a handler thread before its first gate.enter
                    orphans = getattr(local, "orphans", None)
                    if orphans is None:
                        orphans = local.orphans = []
                    orphans.append(span)
                else:
                    tracer.spans.append(span)
            if counter is not None:
                key = (counter, frame[1])
                # a float += can lose an update between threads; only the
                # single-caller workloads promise exact counts
                tracer.counters[key] = tracer.counters.get(key, 0.0) + measure(result)
            return result

        return traced

    def _bind_client(self, local, client: str) -> None:
        """First ``gate.enter`` on a handler thread: remember the client and
        adopt the spans recorded before it was known."""
        if getattr(local, "client", None) == client:
            return
        local.client = client
        frame = self._client_frames.get(client)
        for span in getattr(local, "orphans", ()):
            kind, start, end, self_s, _op, span_id, _parent = span
            if frame is not None:
                frame[2] += end - start
                span = (kind, start, end, self_s, frame[1], span_id, frame[0])
            self.spans.append(span)
        local.orphans = []

    # -- operations ----------------------------------------------------------

    def begin_op(self, cls: str, ambient: bool):
        """Open the root span of one end-to-end operation on this thread."""
        if not self.enabled:
            return None
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        op_id = next(self._ids)
        frame = [op_id, op_id, 0.0]
        stack.append(frame)
        if ambient:
            self._ambient = op_id
        return (frame, cls, ambient, _now())

    def end_op(self, token) -> None:
        if token is None:
            return
        end = _now()
        frame, cls, ambient, start = token
        self._local.stack.pop()
        if ambient:
            self._ambient = None
        self.ops[frame[0]] = (cls, start, end)
        self.spans.append((0, start, end, end - start - frame[2], frame[1], frame[0], None))

    # -- aggregation ---------------------------------------------------------

    def table(self) -> dict:
        """Per op class: op count, latency sum, self seconds and call
        counts by ``layer.kind``, and the value counters."""
        classes: dict[str, dict] = {}

        def row_of(op_id):
            op = self.ops.get(op_id)
            return classes.setdefault(
                op[0] if op is not None else "unattributed",
                {"ops": 0, "seconds": 0.0, "layers": {}, "counters": {}},
            )

        for op_id, (_cls, start, end) in self.ops.items():
            row = row_of(op_id)
            row["ops"] += 1
            row["seconds"] += end - start
        for (name, op_id), value in self.counters.items():
            counters = row_of(op_id)["counters"]
            counters[name] = counters.get(name, 0.0) + value
        for kind, _start, _end, self_s, op_id, _span, _parent in self.spans:
            row = row_of(op_id)
            name = "%s.%s" % self.kinds[kind]
            cell = row["layers"].setdefault(name, [0.0, 0])
            cell[0] += self_s
            cell[1] += 1
        return classes



def _self_ms(name: str):
    return lambda t: 1e3 * t.seconds(name) / t.n_ops


def _calls(*names: str):
    return lambda t: sum(t.calls(n) for n in names) / t.n_ops


def _counter(name: str):
    return lambda t: t.counter(name) / t.n_ops


def _stat(name: str, scale: float = 1.0):
    return lambda t: scale * t.stat(name) / t.n_ops


def _ratio(num: str, den: str):
    return lambda t: t.stat(num) / t.stat(den) if t.stat(den) else 0.0


def _per_query(name: str):
    return lambda t: t.stat(name) / t.n_queries if t.n_queries else 0.0


#: name -> (unit, better, value(totals)).  ``totals`` is the
#: :class:`run.LayerTotals` view over the tracer and the engines' own
#: counters; every ``*_ms`` is self time summed over the timed phase and
#: divided by its end-to-end operation count, every count likewise.
PER_LAYER_METRICS: dict[str, tuple] = {
    "ops.run_self_ms": ("ms", "lower", _self_ms("ops.run")),
    "workflow.executor.self_ms": ("ms", "lower", _self_ms("workflow.executor.run")),
    "ops.map_p_self_ms": ("ms", "lower", _self_ms("ops.map_p")),
    "ops.map_p_calls": ("count", "lower", _calls("ops.map_p")),
    "core.capture.foreground_ms": ("ms", "lower", _stat("capture_seconds", 1e3)),
    "core.capture.queue_wait_ms": ("ms", "lower", _self_ms("core.capture.submit")),
    "core.capture.drain_wait_ms": ("ms", "lower", _self_ms("core.capture.drain")),
    "core.capture.encode_thread_ms": ("ms", "lower", _stat("encode_thread_seconds", 1e3)),
    "core.capture.jobs": ("count", "lower", _calls("core.capture.submit")),
    "core.lineage_store.ingest_self_ms": ("ms", "lower", _self_ms("core.lineage_store.ingest")),
    "core.lineage_store.probe_self_ms": ("ms", "lower", _self_ms("core.lineage_store.probe")),
    "core.lineage_store.scan_self_ms": ("ms", "lower", _self_ms("core.lineage_store.scan")),
    "core.lineage_store.payload_entries_self_ms": ("ms", "lower", _self_ms("core.lineage_store.payload_entries")),
    "core.lineage_store.probe_calls": ("count", "lower", _calls("core.lineage_store.probe")),
    "storage.codecs.encode_self_ms": ("ms", "lower", _self_ms("storage.codecs.encode")),
    "storage.codecs.encoded_bytes": ("bytes", "lower", _counter("storage.codecs.encoded_bytes")),
    "storage.codecs.batchprobe_self_ms": ("ms", "lower", _self_ms("storage.codecs.batchprobe")),
    "storage.codecs.batchprobe_calls": ("count", "lower", _calls("storage.codecs.batchprobe")),
    "storage.segment.write_self_ms": ("ms", "lower", _self_ms("storage.segment.write")),
    "storage.segment.write_bytes": ("bytes", "lower", _counter("storage.segment.write_bytes")),
    "storage.segment.open_self_ms": ("ms", "lower", _self_ms("storage.segment.open")),
    "storage.segment.verify_self_ms": ("ms", "lower", _self_ms("storage.segment.verify")),
    "storage.segment.opens": ("count", "lower", _calls("storage.segment.open")),
    "core.catalog.borrow_self_ms": ("ms", "lower", _self_ms("core.catalog.borrow")),
    "core.catalog.open_store_ms": ("ms", "lower", _self_ms("core.catalog.open_store")),
    "core.catalog.hit_ratio": ("ratio", "higher", lambda t: (
        t.stat("hits") / (t.stat("hits") + t.stat("misses"))
        if t.stat("hits") + t.stat("misses") else 0.0
    )),
    "core.catalog.evictions": ("count", "lower", _stat("evictions")),
    "core.catalog.manifest_swap_ms": ("ms", "lower", _self_ms("core.catalog.manifest_swap")),
    "core.catalog.compact_self_ms": ("ms", "lower", _self_ms("core.catalog.compact")),
    "core.catalog.compact_bytes_rewritten": ("bytes", "lower", _counter("core.catalog.compact_bytes_rewritten")),
    "storage.filters.probe_self_ms": ("ms", "lower", _self_ms("storage.filters.probe")),
    "storage.filters.skip_ratio": ("ratio", "higher", _ratio("generations_skipped", "filter_probes")),
    "storage.filters.false_positive_ratio": ("ratio", "lower", _ratio("bloom_fp", "filter_probes")),
    "core.overlay.union_self_ms": ("ms", "lower", _self_ms("core.overlay.union")),
    "core.overlay.generations_probed_per_op": ("count", "lower", lambda t: (
        (t.stat("filter_probes") - t.stat("generations_skipped")) / t.n_queries
        if t.n_queries else 0.0
    )),
    "storage.partition.route_self_ms": ("ms", "lower", _self_ms("storage.partition.route")),
    "storage.partition.partitions_probed_per_op": ("count", "lower", _per_query("partition_probes")),
    "storage.partition.idle_partition_opens": ("count", "lower", _stat("idle_partition_opens")),
    "core.query.execute_self_ms": ("ms", "lower", _self_ms("core.query.execute")),
    "core.query.session_pin_ms": ("ms", "lower", _self_ms("core.query.session_pin")),
    "core.query.request_decode_ms": ("ms", "lower", _self_ms("core.query.request_decode")),
    "core.query.result_encode_ms": ("ms", "lower", _self_ms("core.query.result_encode")),
    "core.query.result_cells_per_op": ("count", "lower", lambda t: (
        t.counter("core.query.result_cells") / t.n_queries if t.n_queries else 0.0
    )),
    "serving.daemon.gate_wait_ms": ("ms", "lower", _self_ms("serving.daemon.gate_wait")),
    "serving.daemon.execute_self_ms": ("ms", "lower", _self_ms("serving.daemon.execute")),
    "serving.daemon.http_overhead_ms": ("ms", "lower", lambda t: 1e3 * (
        t.seconds("serving.client.call") + t.seconds("serving.protocol.load")
        + t.seconds("serving.daemon.gate_wait")
    ) / t.n_ops),
    "serving.daemon.rejected": ("count", "lower", _stat("gate_rejected")),
    "serving.protocol.load_self_ms": ("ms", "lower", _self_ms("serving.protocol.load")),
    "serving.client.call_self_ms": ("ms", "lower", _self_ms("serving.client.call")),
    # connections are opened during warm-up: any connect in the timed phase
    # is the client reconnecting after a failed send
    "serving.client.retries": ("count", "lower", _calls("serving.client.connect")),
}


class LayerTotals:
    """What the ``PER_LAYER_METRICS`` formulas read, over the op classes
    in ``table`` (the workload's own traffic in the timed phase): the
    tracer's self seconds and call counts by ``layer.kind``, its value
    counters, and the counters the engines keep themselves
    (``serving_stats()``).  ``n_ops`` is every operation of those classes,
    ``n_queries`` those that were lineage queries."""

    def __init__(self, table: dict, stats: dict, missing: set, query_classes):
        self._totals: dict[str, list] = {}
        self._counters: dict[str, float] = {}
        for row in table.values():
            for name, (self_s, calls) in row["layers"].items():
                cell = self._totals.setdefault(name, [0.0, 0])
                cell[0] += self_s
                cell[1] += calls
            for name, value in row["counters"].items():
                self._counters[name] = self._counters.get(name, 0.0) + value
        self._stats = stats
        self.missing = missing
        self.n_ops = max(1, sum(row["ops"] for row in table.values()))
        self.n_queries = sum(
            row["ops"] for cls, row in table.items() if cls in query_classes
        )

    def seconds(self, name: str) -> float:
        return self._totals.get(name, (0.0, 0))[0]

    def calls(self, name: str) -> int:
        return self._totals.get(name, (0.0, 0))[1]

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def stat(self, name: str) -> float:
        return self._stats.get(name, 0)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; those of a layer with an unresolved
        boundary read 0 and the layer is flagged ``<layer>.missing``."""
        layers = sorted({b.layer for b in LAYER_BOUNDARIES}, key=len, reverse=True)
        out = {}
        for name, (_unit, _better, value) in PER_LAYER_METRICS.items():
            layer = next(l for l in layers if name.startswith(l + "."))
            out[name] = 0.0 if layer in self.missing else float(value(self))
        return out
