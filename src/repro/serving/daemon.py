"""The lineage query daemon: one engine, many concurrent clients.

:class:`QueryDaemon` wraps a ready :class:`~repro.core.subzero.SubZero`
engine (run, or resumed off a flushed catalog) in a long-lived
``http.server.ThreadingHTTPServer``.  The daemon is a *thin transport*:
every request is parsed into the same :class:`~repro.core.query.QueryRequest`
an embedded caller would build, executed through the same
``engine.query(...)`` path (each request in its own
:class:`~repro.core.query.QuerySession`, so the catalog's 2Q cache shares
one mmap per store across all serving threads), and answered with the
result's versioned ``to_dict`` form.

Backpressure is explicit, never implicit.  :class:`AdmissionGate` bounds
the daemon three ways — concurrent executions (``max_inflight``), waiting
requests beyond those (``max_queue``), and per-client in-flight requests
(``max_per_client``) — and a request that cannot be admitted is refused
*immediately* with HTTP 429 (:class:`~repro.errors.QueueFullError` for
embedded callers).  The daemon therefore holds at most
``max_inflight + max_queue`` requests' worth of buffering no matter how
many clients pile on; memory stays bounded under overload by contract,
not by luck.

Shutdown is clean: ``stop()`` (or ``POST /v1/shutdown``) flips the daemon
to *stopping* — new queries get 503 — then waits for the in-flight and
queued requests to drain before closing the listener, so no admitted
query is ever abandoned mid-execution.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.analysis import lockcheck
from repro.errors import (
    ProtocolError,
    QueryError,
    QueueFullError,
    SubZeroError,
)
from repro.serving import protocol

__all__ = ["AdmissionGate", "QueryDaemon", "ServingLimits"]


@dataclass(frozen=True)
class ServingLimits:
    """Bounds on the daemon's request admission (the backpressure knobs)."""

    #: queries executing concurrently (engine threads actually running)
    max_inflight: int = 8
    #: admitted requests allowed to *wait* for an execution slot beyond the
    #: executing set; arrivals past this are refused with 429, so total
    #: buffered work is hard-capped at ``max_inflight + max_queue``
    max_queue: int = 16
    #: in-flight (waiting + executing) requests per client identity — one
    #: greedy client cannot monopolize the queue
    max_per_client: int = 8
    #: how long an admitted request may wait for an execution slot before
    #: the gate gives up and sheds it (429 with Retry-After)
    queue_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.max_per_client < 1:
            raise ValueError("max_per_client must be >= 1")


class AdmissionGate:
    """Bounded two-stage admission: a waiting line, then execution slots.

    ``enter`` either admits the caller (possibly after waiting for a slot)
    or raises :class:`~repro.errors.QueueFullError` — it never buffers
    beyond the configured bounds.  Every successful ``enter`` must be
    paired with exactly one ``exit`` (the daemon does this in a finally).

    The counters live under one checked lock; the execution slots are a
    semaphore so waiters block *outside* the lock and admissions of other
    clients never queue behind a full gate.
    """

    def __init__(self, limits: ServingLimits):
        self.limits = limits
        self._lock = lockcheck.make_lock("serving.gate")
        self._slots = threading.Semaphore(limits.max_inflight)
        self._waiting = 0
        self._executing = 0
        self._per_client: dict[str, int] = {}
        self._admitted = 0
        self._rejected = 0
        #: set whenever nothing is waiting or executing (shutdown drains on it)
        self._idle = threading.Event()
        self._idle.set()

    def enter(self, client: str) -> None:
        """Admit one request for ``client`` or raise ``QueueFullError``."""
        limits = self.limits
        with self._lock:
            if self._per_client.get(client, 0) >= limits.max_per_client:
                self._rejected += 1
                raise QueueFullError(
                    f"client {client!r} already has "
                    f"{limits.max_per_client} requests in flight"
                )
            if self._waiting >= limits.max_queue:
                self._rejected += 1
                raise QueueFullError(
                    f"request queue is full ({limits.max_queue} waiting)"
                )
            self._waiting += 1
            self._per_client[client] = self._per_client.get(client, 0) + 1
            self._idle.clear()
        # the slot is handed to exit() via the gate's pairing contract
        got = self._slots.acquire(timeout=limits.queue_timeout_seconds)  # szlint: ignore[SZ001] -- released by the paired exit(); timeout path rolls back below
        if not got:
            with self._lock:
                self._waiting -= 1
                self._drop_client_locked(client)
                self._rejected += 1
                self._check_idle_locked()
            raise QueueFullError(
                "no execution slot freed within "
                f"{limits.queue_timeout_seconds:g}s"
            )
        with self._lock:
            self._waiting -= 1
            self._executing += 1
            self._admitted += 1

    def exit(self, client: str) -> None:
        """Return the slot taken by the matching ``enter``."""
        self._slots.release()
        with self._lock:
            self._executing -= 1
            self._drop_client_locked(client)
            self._check_idle_locked()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until nothing is waiting or executing; True when drained."""
        return self._idle.wait(timeout)

    def is_idle(self) -> bool:
        """Non-blocking idleness probe — the background-maintenance worker
        only starts a compaction slice while this is True."""
        return self._idle.is_set()

    def stats(self) -> dict:
        with self._lock:
            return {
                "waiting": self._waiting,
                "executing": self._executing,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "clients": len(self._per_client),
            }

    def _drop_client_locked(self, client: str) -> None:
        count = self._per_client.get(client, 0) - 1
        if count <= 0:
            self._per_client.pop(client, None)
        else:
            self._per_client[client] = count

    def _check_idle_locked(self) -> None:
        if self._waiting == 0 and self._executing == 0:
            self._idle.set()


class _DaemonServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference back to its daemon."""

    #: handler threads must not block interpreter exit
    daemon_threads = True
    #: fast rebinds across back-to-back daemon restarts in tests
    allow_reuse_address = True
    #: backpressure is the admission gate's job (429), not the kernel's:
    #: a connection flood must reach the handlers, not die as SYN-queue
    #: drops/resets against socketserver's default backlog of 5
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], daemon: "QueryDaemon"):
        self.subzero_daemon = daemon
        super().__init__(address, _RequestHandler)


def _content_length(raw: str) -> int:
    """The request body length; :class:`ProtocolError` unless ``raw`` is
    a non-negative integer (``rfile.read(-1)`` would wait for EOF)."""
    try:
        length = int(raw)
    except ValueError:
        length = -1
    if length < 0:
        raise ProtocolError(f"invalid Content-Length {raw!r}")
    return length


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes the protocol's endpoints; one instance per connection."""

    protocol_version = "HTTP/1.1"
    server_version = "subzero-serving/" + str(protocol.PROTOCOL_VERSION)
    #: keep-alive responses must not sit in Nagle's buffer waiting for the
    #: client's delayed ACK — flush each small response segment immediately
    disable_nagle_algorithm = True

    @property
    def daemon(self) -> "QueryDaemon":
        return self.server.subzero_daemon  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging is the caller's business, not stderr's

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/v1/health":
            status = "stopping" if self.daemon.stopping else "serving"
            self._send(200, {"status": status})
        elif self.path == "/v1/stats":
            self._send(200, self.daemon.stats())
        else:
            self._send(
                404, protocol.error_body("ProtocolError", f"no endpoint {self.path!r}")
            )

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/v1/query":
            self._handle_query()
        elif self.path == "/v1/shutdown":
            self.daemon.request_shutdown()
            self._send(202, {"status": "stopping"})
        else:
            self._send(
                404, protocol.error_body("ProtocolError", f"no endpoint {self.path!r}")
            )

    def _handle_query(self) -> None:
        daemon = self.daemon
        if daemon.stopping:
            self._send(
                503, protocol.error_body("ProtocolError", "daemon is shutting down")
            )
            return
        try:
            length = _content_length(self.headers.get("Content-Length", "0"))
        except ProtocolError as exc:
            # the body's extent is unknown, so this connection cannot be
            # re-synchronised: answer, then close it
            self.close_connection = True
            self._send(400, protocol.error_body(type(exc).__name__, str(exc)))
            return
        try:
            request = protocol.load_request(self.rfile.read(length))
        except (ProtocolError, QueryError) as exc:
            self._send(400, protocol.error_body(type(exc).__name__, str(exc)))
            return
        client = self.headers.get("X-SubZero-Client") or self.client_address[0]
        try:
            daemon.gate.enter(client)
        except QueueFullError as exc:
            self._send(
                429,
                protocol.error_body("QueueFullError", str(exc)),
                retry_after=1,
            )
            return
        try:
            result = daemon.execute(request)
        except QueryError as exc:
            self._send(400, protocol.error_body(type(exc).__name__, str(exc)))
            return
        except SubZeroError as exc:
            self._send(500, protocol.error_body(type(exc).__name__, str(exc)))
            return
        finally:
            daemon.gate.exit(client)
        self._send(200, result)

    def _send(self, status: int, obj: dict, retry_after: int | None = None) -> None:
        data = json.dumps(obj).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            if retry_after is not None:
                self.send_header("Retry-After", str(retry_after))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up mid-response; nothing to salvage


class QueryDaemon:
    """A long-lived serving daemon around one query engine.

    ::

        engine = SubZero(spec, memory_budget_bytes=256 << 20)
        engine.resume(versions, wal=wal, lineage_dir="lineage/")
        with QueryDaemon(engine, port=0) as daemon:
            host, port = daemon.address
            ...  # clients connect; daemon.stop() drains and closes

    ``engine`` is anything exposing ``query(QueryRequest) -> QueryResult``
    (the :class:`~repro.core.subzero.SubZero` facade).  When a
    :class:`~repro.serving.workers.WorkerPool` is passed, CPU-bound
    execution is delegated to its processes instead of the serving
    thread, and the HTTP threads only do transport.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: ServingLimits | None = None,
        workers=None,
        maintenance: bool = True,
        maintenance_budget_bytes: int | None = None,
    ):
        self.engine = engine
        self.limits = limits or ServingLimits()
        self.gate = AdmissionGate(self.limits)
        self.workers = workers
        self._server = _DaemonServer((host, port), self)
        self._thread: threading.Thread | None = None
        self._state_lock = lockcheck.make_lock("serving.daemon.state")
        self._stopping = False
        self._stopped = False
        # autonomous LSM maintenance: a single background worker that
        # consumes the engine's compaction_advice() whenever the admission
        # gate is idle, in budgeted slices — zero manual compact() calls
        # in steady state.  Off when the engine has no compaction surface.
        self._maintenance = None
        if maintenance and hasattr(engine, "compaction_advice"):
            from repro.serving.maintenance import (
                DEFAULT_BUDGET_BYTES,
                MaintenanceWorker,
            )

            self._maintenance = MaintenanceWorker(
                engine,
                is_idle=self.gate.is_idle,
                stats=getattr(engine, "stats", None),
                budget_bytes=(
                    maintenance_budget_bytes
                    if maintenance_budget_bytes is not None
                    else DEFAULT_BUDGET_BYTES
                ),
            )

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves at bind time)."""
        host, port = self._server.server_address[:2]
        return (host, port)

    @property
    def stopping(self) -> bool:
        return self._stopping

    def start(self) -> "QueryDaemon":
        """Start serving on a background thread; returns self."""
        thread = threading.Thread(
            target=self._server.serve_forever,
            name="subzero-daemon",
            daemon=True,
        )
        self._thread = thread
        thread.start()
        if self._maintenance is not None:
            self._maintenance.start()
        return self

    def request_shutdown(self) -> None:
        """Begin a clean stop without blocking the calling (handler) thread."""
        threading.Thread(
            target=self.stop, name="subzero-daemon-stop", daemon=True
        ).start()

    def stop(self, drain_timeout: float | None = 30.0) -> None:
        """Stop serving: refuse new queries, drain in-flight ones, stop
        maintenance, close.

        Idempotent.  Requests already admitted when the stop begins run to
        completion (bounded by ``drain_timeout``); requests arriving after
        it get 503.  The maintenance worker is joined *after* the drain —
        an active budgeted compaction slice finishes (per-key compaction
        has no safe midpoint) — and *before* the sockets close; a failure
        it captured is re-raised exactly once, after the server is down,
        so shutdown always completes.
        """
        with self._state_lock:
            if self._stopped:
                return
            self._stopping = True
            self._stopped = True
        self.gate.drain(drain_timeout)
        maintenance_error: BaseException | None = None
        if self._maintenance is not None:
            try:
                self._maintenance.stop()
            except BaseException as exc:  # noqa: BLE001 -- re-raised below, once
                maintenance_error = exc
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if maintenance_error is not None:
            raise maintenance_error

    def __enter__(self) -> "QueryDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- execution -----------------------------------------------------------

    def execute(self, request) -> dict:
        """Run one admitted request; returns the wire-form result dict."""
        if self.workers is not None:
            return self.workers.query_dict(request.to_dict())
        return self.engine.query(request).to_dict()

    def stats(self) -> dict:
        """Gate + serving-cache counters (the ``/v1/stats`` payload)."""
        payload = {
            "protocol": protocol.PROTOCOL_VERSION,
            "stopping": self._stopping,
            "gate": self.gate.stats(),
        }
        runtime = getattr(self.engine, "runtime", None)
        if runtime is not None:
            payload["cache"] = runtime.serving_stats()
        return payload
