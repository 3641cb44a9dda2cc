"""Client for the serving daemon (stdlib ``http.client`` only).

:class:`DaemonClient` speaks the protocol of :mod:`repro.serving.protocol`
and maps the daemon's HTTP statuses back onto the library's exception
hierarchy, so a networked caller handles failures exactly like an embedded
one: 429 raises :class:`~repro.errors.QueueFullError`, 400 raises
:class:`~repro.errors.QueryError`, everything else unexpected raises
:class:`~repro.errors.ProtocolError`.

Connections are pooled: each thread keeps one ``HTTPConnection`` alive
across calls (the daemon speaks HTTP/1.1 keep-alive), so a query costs one
round-trip, not a TCP handshake plus a round-trip.  Connection
establishment retries with linear backoff (a daemon that is still binding
its socket looks like ``ConnectionRefusedError`` for a few milliseconds).
A *reused* connection whose socket went stale (the daemon timed it out
between calls) fails at send time before any bytes reach the server — that
one case reconnects and re-sends, exactly once.  Errors after the request
reached the wire are never retried — the daemon may have executed the
query, and blind re-send would double side effects and load.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

from repro.analysis import lockcheck
from repro.core.query import QueryRequest
from repro.errors import ProtocolError, QueryError, QueueFullError
from repro.serving import protocol

__all__ = ["DaemonClient"]


class DaemonClient:
    """One daemon endpoint, many calls; safe to share across threads
    (each thread pools its own keep-alive connection — the daemon's
    admission gate, not client-side pooling, is the concurrency control)."""

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str | None = None,
        timeout: float = 60.0,
        connect_retries: int = 40,
        connect_delay: float = 0.05,
        keep_alive: bool = True,
    ):
        self.host = host
        self.port = port
        #: identity the daemon's per-client in-flight cap is keyed on;
        #: defaults to the remote address when unset
        self.client_id = client_id
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.connect_delay = connect_delay
        #: False opens a fresh connection per call (the pre-pooling
        #: behaviour; tests/test_daemon.py counts the difference)
        self.keep_alive = keep_alive
        self._local = threading.local()
        #: every pooled connection across threads, so close() can drop the
        #: lot — a thread whose pooled socket was closed under it just
        #: reconnects via the stale-socket path on its next call
        self._pooled: set[http.client.HTTPConnection] = set()
        self._pooled_lock = lockcheck.make_lock("serving.client.pool")

    # -- protocol calls ------------------------------------------------------

    def query(self, request: QueryRequest) -> dict:
        """Execute one request; returns the wire-form result dict
        (``QueryResult.to_dict()`` schema — see docs/serving.md)."""
        status, obj = self._call("POST", "/v1/query", protocol.dump_request(request))
        if status == 200:
            return obj
        self._raise_for(status, obj)

    def health(self) -> dict:
        status, obj = self._call("GET", "/v1/health")
        if status != 200:
            self._raise_for(status, obj)
        return obj

    def stats(self) -> dict:
        status, obj = self._call("GET", "/v1/stats")
        if status != 200:
            self._raise_for(status, obj)
        return obj

    def shutdown(self) -> None:
        """Ask the daemon to stop (it drains in-flight queries first)."""
        status, obj = self._call("POST", "/v1/shutdown", b"")
        if status != 202:
            self._raise_for(status, obj)

    def wait_ready(self, timeout: float = 5.0) -> None:
        """Block until the daemon answers ``/v1/health`` (startup races)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.health()
                return
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(self.connect_delay)

    # -- transport -----------------------------------------------------------

    def close(self) -> None:
        """Close every pooled connection (all threads).  The client stays
        usable: the next call simply opens a fresh connection."""
        if getattr(self._local, "conn", None) is not None:
            self._local.conn = None
        with self._pooled_lock:
            conns, self._pooled = list(self._pooled), set()
        for conn in conns:
            conn.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _checkout(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's pooled connection (reused=True) or a fresh one."""
        if self.keep_alive:
            conn = getattr(self._local, "conn", None)
            if conn is not None:
                return conn, True
        return self._connect(), False

    def _discard(self, conn: http.client.HTTPConnection) -> None:
        if getattr(self._local, "conn", None) is conn:
            self._local.conn = None
        with self._pooled_lock:
            self._pooled.discard(conn)
        conn.close()

    def _checkin(self, conn: http.client.HTTPConnection, response) -> None:
        """Pool the connection for the next call unless the response closed
        it (``Connection: close``, or keep-alive disabled)."""
        if self.keep_alive and not response.will_close:
            self._local.conn = conn
            with self._pooled_lock:
                self._pooled.add(conn)
        else:
            self._discard(conn)

    def _call(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"}
        if self.client_id is not None:
            headers["X-SubZero-Client"] = self.client_id
        conn, reused = self._checkout()
        try:
            conn.request(method, path, body=body, headers=headers)
        except (ConnectionError, http.client.CannotSendRequest, OSError):
            # Failure at send time: nothing reached the daemon.  On a
            # reused connection this is the stale keep-alive socket case
            # (the daemon idled it out between calls) — reconnect and
            # re-send, exactly once.  A fresh connection failing here is a
            # real error.  Failures after getresponse() began are NEVER
            # retried: the daemon may have executed the query.
            self._discard(conn)
            if not reused:
                raise
            conn, _ = self._connect(), False
            try:
                conn.request(method, path, body=body, headers=headers)
            except BaseException:
                self._discard(conn)
                raise
        try:
            response = conn.getresponse()
            data = response.read()
        except BaseException:
            self._discard(conn)
            raise
        self._checkin(conn, response)
        try:
            obj = json.loads(data) if data else {}
        except ValueError as exc:
            raise ProtocolError(
                f"daemon returned non-JSON body for {method} {path}: {exc}"
            ) from exc
        return response.status, obj

    def _connect(self) -> http.client.HTTPConnection:
        """Open a connection, retrying refusals while the daemon binds."""
        last: OSError | None = None
        for attempt in range(self.connect_retries + 1):
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                conn.connect()
                # http.client writes headers and body as separate segments;
                # on a reused keep-alive socket Nagle holds the second one
                # for the server's delayed ACK (~40ms/query) — disable it
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return conn
            except ConnectionRefusedError as exc:
                conn.close()
                last = exc
                if attempt < self.connect_retries:
                    time.sleep(self.connect_delay)
        raise ConnectionRefusedError(
            f"daemon at {self.host}:{self.port} refused "
            f"{self.connect_retries + 1} connection attempts"
        ) from last

    @staticmethod
    def _raise_for(status: int, obj: dict) -> None:
        error = obj.get("error", {}) if isinstance(obj, dict) else {}
        message = error.get("message", f"daemon returned HTTP {status}")
        if status == 429:
            raise QueueFullError(message)
        if status == 400:
            raise QueryError(message)
        raise ProtocolError(f"HTTP {status}: {message}")
