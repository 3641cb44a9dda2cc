"""Wire protocol shared by the serving daemon and its client.

The protocol is deliberately thin: a query request is exactly
``QueryRequest.to_dict()`` as a JSON object (schema ``subzero.request``
v1, see :data:`repro.core.query.REQUEST_SCHEMA_VERSION`), and a success
response is exactly ``QueryResult.to_dict()`` (schema ``subzero.result``
v1).  Nothing is invented at the transport layer, so an embedded caller
and a networked caller are provably issuing — and receiving — the same
objects.

Errors travel as a JSON envelope ``{"error": {"type", "message"}}`` with
the HTTP status carrying the class of failure:

======  =======================================================
status  meaning
======  =======================================================
200     success; body is the result object
400     malformed or invalid request (``ProtocolError`` /
        ``QueryError``)
404     unknown endpoint
429     backpressure: the admission gate refused the request
        (``QueueFullError``); retry after ``Retry-After`` seconds
500     the engine failed executing a well-formed request
503     the daemon is shutting down; do not retry against it
======  =======================================================

:func:`canonical_result` defines the *deterministic* projection of a
result — the fields that must be identical between an in-process
execution and a daemon-served one (everything except wall-clock
``seconds`` and the ``cache`` snapshot).  Equivalence tests and the
serving bench compare canonical forms, never raw responses.
"""

from __future__ import annotations

import json

from repro.core.query import QueryRequest
from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "canonical_result",
    "dump_request",
    "error_body",
    "load_request",
]

#: version of the HTTP surface (URL layout + envelope), independent of the
#: request/result schema versions stamped inside the payloads
PROTOCOL_VERSION = 1


def dump_request(request: QueryRequest) -> bytes:
    """Encode a request for the wire (UTF-8 JSON of its dict form)."""
    return json.dumps(request.to_dict()).encode("utf-8")


def load_request(data: bytes) -> QueryRequest:
    """Decode a wire request; :class:`ProtocolError` on non-JSON bodies,
    :class:`~repro.errors.QueryError` on structurally invalid requests."""
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    return QueryRequest.from_dict(obj)


def error_body(kind: str, message: str) -> dict:
    """The error envelope: ``kind`` is the exception class name the client
    should re-raise (``QueryError``, ``QueueFullError``, ...)."""
    return {"error": {"type": kind, "message": message}}


#: per-step fields that are run diagnostics, not query semantics
_STEP_DIAGNOSTICS = ("seconds",)


def canonical_result(obj: dict) -> dict:
    """The deterministic projection of a ``QueryResult.to_dict()`` payload.

    Strips wall-clock timings and the serving-cache snapshot — everything
    that legitimately differs between two executions of the same request —
    leaving the fields that must match exactly: schema version, frontier
    shape, cell count, coordinates (row-major scan order), the degraded
    partition ids, and the structural per-step fields (node, direction,
    method, cell counts, blackbox switches, shortcuts, dropped cells).

    ``canonical_result(daemon_response) == canonical_result(local.to_dict())``
    is the daemon's correctness contract.
    """
    try:
        steps = [
            {k: v for k, v in step.items() if k not in _STEP_DIAGNOSTICS}
            for step in obj.get("steps", ())
        ]
        return {
            "v": obj["v"],
            "shape": list(obj["shape"]),
            "count": int(obj["count"]),
            "coords": [list(c) for c in obj["coords"]],
            "degraded": sorted(str(pid) for pid in obj.get("degraded", ())),
            "steps": steps,
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed query result payload: {exc}") from exc
