"""Network serving for lineage queries: daemon, client, wire protocol.

The package is a *thin transport* over the engine's canonical query
surface: :class:`~repro.core.query.QueryRequest` in,
:class:`~repro.core.query.QueryResult` (as its versioned ``to_dict`` wire
form) out.  The daemon never reimplements query semantics — it parses the
request, runs it through the same :meth:`SubZero.query
<repro.core.subzero.SubZero.query>` an embedded caller would use, and
serializes the result; :func:`~repro.serving.protocol.canonical_result`
defines which result fields are deterministic, so a networked answer is
testably byte-identical to the in-process one.

Pieces:

* :mod:`repro.serving.protocol` — request/response encoding, error
  envelope, and the canonical (diagnostics-stripped) result form.
* :mod:`repro.serving.daemon` — :class:`QueryDaemon`, a long-lived
  stdlib ``http.server`` daemon owning one engine (and thereby one
  :class:`~repro.storage.partition.PartitionedCatalog`), with bounded admission
  (queue + per-client caps) and explicit 429 backpressure.
* :mod:`repro.serving.client` — :class:`DaemonClient`, a stdlib
  ``http.client`` wrapper with retry-on-connect and typed error mapping.
* :mod:`repro.serving.maintenance` — :class:`MaintenanceWorker`, the
  background budgeted-compaction thread the daemon (and
  ``SubZero.serve``) runs whenever the admission gate is idle.
* :mod:`repro.serving.workers` — :class:`WorkerPool`, a multi-process
  pool for CPU-bound lowering: fork/spawn workers open the same
  read-only mmap segments, sharing the OS page cache while escaping
  the GIL.

Everything is standard library only; the daemon installs nowhere an
offline container cannot follow.
"""

from repro.core.query import (
    REQUEST_SCHEMA_VERSION,
    RESULT_SCHEMA_VERSION,
    QueryRequest,
    QueryResult,
)
from repro.serving.client import DaemonClient
from repro.serving.daemon import AdmissionGate, QueryDaemon, ServingLimits
from repro.serving.maintenance import MaintenanceWorker
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    canonical_result,
    dump_request,
    error_body,
    load_request,
)
from repro.serving.workers import WorkerPool

__all__ = [
    "AdmissionGate",
    "DaemonClient",
    "MaintenanceWorker",
    "PROTOCOL_VERSION",
    "QueryDaemon",
    "QueryRequest",
    "QueryResult",
    "REQUEST_SCHEMA_VERSION",
    "RESULT_SCHEMA_VERSION",
    "ServingLimits",
    "WorkerPool",
    "canonical_result",
    "dump_request",
    "error_body",
    "load_request",
]
