"""The serving daemon, its client, the 2Q cache, and the request surface.

Five layers under test:

* **wire equivalence** — N concurrent network clients receive results
  byte-identical (canonical projection) to in-process ``sz.query`` for the
  same :class:`QueryRequest`, under a memory budget small enough to force
  cache churn while serving.
* **backpressure** — the admission gate refuses overload *explicitly*
  (HTTP 429 / ``QueueFullError``): a flooded daemon sheds requests
  instead of buffering them, one client cannot exceed its in-flight cap,
  and the waiting line never grows past ``max_queue``.
* **lifecycle** — clean shutdown drains admitted queries before the
  listener closes; queries arriving during the drain get 503; the client
  retries refused connections while a daemon is still binding.
* **2Q cache** — a second touch promotes a store out of probation, a
  one-off scan evicts only its own probationary admissions (the hot
  store survives), and the ghost queue re-admits a recently evicted key
  straight to the protected tier.
* **request surface** — a Hypothesis property: request -> dict -> JSON ->
  request round-trips exactly and executes identically; a second one feeds
  ``QueryRequest.from_dict`` arbitrary JSON and accepts only a request or a
  ``QueryError``; malformed bodies and ``Content-Length`` headers, cells
  that do not fit the start array, non-integer coordinates and
  unresolvable endpoints get a 400 envelope and the daemon keeps serving.
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    FULL_MANY_B,
    FULL_ONE_B,
    PAY_ONE_B,
    QueryRequest,
    SciArray,
    SubZero,
    WorkflowSpec,
)
from repro.arrays.versions import VersionStore
from repro.core.catalog import StoreCatalog
from repro.errors import ProtocolError, QueryError, QueueFullError
from repro.serving import (
    DaemonClient,
    QueryDaemon,
    ServingLimits,
    WorkerPool,
    canonical_result,
)
from repro.serving.protocol import load_request
from tests.conftest import SpotUDF

JOIN_TIMEOUT = 120  # seconds before a hung worker counts as a deadlock
SHAPE = (24, 28)


# -- workload ------------------------------------------------------------------


def _daemon_spec() -> WorkflowSpec:
    spec = WorkflowSpec(name="daemon")
    spec.add_source("img")
    spec.add_node("s1", SpotUDF(thresh=0.55, radius=1), ["img"])
    spec.add_node("s2", SpotUDF(thresh=0.5, radius=2), ["s1"])
    spec.add_node("s3", SpotUDF(thresh=0.5, radius=1), ["s2"])
    return spec


def _requests(rng) -> list[QueryRequest]:
    """Mixed backward/forward, path and endpoint forms, over all stores."""
    requests = []
    for _ in range(2):
        cells = [tuple(int(v) for v in c) for c in rng.integers(0, min(SHAPE), size=(5, 2))]
        requests.extend(
            [
                QueryRequest.backward(cells, ["s1"]),
                QueryRequest.backward(cells, ["s2", "s1"]),
                QueryRequest.backward(cells, ["s3", "s2"]),
                QueryRequest.forward(cells, ["s1", "s2"]),
                QueryRequest.forward(cells, ["s3"]),
                QueryRequest.backward(cells, start="s3", end="img"),
                QueryRequest.forward(cells, start="img", end="s2"),
            ]
        )
    return requests


@pytest.fixture(scope="module")
def flushed(tmp_path_factory):
    """Run the workflow once, flush it, and precompute the canonical
    in-process answer for every request in the shared workload."""
    rng = np.random.default_rng(11)
    image = SciArray.from_numpy(rng.random(SHAPE))
    versions = VersionStore()
    sz = SubZero(_daemon_spec(), enable_query_opt=False)
    sz.set_strategy("s1", FULL_ONE_B)
    sz.set_strategy("s2", FULL_MANY_B)
    sz.set_strategy("s3", PAY_ONE_B)
    sz.run({"img": image}, version_store=versions)
    lineage_dir = str(tmp_path_factory.mktemp("daemon-lineage"))
    sz.flush_lineage(lineage_dir)
    requests = _requests(np.random.default_rng(5))
    baseline = [canonical_result(sz.query(r).to_dict()) for r in requests]
    return {
        "versions": versions,
        "wal": sz.wal,
        "dir": lineage_dir,
        "requests": requests,
        "baseline": baseline,
    }


def _resume_engine(flushed, memory_budget_bytes=None) -> SubZero:
    sz = SubZero(
        _daemon_spec(),
        enable_query_opt=False,
        memory_budget_bytes=memory_budget_bytes,
    )
    sz.resume(flushed["versions"], wal=flushed["wal"], lineage_dir=flushed["dir"])
    return sz


class _BlockingEngine:
    """Engine wrapper whose queries park until the test releases them."""

    def __init__(self, inner: SubZero):
        self.inner = inner
        self.release = threading.Event()

    def query(self, request):
        assert self.release.wait(JOIN_TIMEOUT), "blocking engine never released"
        return self.inner.query(request)


def _poll(predicate, timeout: float = 10.0, what: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


# -- wire equivalence ----------------------------------------------------------


@pytest.mark.timeout(300)
class TestDaemonEquivalence:
    def test_eight_clients_match_in_process_under_budget(self, flushed):
        """8 concurrent network clients, cache churn forced by a budget
        sized for roughly one store: every response's canonical form must
        equal the in-process baseline."""
        catalog = StoreCatalog.open(flushed["dir"])
        budget = max(e.nbytes for e in catalog.entries()) + 1
        requests, baseline = flushed["requests"], flushed["baseline"]
        with _resume_engine(flushed, memory_budget_bytes=budget) as sz:
            with QueryDaemon(sz, port=0) as daemon:
                host, port = daemon.address
                failures: list[str] = []

                def client_run(cid: int) -> None:
                    client = DaemonClient(host, port, client_id=f"c{cid}")
                    order = np.random.default_rng(cid).permutation(len(requests))
                    for j in order:
                        got = canonical_result(client.query(requests[j]))
                        if got != baseline[j]:
                            failures.append(f"client {cid} request {j} diverged")
                            return

                threads = [
                    threading.Thread(target=client_run, args=(cid,), daemon=True)
                    for cid in range(8)
                ]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + JOIN_TIMEOUT
                for t in threads:
                    t.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not any(t.is_alive() for t in threads), "daemon serving hung"
                assert not failures, failures[0]
                stats = daemon.stats()
                assert stats["gate"]["admitted"] == 8 * len(requests)
                assert stats["gate"]["rejected"] == 0
                assert stats["cache"]["evictions"] > 0  # the budget did bite

    def test_health_stats_and_unknown_endpoint(self, flushed):
        with _resume_engine(flushed) as sz:
            with QueryDaemon(sz, port=0) as daemon:
                client = DaemonClient(*daemon.address)
                client.wait_ready()
                assert client.health() == {"status": "serving"}
                stats = client.stats()
                assert stats["gate"]["waiting"] == 0
                assert "cache" in stats
                status, body = client._call("GET", "/v1/nope")
                assert status == 404 and "error" in body

    def test_client_without_keep_alive_pools_nothing(self, flushed):
        with _resume_engine(flushed) as sz:
            with QueryDaemon(sz, port=0) as daemon:
                with DaemonClient(*daemon.address, keep_alive=False) as client:
                    client.wait_ready()
                    assert client.health() == {"status": "serving"}
                    assert client._pooled == set()

    def test_malformed_and_invalid_requests_get_400(self, flushed):
        with _resume_engine(flushed) as sz:
            with QueryDaemon(sz, port=0) as daemon:
                client = DaemonClient(*daemon.address)
                client.wait_ready()
                status, body = client._call("POST", "/v1/query", b"{not json")
                assert status == 400 and body["error"]["type"] == "ProtocolError"
                bad = json.dumps(
                    {"direction": "sideways", "cells": [[1, 1]], "path": [["s1", 0]]}
                ).encode()
                status, body = client._call("POST", "/v1/query", bad)
                assert status == 400 and body["error"]["type"] == "QueryError"
                # a well-formed request over an unknown node: engine-level 400
                with pytest.raises(QueryError):
                    client.query(QueryRequest.backward([(1, 1)], ["nonesuch"]))

    @pytest.mark.parametrize(
        "body, message",
        [
            # a cell beyond int64 (used to escape as a raw OverflowError)
            ({"direction": "backward", "cells": [[2**70, 2]], "path": [["s1", 0]]}, ""),
            # a non-string endpoint (used to die as an unhashable TypeError)
            (
                {"direction": "backward", "cells": [[1, 2]], "start": ["x"], "end": "img"},
                "",
            ),
            # cells that do not fit the start array (used to be a 500
            # CoordinateError from the executor)
            (
                {"direction": "backward", "cells": [[100, 100]], "path": [["s1", 0]]},
                "do not fit",
            ),
            (
                {"direction": "backward", "cells": [[1, 2, 3]], "path": [["s1", 0]]},
                "do not fit",
            ),
            # an endpoint that does not resolve (used to be a 500
            # WorkflowError naming the wrong field for forward requests)
            (
                {"direction": "forward", "cells": [[1, 2]], "start": "img", "end": "nope"},
                "unknown end node 'nope'",
            ),
            # non-integer coordinates (used to be truncated to cell (1, 2))
            (
                {"direction": "backward", "cells": [[1.7, 2]], "path": [["s1", 0]]},
                "must be an integer",
            ),
            (
                {"direction": "backward", "cells": [[True, 2]], "path": [["s1", 0]]},
                "must be an integer",
            ),
            (
                {"direction": "backward", "cells": [["3", 2]], "path": [["s1", 0]]},
                "must be an integer",
            ),
        ],
        ids=[
            "cell-beyond-int64",
            "non-string-start",
            "cell-out-of-bounds",
            "cell-wrong-dimension",
            "unknown-endpoint",
            "fractional-coordinate",
            "bool-coordinate",
            "string-coordinate",
        ],
    )
    def test_invalid_request_values_get_400_and_daemon_keeps_serving(
        self, flushed, body, message
    ):
        with _resume_engine(flushed) as sz:
            with QueryDaemon(sz, port=0) as daemon:
                client = DaemonClient(*daemon.address)
                client.wait_ready()
                status, reply = client._call("POST", "/v1/query", json.dumps(body).encode())
                assert status == 400 and reply["error"]["type"] == "QueryError"
                assert message in reply["error"]["message"]
                request = flushed["requests"][0]
                assert canonical_result(client.query(request)) == flushed["baseline"][0]

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_gets_400_and_daemon_keeps_serving(
        self, flushed, length
    ):
        """An unparseable or negative Content-Length is a 400 ProtocolError
        on a closed connection — not a dropped socket, and never a read
        that waits for the client to hang up."""
        with _resume_engine(flushed) as sz:
            with QueryDaemon(sz, port=0) as daemon:
                host, port = daemon.address
                client = DaemonClient(host, port)
                client.wait_ready()
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.putrequest("POST", "/v1/query")
                    conn.putheader("Content-Length", length)
                    conn.endheaders(b"{}")
                    response = conn.getresponse()
                    reply = json.loads(response.read())
                    assert response.status == 400
                    assert reply["error"]["type"] == "ProtocolError"
                    assert response.getheader("Connection") == "close"
                finally:
                    conn.close()
                request = flushed["requests"][0]
                assert canonical_result(client.query(request)) == flushed["baseline"][0]


# -- backpressure --------------------------------------------------------------


@pytest.mark.timeout(300)
class TestBackpressure:
    def test_flood_sheds_load_with_429(self, flushed):
        """A daemon with one execution slot and a one-deep queue refuses
        the rest of a 12-request flood instead of buffering it."""
        with _resume_engine(flushed) as sz:
            blocking = _BlockingEngine(sz)
            limits = ServingLimits(
                max_inflight=1,
                max_queue=1,
                max_per_client=64,
                queue_timeout_seconds=0.2,
            )
            request = flushed["requests"][0]
            with QueryDaemon(blocking, port=0, limits=limits) as daemon:
                host, port = daemon.address
                outcomes: list[str] = []
                lock = threading.Lock()  # szlint: ignore[SZ005] -- test-local counter lock, not engine state

                def hit() -> None:
                    client = DaemonClient(host, port, client_id="flood")
                    try:
                        client.query(request)
                        with lock:
                            outcomes.append("ok")
                    except QueueFullError:
                        with lock:
                            outcomes.append("shed")

                threads = [threading.Thread(target=hit, daemon=True) for _ in range(12)]
                for t in threads:
                    t.start()
                # while the flood is parked, the waiting line stays bounded
                _poll(
                    lambda: daemon.gate.stats()["executing"] == 1,
                    what="first query to start executing",
                )
                assert daemon.gate.stats()["waiting"] <= limits.max_queue
                blocking.release.set()
                deadline = time.monotonic() + JOIN_TIMEOUT
                for t in threads:
                    t.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not any(t.is_alive() for t in threads), "flood hung"
                assert "ok" in outcomes, "nothing was served under overload"
                assert "shed" in outcomes, "overload was buffered, not shed"
                # every client-side QueueFullError is an explicit gate
                # rejection — shed load, not dropped or buffered load
                assert daemon.gate.stats()["rejected"] == outcomes.count("shed")

    def test_per_client_inflight_cap(self, flushed):
        """One greedy client identity cannot hold more than its cap."""
        with _resume_engine(flushed) as sz:
            blocking = _BlockingEngine(sz)
            limits = ServingLimits(max_inflight=4, max_queue=4, max_per_client=1)
            request = flushed["requests"][0]
            with QueryDaemon(blocking, port=0, limits=limits) as daemon:
                host, port = daemon.address
                first_result: list = []

                def first() -> None:
                    client = DaemonClient(host, port, client_id="greedy")
                    first_result.append(client.query(request))

                t = threading.Thread(target=first, daemon=True)
                t.start()
                _poll(
                    lambda: daemon.gate.stats()["executing"] == 1,
                    what="first query to occupy the client's slot",
                )
                same = DaemonClient(host, port, client_id="greedy")
                with pytest.raises(QueueFullError):
                    same.query(request)
                # a different identity is admitted fine
                other = DaemonClient(host, port, client_id="patient")
                done = threading.Event()

                def second() -> None:
                    other.query(request)
                    done.set()

                t2 = threading.Thread(target=second, daemon=True)
                t2.start()
                _poll(
                    lambda: daemon.gate.stats()["executing"] == 2,
                    what="second client to be admitted",
                )
                blocking.release.set()
                t.join(JOIN_TIMEOUT)
                assert done.wait(JOIN_TIMEOUT) and first_result
                t2.join(JOIN_TIMEOUT)


# -- lifecycle -----------------------------------------------------------------


@pytest.mark.timeout(300)
class TestLifecycle:
    def test_clean_shutdown_drains_inflight(self, flushed):
        """A query admitted before shutdown completes with 200; queries
        arriving during the drain get 503; the listener then closes."""
        with _resume_engine(flushed) as sz:
            blocking = _BlockingEngine(sz)
            request = flushed["requests"][0]
            expected = canonical_result(sz.query(request).to_dict())
            daemon = QueryDaemon(blocking, port=0).start()
            host, port = daemon.address
            inflight_result: list = []

            def inflight() -> None:
                client = DaemonClient(host, port, client_id="inflight")
                inflight_result.append(client.query(request))

            t = threading.Thread(target=inflight, daemon=True)
            t.start()
            _poll(
                lambda: daemon.gate.stats()["executing"] == 1,
                what="in-flight query to start",
            )
            DaemonClient(host, port).shutdown()
            _poll(lambda: daemon.stopping, what="daemon to enter stopping state")
            late = DaemonClient(host, port, client_id="late")
            with pytest.raises(ProtocolError, match="503|shutting down"):
                late.query(request)
            blocking.release.set()
            t.join(JOIN_TIMEOUT)
            assert not t.is_alive(), "in-flight query abandoned by shutdown"
            assert inflight_result, "admitted query did not complete"
            assert canonical_result(inflight_result[0]) == expected
            # the drain finished: the listener is (or is about to be) closed
            def refused() -> bool:
                try:
                    DaemonClient(host, port, connect_retries=0).health()
                    return False
                except OSError:
                    return True
                except ProtocolError:
                    return True

            _poll(refused, what="listener to close after drain")
            daemon.stop()  # idempotent

    def test_client_retries_while_daemon_binds(self, flushed):
        """A client started before the daemon connects once it is up."""
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with _resume_engine(flushed) as sz:
            started: list[QueryDaemon] = []

            def late_start() -> None:
                time.sleep(0.25)
                started.append(QueryDaemon(sz, port=port).start())

            t = threading.Thread(target=late_start, daemon=True)
            t.start()
            try:
                client = DaemonClient(
                    "127.0.0.1", port, connect_retries=200, connect_delay=0.025
                )
                assert client.health() == {"status": "serving"}
            finally:
                t.join(JOIN_TIMEOUT)
                for daemon in started:
                    daemon.stop()

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            ServingLimits(max_inflight=0)
        with pytest.raises(ValueError):
            ServingLimits(max_queue=-1)
        with pytest.raises(ValueError):
            ServingLimits(max_per_client=0)


# -- the 2Q cache --------------------------------------------------------------


class Test2QCache:
    def test_promotion_on_second_touch(self, flushed):
        catalog = StoreCatalog.open(flushed["dir"])
        key = catalog.keys()[0]
        record = catalog.borrow(*key)
        assert record.tier == "probation"  # first touch
        catalog.release(record)
        again = catalog.borrow(*key)
        assert again is record and record.tier == "protected"
        catalog.release(again)
        stats = catalog.stats()
        assert stats["promotions"] == 1
        assert stats["ghost_hits"] == 0
        catalog.close()

    def test_scan_does_not_evict_hot_store(self, flushed):
        """The tentpole property: with the budget one eviction short of
        everything, a one-off scan over the cold stores evicts its own
        probationary admission — never the re-referenced (hot) store,
        which plain LRU would have victimized as least-recently-used."""
        catalog = StoreCatalog.open(flushed["dir"])
        keys = catalog.keys()
        assert len(keys) == 3
        hot, cold1, cold2 = keys
        catalog.memory_budget_bytes = sum(e.nbytes for e in catalog.entries()) - 1
        catalog.open_store(*hot)
        catalog.open_store(*hot)  # second touch: promoted to protected
        catalog.open_store(*cold1)  # the scan begins (probation)
        catalog.open_store(*cold2)  # over budget -> evict probation FIFO
        assert catalog.is_open(*hot), "scan evicted the hot store"
        assert not catalog.is_open(*cold1), "expected the scan's own admission out"
        assert catalog.is_open(*cold2)
        stats = catalog.stats()
        assert stats["promotions"] == 1
        assert stats["evictions"] == 1
        catalog.close()

    def test_ghost_readmits_to_protected(self, flushed):
        """A key that bounces back shortly after eviction was evidently
        re-referenced: the ghost admits it straight to protected."""
        catalog = StoreCatalog.open(flushed["dir"])
        keys = catalog.keys()
        hot, cold1, cold2 = keys
        catalog.memory_budget_bytes = sum(e.nbytes for e in catalog.entries()) - 1
        catalog.open_store(*hot)
        catalog.open_store(*hot)
        catalog.open_store(*cold1)
        catalog.open_store(*cold2)  # evicts cold1 (probation FIFO)
        catalog.open_store(*cold1)  # back within the ghost window
        stats = catalog.stats()
        assert stats["ghost_hits"] == 1
        record = catalog.borrow(*cold1)
        assert record.tier == "protected"
        catalog.release(record)
        catalog.close()

    def test_single_touch_order_is_fifo_lru_compatible(self, flushed):
        """With no re-references, 2Q degenerates to the old LRU behaviour
        (insertion-order eviction) — the upgrade is regression-free for
        one-pass workloads."""
        catalog = StoreCatalog.open(flushed["dir"])
        keys = catalog.keys()
        catalog.memory_budget_bytes = sum(e.nbytes for e in catalog.entries()) - 1
        for key in keys:
            catalog.open_store(*key)
        assert not catalog.is_open(*keys[0])  # oldest single-touch out first
        assert catalog.is_open(*keys[1]) and catalog.is_open(*keys[2])
        catalog.close()


# -- request surface -----------------------------------------------------------


_CELLS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SHAPE[0] - 1),
        st.integers(min_value=0, max_value=SHAPE[1] - 1),
    ),
    min_size=1,
    max_size=8,
)
_ROUTES = st.sampled_from(
    [
        ("backward", ["s1"], None),
        ("backward", ["s2", "s1"], None),
        ("backward", ["s3", "s2"], None),
        ("forward", ["s1", "s2"], None),
        ("forward", ["s3"], None),
        ("backward", None, ("s3", "img")),
        ("forward", None, ("img", "s2")),
    ]
)
_FLAG = st.sampled_from([None, True, False])


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
)
#: arbitrary JSON values (floats include the inf/nan that ``json`` parses)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_VALID_WIRE = [r.to_dict() for r in _requests(np.random.default_rng(5))]
_REQUEST_KEYS = st.sampled_from(
    ["v", "direction", "cells", "path", "start", "end", "entire_array", "query_opt"]
)


@st.composite
def _mutated_requests(draw) -> dict:
    """A valid request dict with up to three fields replaced by arbitrary
    JSON values (cell-shaped ones included) and maybe one field dropped —
    reaches the field validators that a random top-level value cannot."""
    obj = dict(draw(st.sampled_from(_VALID_WIRE)))
    cell_like = st.lists(st.lists(_JSON_VALUES, max_size=3), max_size=3)
    for key in draw(st.lists(_REQUEST_KEYS, max_size=3)):
        obj[key] = draw(_JSON_VALUES | cell_like)
    for key in draw(st.lists(_REQUEST_KEYS, max_size=1)):
        obj.pop(key, None)
    return obj


_MUTATED_REQUESTS = _mutated_requests()


@pytest.mark.timeout(300)
class TestRequestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(cells=_CELLS, route=_ROUTES, entire=_FLAG, opt=_FLAG)
    def test_request_json_roundtrip_executes_identically(
        self, flushed, cells, route, entire, opt
    ):
        direction, path, endpoints = route
        ctor = QueryRequest.backward if direction == "backward" else QueryRequest.forward
        if path is not None:
            request = ctor(cells, path, entire_array=entire, query_opt=opt)
        else:
            start, end = endpoints
            request = ctor(
                cells, start=start, end=end, entire_array=entire, query_opt=opt
            )
        # dict -> JSON -> dict -> request is exact
        wire = json.loads(json.dumps(request.to_dict()))
        rebuilt = QueryRequest.from_dict(wire)
        assert rebuilt == request
        assert load_request(json.dumps(wire).encode()) == request
        # and the round-tripped request answers identically in-process
        sz = self._engine(flushed)
        assert canonical_result(sz.query(rebuilt).to_dict()) == canonical_result(
            sz.query(request).to_dict()
        )

    _cached_engine: SubZero | None = None

    @classmethod
    def _engine(cls, flushed) -> SubZero:
        # one resumed engine for every Hypothesis example (resume is slow)
        if cls._cached_engine is None:
            cls._cached_engine = _resume_engine(flushed)
        return cls._cached_engine

    @classmethod
    def teardown_class(cls) -> None:
        if cls._cached_engine is not None:
            cls._cached_engine.close()
            cls._cached_engine = None

    def test_request_validation(self):
        with pytest.raises(QueryError):
            QueryRequest("sideways", ((1, 1),), (("s1", 0),))
        with pytest.raises(QueryError):
            QueryRequest.backward([], ["s1"])  # no cells
        with pytest.raises(QueryError):
            QueryRequest.backward([(1, 1)])  # neither path nor endpoints
        with pytest.raises(QueryError):
            QueryRequest.backward([(1, 1)], ["s1"], start="a", end="b")  # both
        with pytest.raises(QueryError):
            QueryRequest.backward([(1, 1)], start="a")  # half the endpoints
        with pytest.raises(QueryError):
            QueryRequest.from_dict({"v": 99, "direction": "backward", "cells": [[1]]})
        with pytest.raises(QueryError):
            QueryRequest.from_dict([1, 2])  # not an object
        with pytest.raises(QueryError):
            QueryRequest.backward([(1, 1)], start=["x"], end="img")  # not a str
        with pytest.raises(QueryError):
            QueryRequest.backward([(2**70, 1)], ["s1"])  # beyond int64

    @pytest.mark.parametrize("value", [1.7, True, "3", float("nan")])
    def test_non_integer_values_rejected(self, value):
        """A coordinate or input index that ``int()`` would quietly turn
        into a different one is refused, from the wire and in-process."""
        with pytest.raises(QueryError, match="must be an integer"):
            QueryRequest.backward([(value, 2)], ["s1"])
        with pytest.raises(QueryError, match="must be an integer"):
            QueryRequest.backward([(1, 2)], [("s1", value)])
        wire = {"direction": "backward", "cells": [[value, 2]], "path": [["s1", 0]]}
        with pytest.raises(QueryError, match="must be an integer"):
            QueryRequest.from_dict(wire)
        wire = {"direction": "backward", "cells": [[1, 2]], "path": [["s1", value]]}
        with pytest.raises(QueryError, match="must be an integer"):
            QueryRequest.from_dict(wire)

    def test_integral_values_accepted(self):
        """Integral floats and NumPy integers name the cell they equal."""
        request = QueryRequest.backward(
            [(np.int32(1), 2.0)], [("s1", np.int64(0))]
        )
        assert request.cells == ((1, 2),)
        assert request.path == (("s1", 0),)
        assert QueryRequest.backward(np.asarray([[1, 2]]), ["s1"]) == request

    def test_endpoint_errors_name_the_request_field(self, flushed):
        sz = self._engine(flushed)
        cases = [
            (QueryRequest.backward([(1, 1)], start="nope", end="img"), "unknown start node"),
            (QueryRequest.backward([(1, 1)], start="s2", end="nope"), "unknown end 'nope'"),
            (QueryRequest.forward([(1, 1)], start="nope", end="s2"), "unknown start 'nope'"),
            (QueryRequest.forward([(1, 1)], start="img", end="nope"), "unknown end node"),
            (QueryRequest.forward([(1, 1)], start="s2", end="img"), "unknown end node 'img'"),
            (QueryRequest.backward([(1, 1)], start="s1", end="s3"), "no dataflow path"),
        ]
        for request, message in cases:
            with pytest.raises(QueryError, match=message):
                sz.query(request)

    @settings(max_examples=150, deadline=None)
    @given(obj=_JSON_VALUES | _MUTATED_REQUESTS)
    # every failure this property found, pinned
    @example(obj={"direction": "backward", "cells": [[2**70, 2]], "path": [["s1", 0]]})
    @example(obj={"direction": "backward", "cells": [[-(2**64), 2]], "path": [["s1", 0]]})
    @example(obj={"direction": "forward", "cells": [[float("inf"), 1]], "path": [["s1", 0]]})
    @example(obj={"direction": "backward", "cells": [[1, 2]], "start": ["x"], "end": "img"})
    @example(obj={"direction": "forward", "cells": [[1, 2]], "start": "img", "end": 7})
    # non-integer coordinates, once truncated to cell (1, 2) or (3, 2)
    @example(obj={"direction": "backward", "cells": [[1.7, 2]], "path": [["s1", 0]]})
    @example(obj={"direction": "backward", "cells": [[True, 2]], "path": [["s1", 0]]})
    @example(obj={"direction": "backward", "cells": [["3", 2]], "path": [["s1", 0]]})
    # a cell with no coordinates, once accepted as a zero-dimensional cell
    @example(obj={"direction": "backward", "cells": [""], "path": [["s1", 0]]})
    def test_from_dict_returns_request_or_raises_query_error(self, obj):
        """Any JSON value: a request comes back, or a typed QueryError —
        never a raw Python exception the daemon would drop the connection
        over.  An accepted request carries exactly the values it was sent
        (bools, strings and fractional floats are never coerced)."""
        try:
            request = QueryRequest.from_dict(obj)
        except QueryError:
            return
        assert isinstance(request, QueryRequest)
        assert request.start is None or isinstance(request.start, str)
        assert request.end is None or isinstance(request.end, str)
        sent = [v for row in obj["cells"] for v in row]
        sent += [i for _, i in obj.get("path") or ()]
        assert not any(isinstance(v, (bool, str)) for v in sent)
        wire = request.to_dict()
        assert wire["cells"] == obj["cells"]
        assert wire.get("path") == obj.get("path")

    def test_canonical_result_strips_diagnostics_only(self, flushed):
        with _resume_engine(flushed) as sz:
            result = sz.query(flushed["requests"][0]).to_dict()
            canon = canonical_result(result)
            assert "seconds" not in canon and "cache" not in canon
            assert all("seconds" not in s for s in canon["steps"])
            assert canon["count"] == result["count"]
            assert canon["coords"] == result["coords"]
            structural = {"node", "direction", "method", "cells_in", "cells_out"}
            assert structural <= set(canon["steps"][0])


# -- query sugar ---------------------------------------------------------------


class TestDeprecatedOverrides:
    def test_unknown_override_raises_type_error(self, flushed):
        with _resume_engine(flushed) as sz:
            with pytest.raises(TypeError, match="unexpected keyword"):
                sz.backward_query([(5, 5)], ["s1"], enable_warp_drive=True)

    def test_serve_single_worker_shares_one_session(self, flushed):
        """Regression for the serve() bugfix: ``max_workers<=1`` must run
        through one QuerySession, so under a tiny budget the whole batch
        pays one open per store instead of eviction churn per query."""
        catalog = StoreCatalog.open(flushed["dir"])
        budget = max(e.nbytes for e in catalog.entries()) + 1
        requests, baseline = flushed["requests"], flushed["baseline"]
        with _resume_engine(flushed, memory_budget_bytes=budget) as sz:
            results = sz.serve(requests, max_workers=1)
            for got, want in zip(results, baseline):
                assert canonical_result(got.to_dict()) == want
            stats = sz.runtime.serving_stats()
            # one shared session pins each store on first touch: without the
            # fix every query opened (and evicted) stores independently
            assert stats["misses"] <= 3


# -- multi-process workers -----------------------------------------------------


@pytest.mark.timeout(300)
@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="fork start method unavailable",
)
class TestWorkerPool:
    def test_fork_pool_matches_in_process(self, flushed):
        with _resume_engine(flushed) as sz:
            requests, baseline = flushed["requests"][:4], flushed["baseline"][:4]
            with WorkerPool(engine=sz, workers=2) as pool:
                for request, want in zip(requests, baseline):
                    assert canonical_result(pool.query(request)) == want
                batch = pool.map(requests)
                assert [canonical_result(b) for b in batch] == baseline[:4]

    def test_daemon_delegates_to_pool(self, flushed):
        with _resume_engine(flushed) as sz:
            request = flushed["requests"][0]
            want = flushed["baseline"][0]
            with WorkerPool(engine=sz, workers=2) as pool:
                with QueryDaemon(sz, port=0, workers=pool) as daemon:
                    client = DaemonClient(*daemon.address)
                    client.wait_ready()
                    assert canonical_result(client.query(request)) == want

    def test_pool_argument_validation(self, flushed):
        with pytest.raises(ValueError):
            WorkerPool()  # neither engine nor factory
        with _resume_engine(flushed) as sz:
            with pytest.raises(ValueError):
                WorkerPool(engine=sz, engine_factory=lambda: sz)  # both
            with pytest.raises(ValueError):
                WorkerPool(engine=sz, mp_context="spawn")  # engine needs fork
