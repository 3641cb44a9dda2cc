"""The concurrent serving core: sessions, pinning, LRU eviction.

Four layers under test:

* **threaded stress** — N threads x M mixed backward/forward queries
  against one catalog with a tiny ``memory_budget_bytes``, asserting the
  answers match the single-threaded baseline, that eviction/pinning never
  serves a closed mapping, and that the budget caps resident store bytes.
  Thread joins carry explicit timeouts so a deadlock fails instead of
  hanging (CI additionally runs this module under pytest-timeout).
* **pin/evict semantics** — a store borrowed (pinned) survives being chosen
  by the LRU; its mapping closes exactly when the last pin drops; a closed
  segment handle refuses section access.
* **atomic manifest** — a crash mid-``save_manifest`` leaves the previous
  ``catalog.json`` intact (tmp + rename), not a truncated brick.
* **lifecycle** — Segment refcounting, catalog/SubZero close() and context
  managers, serving counters on ``QueryResult.explain()``.
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest

from repro import (
    FULL_MANY_B,
    FULL_ONE_B,
    PAY_ONE_B,
    QueryRequest,
    QuerySession,
    SciArray,
    SubZero,
    WorkflowSpec,
)
from repro.arrays.versions import VersionStore
from repro.core.catalog import StoreCatalog
from repro.core.lineage_store import make_store
from repro.errors import StorageError
from repro.storage.segment import Segment, SegmentWriter
from tests.conftest import SpotUDF
from tests.test_segments import SHAPE

JOIN_TIMEOUT = 120  # seconds before a hung worker counts as a deadlock


# -- workload ------------------------------------------------------------------


def _serving_spec() -> WorkflowSpec:
    """Three store-bearing detector stages over one image source."""
    spec = WorkflowSpec(name="serving")
    spec.add_source("img")
    spec.add_node("s1", SpotUDF(thresh=0.55, radius=1), ["img"])
    spec.add_node("s2", SpotUDF(thresh=0.5, radius=2), ["s1"])
    spec.add_node("s3", SpotUDF(thresh=0.5, radius=1), ["s2"])
    return spec


def _assign(sz: SubZero) -> None:
    sz.set_strategy("s1", FULL_ONE_B)
    sz.set_strategy("s2", FULL_MANY_B)
    sz.set_strategy("s3", PAY_ONE_B)


def _mixed_queries(rng, shape, n_each: int = 2):
    """(kind, cells, path) triples mixing matched, mismatched and payload
    paths over all three stores."""
    jobs = []
    for _ in range(n_each):
        cells = [tuple(c) for c in rng.integers(0, min(shape), size=(6, 2))]
        jobs.extend(
            [
                ("b", cells, ["s1"]),
                ("b", cells, ["s2", "s1"]),
                ("f", cells, ["s1", "s2"]),
                ("b", cells, ["s3", "s2"]),
                ("f", cells, ["s2"]),
                ("f", cells, ["s3"]),
            ]
        )
    return jobs


def _request(job) -> QueryRequest:
    kind, cells, path = job
    if kind == "b":
        return QueryRequest.backward(cells, path)
    return QueryRequest.forward(cells, path)


def _run_job(sz: SubZero, job, session=None):
    return sz.query(_request(job), session=session)


def _coords_set(result):
    return sorted(map(tuple, result.coords.tolist()))


@pytest.fixture(scope="module")
def flushed_workflow(tmp_path_factory):
    """Run the serving workflow once, flush it, and keep the artifacts a
    fresh engine needs to resume (versions + WAL + lineage dir)."""
    rng = np.random.default_rng(7)
    image = SciArray.from_numpy(rng.random((24, 28)))
    versions = VersionStore()
    sz = SubZero(_serving_spec(), enable_query_opt=False)
    _assign(sz)
    sz.run({"img": image}, version_store=versions)
    lineage_dir = str(tmp_path_factory.mktemp("serving-lineage"))
    sz.flush_lineage(lineage_dir)
    baseline = {
        i: _coords_set(_run_job(sz, job))
        for i, job in enumerate(_mixed_queries(np.random.default_rng(3), (24, 28)))
    }
    return {
        "versions": versions,
        "wal": sz.wal,
        "dir": lineage_dir,
        "baseline": baseline,
        "jobs": _mixed_queries(np.random.default_rng(3), (24, 28)),
    }


def _resume_engine(flushed, memory_budget_bytes=None) -> SubZero:
    sz = SubZero(
        _serving_spec(),
        enable_query_opt=False,
        memory_budget_bytes=memory_budget_bytes,
    )
    sz.resume(flushed["versions"], wal=flushed["wal"], lineage_dir=flushed["dir"])
    return sz


def _tiny_budget(directory: str) -> int:
    """A budget that fits the largest single store and nothing else, so
    mixed queries must evict between stores."""
    catalog = StoreCatalog.open(directory)
    return max(entry.nbytes for entry in catalog.entries()) + 1


# -- the threaded stress test --------------------------------------------------


@pytest.mark.timeout(300)
class TestThreadedServing:
    def test_mixed_queries_match_baseline_under_tiny_budget(self, flushed_workflow):
        budget = _tiny_budget(flushed_workflow["dir"])
        jobs = flushed_workflow["jobs"]
        baseline = flushed_workflow["baseline"]
        with _resume_engine(flushed_workflow, memory_budget_bytes=budget) as sz:
            n_threads, rounds = 8, 4
            failures: list[str] = []

            def worker(seed: int) -> None:
                order = np.random.default_rng(seed).permutation(len(jobs))
                with QuerySession(sz.runtime) as session:
                    for _ in range(rounds):
                        for j in order:
                            got = _coords_set(_run_job(sz, jobs[j], session=session))
                            if got != baseline[j]:
                                failures.append(
                                    f"job {j} diverged: {got[:4]}... vs "
                                    f"{baseline[j][:4]}..."
                                )
                                return

            threads = [
                threading.Thread(target=worker, args=(seed,), daemon=True)
                for seed in range(n_threads)
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + JOIN_TIMEOUT
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in threads), (
                "threaded serving deadlocked (workers still alive at timeout)"
            )
            assert not failures, failures[0]

            stats = sz.runtime.serving_stats()
            # the tiny budget forced churn, and the churn was real sharing:
            # hits dominate because sessions pin stores across their queries
            assert stats["evictions"] > 0
            assert stats["hits"] > 0
            # with every session closed, the budget caps resident bytes
            assert stats["resident_bytes"] <= budget
        assert sz.runtime.serving_stats()["open_mappings"] == 0  # close() drained

    def test_serve_threadpool_matches_baseline(self, flushed_workflow):
        """The facade path: SubZero.serve() on a thread pool, hot cache."""
        jobs = flushed_workflow["jobs"]
        baseline = flushed_workflow["baseline"]
        queries = [_request(job) for job in jobs]
        with _resume_engine(flushed_workflow) as sz:
            pool = ThreadPoolExecutor(max_workers=1)
            try:
                future = pool.submit(sz.serve, queries * 2, 8)
                done, _ = wait([future], timeout=JOIN_TIMEOUT)
                assert done, "SubZero.serve deadlocked"
                results = future.result()
            finally:
                pool.shutdown(wait=False)
            for i, result in enumerate(results):
                assert _coords_set(result) == baseline[i % len(jobs)]
            stats = sz.runtime.serving_stats()
            assert stats["misses"] <= 3  # one open per store, shared by all
            assert stats["evictions"] == 0  # no budget, no churn


# -- pin / evict semantics -----------------------------------------------------


class TestPinningAndEviction:
    def test_pinned_store_survives_eviction_until_release(self, flushed_workflow):
        # budget below every store size: each borrow is immediately over
        # budget, but a pinned record is never a victim — it closes at the
        # moment its last pin drops and the budget is re-checked
        catalog = StoreCatalog.open(flushed_workflow["dir"], memory_budget_bytes=1)
        key = catalog.keys()[0]
        record = catalog.borrow(*key)
        assert record is not None and record.pins == 1
        assert not record.evicted and not record.closed  # pinned: untouchable
        assert catalog.stats()["open_mappings"] == 1
        # the store still answers (mapping alive under the pin)
        assert record.store.n_entries >= 0
        catalog.release(record)
        assert record.evicted and record.closed  # last pin dropped -> closed
        assert record.store._segment is None
        assert catalog.stats()["open_mappings"] == 0
        assert catalog.stats()["evictions"] == 1
        catalog.close()

    def test_lru_evicts_least_recently_used_unpinned(self, flushed_workflow):
        catalog = StoreCatalog.open(flushed_workflow["dir"])
        sizes = {entry.key: entry.nbytes for entry in catalog.entries()}
        total = sum(sizes.values())
        keys = catalog.keys()
        assert len(keys) == 3
        catalog.memory_budget_bytes = total - 1  # forces exactly one eviction
        opened = [catalog.open_store(*key) for key in keys]
        assert all(store is not None for store in opened)
        stats = catalog.stats()
        assert stats["evictions"] == 1
        assert not catalog.is_open(*keys[0])  # the LRU victim
        assert catalog.is_open(*keys[1]) and catalog.is_open(*keys[2])
        assert stats["resident_bytes"] <= catalog.memory_budget_bytes
        # touching the victim again is a miss (reopen), the others are hits
        catalog.open_store(*keys[0])
        assert catalog.stats()["misses"] == 4
        catalog.close()

    def test_closed_segment_handle_refuses_reads(self, tmp_path):
        path = str(tmp_path / "t.seg")
        writer = SegmentWriter()
        writer.add_array("vec", np.arange(16, dtype=np.int64))
        writer.write(path)
        seg = Segment.open(path)
        seg.acquire()  # two holders
        seg.close()
        assert not seg.closed  # one reference remains
        assert seg.array("vec").size == 16
        seg.close()
        assert seg.closed
        with pytest.raises(StorageError, match="closed"):
            seg.array("vec")
        with pytest.raises(StorageError, match="closed"):
            seg.acquire()

    def test_session_pins_against_concurrent_eviction_pressure(self, flushed_workflow):
        """A session's store keeps answering while another thread churns
        the cache hard enough to evict everything unpinned."""
        budget = _tiny_budget(flushed_workflow["dir"])
        with _resume_engine(flushed_workflow, memory_budget_bytes=budget) as sz:
            keys = sz.runtime.catalog.keys()
            stop = threading.Event()

            def churn():
                while not stop.is_set():
                    for key in keys:
                        with QuerySession(sz.runtime) as s:
                            s.store_for(*key)

            churner = threading.Thread(target=churn, daemon=True)
            churner.start()
            try:
                with QuerySession(sz.runtime) as session:
                    store = session.store_for(*keys[0])
                    for _ in range(200):
                        assert store.n_entries > 0  # never a cleared store
            finally:
                stop.set()
                churner.join(timeout=JOIN_TIMEOUT)
            assert not churner.is_alive()
            assert sz.runtime.serving_stats()["evictions"] > 0


# -- atomic manifest -----------------------------------------------------------


class TestManifestAtomicity:
    def test_interrupted_save_leaves_previous_manifest_intact(
        self, flushed_workflow, tmp_path, monkeypatch
    ):
        with _resume_engine(flushed_workflow) as sz:
            sz.runtime.flush_all(str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "catalog.json")
        with open(manifest_path, encoding="utf-8") as fh:
            before = fh.read()
        catalog = StoreCatalog.open(str(tmp_path))

        real_dump = json.dump

        def crashing_dump(obj, fh, **kwargs):
            fh.write('{"format": "subzero-catalog", "stores": [{"trunc')
            raise OSError("disk full mid-write")

        monkeypatch.setattr(json, "dump", crashing_dump)
        # the storage boundary wraps the raw OSError (invariant SZ004)
        with pytest.raises(StorageError, match="disk full"):
            catalog.save_manifest()
        monkeypatch.setattr(json, "dump", real_dump)

        # the crash hit the tmp file only: the manifest is byte-identical,
        # still opens, and no tmp debris is left behind
        with open(manifest_path, encoding="utf-8") as fh:
            assert fh.read() == before
        assert not os.path.exists(manifest_path + ".tmp")
        reopened = StoreCatalog.open(str(tmp_path))
        assert len(reopened) == len(catalog)


# -- lifecycle + stats surfacing -----------------------------------------------


class TestLifecycleAndStats:
    def test_subzero_context_manager_drains_mappings(self, flushed_workflow):
        with _resume_engine(flushed_workflow) as sz:
            _run_job(sz, flushed_workflow["jobs"][0])
            assert sz.runtime.serving_stats()["open_mappings"] >= 1
        assert sz.runtime.serving_stats()["open_mappings"] == 0

    def test_explain_surfaces_serving_cache_counters(self, flushed_workflow):
        with _resume_engine(flushed_workflow) as sz:
            result = _run_job(sz, flushed_workflow["jobs"][0])
            assert result.cache is not None
            text = result.explain()
            assert "serving cache:" in text
            assert "open mappings" in text
            # the collector carries the same snapshot for benchmarks
            assert sz.stats.serving["misses"] >= 1

    def test_catalog_context_manager(self, flushed_workflow):
        with StoreCatalog.open(flushed_workflow["dir"]) as catalog:
            key = catalog.keys()[0]
            assert catalog.open_store(*key) is not None
            assert catalog.open_count() == 1
        assert catalog.open_count() == 0

    def test_closed_store_raises_instead_of_answering_empty(self, flushed_workflow):
        """Regression: a caller that holds a store across its eviction must
        get a loud StorageError, never a silent empty answer."""
        catalog = StoreCatalog.open(flushed_workflow["dir"])
        key = ("s1", FULL_ONE_B)
        store = catalog.open_store(*key)
        q = np.arange(8, dtype=np.int64)
        matched, _ = store.backward_full(q)  # live: answers fine
        assert matched.shape == (8,)
        catalog.close()
        with pytest.raises(StorageError, match="closed"):
            store.backward_full(q)
        with pytest.raises(StorageError, match="QuerySession"):
            store.scan_forward_full(q, 0)

    def test_open_store_under_tiny_budget_returns_live_store(self, flushed_workflow):
        """Regression: the unpinned open_store path must never hand back a
        store its own unpin just evicted, even when the budget is smaller
        than the store itself."""
        catalog = StoreCatalog.open(flushed_workflow["dir"], memory_budget_bytes=1)
        for key in catalog.keys():
            store = catalog.open_store(*key)
            assert store is not None
            assert store.n_entries > 0  # live, not evicted-and-poisoned
        catalog.close()

    def test_store_close_is_idempotent_and_resident_safe(self, flushed_workflow):
        catalog = StoreCatalog.open(flushed_workflow["dir"])
        key = catalog.keys()[0]
        store = catalog.open_store(*key)
        catalog.close()
        store.close()  # already closed by the catalog: must be a no-op
        resident = make_store("x", FULL_ONE_B, SHAPE, (SHAPE,))
        resident.close()  # resident store: nothing to release, no error
