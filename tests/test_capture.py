"""Deferred capture correctness: the background encode pipeline.

Three properties of the interactive-speed capture path:

* **deferred == eager** — parking descriptors and lowering them on the
  background worker must answer every query identically to inline
  encoding, across all four Full layouts, matched and mismatched
  orientation (the Hypothesis property).
* **crash containment** — a failure on the background worker (an encode
  job, or a pipelined ``flush_lineage(wait=False)``) surfaces loudly at
  the next join and leaves no torn on-disk state: a previously committed
  generation keeps serving.
* **batch-only capture** — no built-in operator emits lineage through a
  per-pair Python loop; everything arrives at the sink as whole-array
  batch calls (``lwrite_batch`` / ``lwrite_elementwise`` /
  ``lwrite_payload_regions`` / ``lwrite_payload_batch``).
* **one record form** — the per-pair ``lwrite`` / ``lwrite_payload``
  calls a UDF author writes first are staged into the same columnar
  region batches, so how pairs were emitted never shows in a store.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    MAP,
    PAY_MANY_B,
    PAY_ONE_B,
    SciArray,
    SubZero,
)
from repro.arrays import coords as C
from repro.core import lineage_store
from repro.core.capture import CapturePipeline
from repro.core.lineage_store import make_store
from repro.core.model import BufferSink
from repro.core.modes import LineageMode, Orientation
from repro.core.runtime import LineageRuntime
from repro.core.stats import StatsCollector
from repro.errors import StorageError
from repro.ops.base import LineageContext
from repro.storage import segment as segment_mod
from repro.workflow.executor import execute_workflow
from tests.conftest import build_spot_spec
from tests.test_strategy_equivalence import BACKWARD_PATH, FORWARD_PATH, coord_set

ALL_FULL = [FULL_ONE_B, FULL_ONE_F, FULL_MANY_B, FULL_MANY_F]

SHAPE = (12, 15)


def _spot_engine(strategy, image, capture):
    sz = SubZero(build_spot_spec(), enable_query_opt=False, capture=capture)
    sz.set_strategy("smooth", MAP)
    sz.set_strategy("scale", MAP)
    sz.set_strategy("spot", strategy)
    sz.run({"img": image})
    return sz


# -- deferred == eager ---------------------------------------------------------


class TestDeferredEagerEquivalence:
    @pytest.mark.parametrize("strategy", ALL_FULL, ids=lambda s: s.label)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_same_answers_both_orientations(self, strategy, seed):
        """Backward AND forward queries against every Full layout — each
        strategy therefore serves one matched and one mismatched
        orientation — agree between deferred and eager capture."""
        rng = np.random.default_rng(seed)
        image = SciArray.from_numpy(rng.random(SHAPE))
        out_cells = [
            (int(r), int(c))
            for r, c in zip(
                rng.integers(0, SHAPE[0], size=4), rng.integers(0, SHAPE[1], size=4)
            )
        ]
        in_cells = [
            (int(r), int(c))
            for r, c in zip(
                rng.integers(0, SHAPE[0], size=3), rng.integers(0, SHAPE[1], size=3)
            )
        ]
        answers = {}
        for capture in ("eager", "deferred"):
            sz = _spot_engine(strategy, image, capture)
            back = coord_set(sz.backward_query(out_cells, BACKWARD_PATH))
            fwd = coord_set(sz.forward_query(in_cells, FORWARD_PATH))
            answers[capture] = (back, fwd)
            sz.close()
        assert answers["deferred"] == answers["eager"]

    def test_capture_counters_populate(self, rng):
        image = SciArray.from_numpy(rng.random(SHAPE))
        sz = _spot_engine(FULL_MANY_B, image, "deferred")
        c = sz.stats.capture
        assert c["deferred_pairs"] > 0
        assert c["deferred_bytes"] > 0
        assert c["capture_seconds"] > 0.0
        assert c["encode_thread_seconds"] > 0.0
        # ...and they surface through the runtime's serving stats
        merged = sz.runtime.serving_stats()
        assert merged["deferred_pairs"] == c["deferred_pairs"]
        sz.close()


# -- crash containment ---------------------------------------------------------


class TestCrashDuringBackgroundEncode:
    def test_encode_failure_surfaces_at_drain(self, monkeypatch, rng):
        """A store that crashes while lowering on the background worker
        fails the run loudly (the end-of-run drain), and close() stays
        safe afterwards."""
        image = SciArray.from_numpy(rng.random(SHAPE))

        ingest = lineage_store.LayoutStore.ingest

        def boom(self, sink):
            if self.strategy == FULL_MANY_B:
                raise StorageError("simulated encode crash")
            ingest(self, sink)

        monkeypatch.setattr(lineage_store.LayoutStore, "ingest", boom)
        sz = SubZero(build_spot_spec(), enable_query_opt=False, capture="deferred")
        sz.set_strategy("spot", FULL_MANY_B)
        with pytest.raises(StorageError, match="simulated encode crash"):
            sz.run({"img": image})
        sz.close()  # the failure was delivered once; close must not hang

    def test_flush_crash_keeps_prior_generation_serving(
        self, monkeypatch, rng, tmp_path
    ):
        """A pipelined flush that dies on the worker surfaces at close()
        and leaves the directory exactly as the last committed generation
        wrote it (segment writes are write-then-rename)."""
        directory = str(tmp_path)
        image = SciArray.from_numpy(rng.random(SHAPE))

        # generation 0: a clean deferred run, flushed synchronously
        runtime = LineageRuntime(deferred=True)
        runtime.set_strategies("spot", FULL_MANY_B)
        instance = execute_workflow(
            build_spot_spec(), {"img": image}, runtime=runtime
        )
        out_shape = instance.output_shape("spot")
        q = C.pack_coords(
            np.asarray([(3, 3), (7, 7)], dtype=np.int64), out_shape
        )
        baseline = runtime.store_for("spot", FULL_MANY_B).backward_full(q)
        assert runtime.flush_all(directory) > 0
        runtime.close()
        files_before = sorted(os.listdir(directory))

        # generation 1: the background flush crashes mid-write
        def boom(self, path, stale_sink=None):
            raise StorageError("simulated flush crash")

        sz = SubZero(build_spot_spec(), enable_query_opt=False, capture="deferred")
        sz.set_strategy("spot", FULL_MANY_B)
        sz.run({"img": image})
        monkeypatch.setattr(segment_mod.SegmentWriter, "write", boom)
        future = sz.flush_lineage(directory, append=True, wait=False)
        with pytest.raises(StorageError, match="simulated flush crash"):
            sz.close()
        assert isinstance(future.exception(), StorageError)

        # nothing torn: same file set, catalog loads, answers unchanged
        monkeypatch.undo()
        assert sorted(os.listdir(directory)) == files_before
        fresh = LineageRuntime()
        assert fresh.load_all(directory) == 1
        restored = fresh.store_for("spot", FULL_MANY_B).backward_full(q)
        assert (baseline[0] == restored[0]).all()
        assert set(baseline[1][0].tolist()) == set(restored[1][0].tolist())
        fresh.close()

    def test_pipeline_failure_delivered_exactly_once(self):
        """CapturePipeline.drain re-raises the first failure, joins the
        rest, and a later drain/close is clean."""
        pipeline = CapturePipeline()
        ran = []

        def bad():
            raise StorageError("first")

        def good():
            ran.append(True)

        pipeline.submit(bad)
        pipeline.submit(good)
        with pytest.raises(StorageError, match="first"):
            pipeline.drain()
        assert ran == [True]  # later jobs still joined, not abandoned
        pipeline.drain()  # already delivered: clean
        pipeline.close()
        pipeline.close()  # idempotent


# -- batch-only capture --------------------------------------------------------


class TestBatchOnlyCapture:
    @pytest.fixture
    def pair_counter(self, monkeypatch):
        """Counts per-pair vs batch sink calls across every sink type."""
        calls = {"add_pair": 0, "batch": 0}
        orig_pair = BufferSink.add_pair
        orig_region = BufferSink.add_region_batch
        orig_elem = BufferSink.add_elementwise
        orig_payload = BufferSink.add_payload_batch

        def counting_pair(self, pair):
            calls["add_pair"] += 1
            return orig_pair(self, pair)

        def counting_region(self, batch):
            calls["batch"] += 1
            return orig_region(self, batch)

        def counting_elem(self, batch):
            calls["batch"] += 1
            return orig_elem(self, batch)

        def counting_payload(self, batch):
            calls["batch"] += 1
            return orig_payload(self, batch)

        monkeypatch.setattr(BufferSink, "add_pair", counting_pair)
        monkeypatch.setattr(BufferSink, "add_region_batch", counting_region)
        monkeypatch.setattr(BufferSink, "add_elementwise", counting_elem)
        monkeypatch.setattr(BufferSink, "add_payload_batch", counting_payload)
        return calls

    def test_astronomy_udfs_emit_no_per_pair_calls(self, pair_counter):
        from repro.bench.astronomy import UDF_NODES, AstronomyBenchmark

        bench = AstronomyBenchmark(shape=(48, 64), seed=3, n_stars=8, n_cosmic=6)
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        sz.use_mapping_where_possible()
        for udf in UDF_NODES:
            sz.set_strategy(udf, FULL_MANY_B, PAY_ONE_B)
        sz.run(bench.inputs())
        assert pair_counter["add_pair"] == 0, (
            "a built-in operator fell back to per-pair emission"
        )
        assert pair_counter["batch"] > 0
        sz.close()

    def test_genomics_udfs_emit_no_per_pair_calls(self, pair_counter):
        from repro.bench.genomics import UDF_NODES, GenomicsBenchmark

        bench = GenomicsBenchmark(scale=25, seed=5)
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        sz.use_mapping_where_possible()
        for udf in UDF_NODES:
            sz.set_strategy(udf, FULL_MANY_B, PAY_ONE_B)
        sz.run(bench.inputs())
        assert pair_counter["add_pair"] == 0, (
            "a built-in operator fell back to per-pair emission"
        )
        assert pair_counter["batch"] > 0
        sz.close()

    def test_micro_synthetic_op_emits_no_per_pair_calls(self, pair_counter):
        from repro.bench.micro import MicroBenchmark

        bench = MicroBenchmark(fanin=9, fanout=2, shape=(40, 40), query_cells=16, seed=0)
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        sz.set_strategy("synthetic", FULL_MANY_B)
        sz.run(bench.inputs())
        assert pair_counter["add_pair"] == 0
        assert pair_counter["batch"] > 0
        sz.close()


# -- one record form -----------------------------------------------------------

ALL_LAYOUTS = ALL_FULL + [PAY_ONE_B, PAY_MANY_B]
SIZE = SHAPE[0] * SHAPE[1]


def _random_lineage(rng):
    """``(full, payload, elementwise)``: full pairs as (out, in) coordinate
    arrays, payload pairs as (out, blob), one aligned elementwise batch."""

    def region(max_cells):
        n = int(rng.integers(1, max_cells + 1))
        return C.unpack_coords(rng.choice(SIZE, size=n, replace=False), SHAPE)

    full = [(region(4), region(5)) for _ in range(rng.integers(0, 7))]
    payload = [
        (region(3), rng.bytes(int(rng.integers(1, 4))))
        for _ in range(rng.integers(0, 5))
    ]
    n_elem = int(rng.integers(0, 7))
    elementwise = (
        C.unpack_coords(rng.integers(0, SIZE, size=n_elem), SHAPE),
        C.unpack_coords(rng.integers(0, SIZE, size=n_elem), SHAPE),
    )
    return full, payload, elementwise


def _offsets(parts):
    return np.concatenate([[0], np.cumsum([len(p) for p in parts])]).astype(np.int64)


def _emit_batched(ctx, full, payload):
    if full:
        outs, ins = zip(*full)
        ctx.lwrite_batch(
            np.concatenate(outs), _offsets(outs), [np.concatenate(ins)], [_offsets(ins)]
        )
    if payload:
        outs, blobs = zip(*payload)
        ctx.lwrite_payload_regions(
            np.concatenate(outs), _offsets(outs), b"".join(blobs), _offsets(blobs)
        )


def _emit(how, full, payload, elementwise):
    """The same lineage through three different call sequences."""
    ctx = LineageContext(
        cur_modes=frozenset({LineageMode.FULL, LineageMode.PAY}), sink=BufferSink()
    )
    e_out, e_in = elementwise
    if how == "per_pair":
        for out, inn in full:
            ctx.lwrite(out, inn)
        for out, blob in payload:
            ctx.lwrite_payload(out, blob)
        ctx.lwrite_elementwise(e_out, e_in)
    elif how == "batched":
        _emit_batched(ctx, full, payload)
        ctx.lwrite_elementwise(e_out, e_in)
    else:  # interleaved: every call kind, alternating, in one sink
        half = len(e_out) // 2
        ctx.lwrite_elementwise(e_out[:half], e_in[:half])
        _emit_batched(ctx, full[::2], payload[::2])
        rest_full, rest_payload = full[1::2], payload[1::2]
        for i in range(max(len(rest_full), len(rest_payload))):
            if i < len(rest_payload):
                ctx.lwrite_payload(*rest_payload[i])
            if i < len(rest_full):
                ctx.lwrite(*rest_full[i])
            if i == 0:
                ctx.lwrite_elementwise(e_out[half:], e_in[half:])
        if not rest_full and not rest_payload:
            ctx.lwrite_elementwise(e_out[half:], e_in[half:])
    return ctx.sink


def _store_answers(store, q_out, q_in):
    """Matched AND mismatched reads, order-normalised."""
    strategy = store.strategy
    if strategy.mode is LineageMode.PAY:
        matched, hits, payloads = store.backward_payload_rows(q_out)
        keys, koff, vbuf, voff = store.payload_entries()
        entries = sorted(
            (tuple(keys[koff[e]: koff[e + 1]].tolist()), bytes(vbuf[voff[e]: voff[e + 1]]))
            for e in range(koff.size - 1)
        )
        return (
            matched.tolist(),
            sorted(zip(hits.tolist(), payloads)),
            entries,
        )
    if strategy.orientation is Orientation.BACKWARD:
        backward, forward = store.backward_full, store.scan_forward_full
    else:
        backward, forward = store.scan_backward_full, store.forward_full
    matched, per_input = backward(q_out)
    return (
        matched.tolist(),
        [sorted(set(cells.tolist())) for cells in per_input],
        sorted(set(forward(q_in, 0).tolist())),
    )


class TestEmissionFormEquivalence:
    @pytest.mark.parametrize("strategy", ALL_LAYOUTS, ids=lambda s: s.label)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stores_cannot_tell_how_pairs_were_emitted(self, strategy, seed):
        rng = np.random.default_rng(seed)
        full, payload, elementwise = _random_lineage(rng)
        q_out = rng.choice(SIZE, size=12, replace=False)
        q_in = rng.choice(SIZE, size=12, replace=False)
        seen = {}
        for how in ("per_pair", "batched", "interleaved"):
            store = make_store("n", strategy, SHAPE, (SHAPE,))
            store.ingest(_emit(how, full, payload, elementwise))
            seen[how] = (
                _store_answers(store, q_out, q_in),
                store.n_entries,
                store.disk_bytes(),
            )
        assert seen["per_pair"] == seen["batched"] == seen["interleaved"]

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_counts_are_rows_however_emitted(self, seed):
        """``n_pairs`` and every ``record_sink`` count see per-pair calls
        and the batch that replaces them as the same rows."""
        full, payload, elementwise = _random_lineage(np.random.default_rng(seed))
        counted = []
        for how in ("per_pair", "batched", "interleaved"):
            sink = _emit(how, full, payload, elementwise)
            stats = StatsCollector()
            stats.record_sink("n", sink)
            s = stats.get("n")
            counted.append(
                (
                    sink.n_pairs, s.n_pairs, s.n_outcells, s.n_incells,
                    s.n_payload_pairs, s.n_payload_outcells, s.payload_bytes,
                )
            )
        assert counted[0] == counted[1] == counted[2]
        n_rows = len(full) + len(payload) + len(elementwise[0])
        assert counted[0][:2] == (n_rows, n_rows)
