"""The ``sky`` workflow, its seeded inputs, a brute-force oracle, and the
four workloads of the end-to-end benchmark.

Everything here is built from the public ``repro`` API only — nothing is
imported from ``tests/`` or ``repro.bench`` — so deleting code under
``src/`` cannot change the load this file generates.

The workflow is the paper's astronomy shape cut to its lineage-relevant
core::

    img -> smooth (Convolve2D, mapping lineage, nothing stored)
        -> s1 (spot UDF, radius 1, FULL_ONE_B, per-pair ``lwrite`` calls)
        -> s2 (spot UDF, radius 2, FULL_MANY_B, one columnar ``lwrite_batch``)
        -> s3 (spot UDF, radius 1, PAY_ONE_B, payload = radius)

A *delta* is the re-observation of one tile of the sky: the image is
re-drawn inside the tile, the workflow re-runs, and the UDFs record
lineage for the tile's output cells only.  Appended to a catalog it
becomes one delta generation whose key range is the tile — which is what
gives the generation filters something to skip.

Query classes (48 cells drawn from one 16x16 box, the region a scientist
is debugging):

* ``point``        — matched orientation: backward over ``s1``,
                     ``s2 -> s1``, ``s3 -> s2``;
* ``scan``         — mismatched orientation through a Full store
                     (``BatchProbe``): forward over ``s1 -> s2``, ``s2``;
* ``payload_scan`` — forward over ``s3``: ``map_p_batch`` over every
                     entry of the payload store.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro import (
    FULL_MANY_B,
    FULL_ONE_B,
    MAP,
    PAY_ONE_B,
    LineageMode,
    Operator,
    QueryRequest,
    SciArray,
    SubZero,
    VersionStore,
    WorkflowSpec,
    ops,
)
from repro.arrays import coords as C
from repro.serving import DaemonClient, QueryDaemon

__all__ = ["QUERY_ONLY", "QUERY_OPS", "SCALES", "WORKLOADS", "Harness", "run_workload"]

_now = time.perf_counter

#: (spot radius per node) — the whole lineage relation of the workflow
RADIUS = {"s1": 1, "s2": 2, "s3": 1}
#: share of smoothed pixels s1 marks hot; a quantile, not a fixed level,
#: so every seed stores the same number of region pairs
HOT_SHARE = 0.31

QUERY_SHAPES = {
    "point": (("backward", ("s1",)), ("backward", ("s2", "s1")), ("backward", ("s3", "s2"))),
    "scan": (("forward", ("s1", "s2")), ("forward", ("s2",))),
    "payload_scan": (("forward", ("s3",)),),
}
QUERY_CLASSES = tuple(QUERY_SHAPES)
#: op classes that are lineage queries (a cold open answers one too)
QUERY_OPS = QUERY_CLASSES + ("cold_first_query",)
#: workloads whose own traffic is queries only: the cold opens and write
#: cycles they also run exist to sample the write-side end-to-end metrics
#: and are left out of their per-layer accounting
QUERY_ONLY = ("query-hot", "daemon-mixed")


@dataclass(frozen=True)
class Scale:
    """Input sizes and per-round operation counts."""

    shape: tuple[int, int]
    tiles: tuple[int, int]
    setup_reps: int
    #: distinct requests per class (the oracle answers each once)
    pool: dict
    #: per round: {workload: {class: count}}
    mix: dict
    cells_per_query: int = 48
    box: int = 16
    lsm_deltas: int = 11
    cold_opens: int = 16
    write_cycles: int = 1
    bare_runs: int = 9
    crosscheck: tuple = (9, 4, 1)


SCALES = {
    "full": Scale(
        shape=(96, 112),
        tiles=(3, 4),
        setup_reps=3,
        pool={"point": 90, "scan": 40, "payload_scan": 3},
        mix={
            "capture-flush": {"point": 150, "scan": 30, "payload_scan": 1},
            "query-hot": {"point": 600, "scan": 120, "payload_scan": 2},
            "query-lsm": {"point": 200, "scan": 40, "payload_scan": 1},
            # per client thread (payload scans: first client only)
            "daemon-mixed": {"point": 130, "scan": 26, "payload_scan": 1},
        },
    ),
    "tiny": Scale(
        shape=(40, 48),
        tiles=(2, 2),
        setup_reps=1,
        pool={"point": 12, "scan": 6, "payload_scan": 1},
        mix={
            "capture-flush": {"point": 12, "scan": 4, "payload_scan": 1},
            "query-hot": {"point": 60, "scan": 12, "payload_scan": 1},
            "query-lsm": {"point": 60, "scan": 12, "payload_scan": 1},
            "daemon-mixed": {"point": 30, "scan": 6, "payload_scan": 1},
        },
        box=12,
        lsm_deltas=3,
        cold_opens=2,
        write_cycles=1,
        bare_runs=2,
        crosscheck=(3, 2, 1),
    ),
}


# -- the workflow ---------------------------------------------------------------


class SpotDetect(Operator):
    """Threshold detector UDF: a hot output cell depends on the
    ``(2r+1)^2`` neighbourhood of its input, a cold one on its own cell.

    ``quantile`` sets the threshold at that quantile of the input instead
    of a fixed level.  ``window`` (``r0, r1, c0, c1``) restricts lineage
    recording to one tile; ``columnar`` picks the capture call: one
    ``lwrite_batch`` for all hot cells, or the per-pair ``lwrite`` a UDF
    author writes first.
    """

    arity = 1
    payload_uniform = False
    entire_array_safe = True

    def __init__(self, radius, thresh=0.5, quantile=None, columnar=False, window=None, name=None):
        super().__init__(name)
        self.radius = int(radius)
        self.thresh = float(thresh)
        self.quantile = quantile
        self.columnar = columnar
        self.window = window
        self._offsets = _square_offsets(self.radius)

    def compute(self, inputs):
        values = inputs[0].values()
        thresh = self.thresh if self.quantile is None else np.quantile(values, self.quantile)
        return SciArray.from_numpy((values > thresh).astype(np.float64), name=self.name)

    def supported_modes(self):
        return frozenset({LineageMode.FULL, LineageMode.PAY, LineageMode.BLACKBOX})

    def write_lineage(self, inputs, output, ctx):
        mask = output.values() > 0.5
        inside = window_mask(mask.shape, self.window)
        hot = np.stack(np.nonzero(mask & inside), axis=1).astype(np.int64)
        cold = np.stack(np.nonzero(~mask & inside), axis=1).astype(np.int64)
        shape = self.input_shapes[0]
        if ctx.wants_full:
            if self.columnar:
                spread = hot[:, None, :] + self._offsets[None, :, :]
                valid = ((spread >= 0) & (spread < np.asarray(shape))).all(axis=2)
                in_offsets = np.zeros(hot.shape[0] + 1, dtype=np.int64)
                np.cumsum(valid.sum(axis=1), out=in_offsets[1:])
                ctx.lwrite_batch(
                    hot, np.arange(hot.shape[0] + 1), [spread[valid]], [in_offsets]
                )
            else:
                for cell in hot:
                    ctx.lwrite(cell.reshape(1, -1), C.clip_coords(cell + self._offsets, shape))
            if cold.shape[0]:
                ctx.lwrite_elementwise(cold, cold)
        if LineageMode.PAY in ctx.cur_modes:
            ctx.lwrite_payload_batch(
                hot, np.full((hot.shape[0], 1), self.radius, dtype=np.uint8)
            )
            ctx.lwrite_payload_batch(cold, np.zeros((cold.shape[0], 1), dtype=np.uint8))

    def map_b_many(self, out_coords, input_idx):
        return C.as_coord_array(out_coords, ndim=2)

    def map_f_many(self, in_coords, input_idx):
        return C.as_coord_array(in_coords, ndim=2)

    def map_p_many(self, out_coords, payload, input_idx):
        radius = payload[0]
        if radius == 0:
            return C.as_coord_array(out_coords, ndim=2)
        return ops.dilate_coords(out_coords, _square_offsets(radius), self.input_shapes[0])


def _square_offsets(radius: int) -> np.ndarray:
    axis = np.arange(-radius, radius + 1)
    grid = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)


def window_mask(shape, window) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    if window is None:
        mask[:] = True
    else:
        r0, r1, c0, c1 = window
        mask[r0:r1, c0:c1] = True
    return mask


def sky_spec(window=None) -> WorkflowSpec:
    spec = WorkflowSpec(name="sky")
    spec.add_source("img")
    spec.add_node("smooth", ops.Convolve2D(ops.gaussian_kernel(3)), ["img"])
    spec.add_node("s1", SpotDetect(1, quantile=1.0 - HOT_SHARE, window=window), ["smooth"])
    spec.add_node("s2", SpotDetect(2, columnar=True, window=window), ["s1"])
    spec.add_node("s3", SpotDetect(1, window=window), ["s2"])
    return spec


def sky_engine(window=None, memory_budget_bytes=None) -> SubZero:
    """An engine over the sky workflow with the benchmark's storage plan.
    The query-time optimizer is off: a class must take the path its name
    says, not whichever the cost model prefers that day."""
    sz = SubZero(
        sky_spec(window), enable_query_opt=False, memory_budget_bytes=memory_budget_bytes
    )
    sz.set_strategy("smooth", MAP)
    sz.set_strategy("s1", FULL_ONE_B)
    sz.set_strategy("s2", FULL_MANY_B)
    sz.set_strategy("s3", PAY_ONE_B)
    return sz


# -- the oracle -----------------------------------------------------------------


class Reference:
    """Brute-force lineage of the sky workflow: per generation, the tile it
    recorded and each node's hot mask (taken from the run's output arrays,
    never from a lineage store).  A step is two boolean-array expressions;
    a catalog of several generations answers with their union, step by
    step, exactly as the overlay must."""

    def __init__(self, shape):
        self.shape = shape
        self.generations: list[tuple[np.ndarray, dict]] = []

    def add_generation(self, window, versions: VersionStore) -> None:
        hot = {
            node: versions.latest(node).array.values() > 0.5 for node in RADIUS
        }
        self.generations.append((window_mask(self.shape, window), hot))

    def prefix(self, n: int) -> "Reference":
        ref = Reference(self.shape)
        ref.generations = self.generations[:n]
        return ref

    def step(self, node: str, backward: bool, frontier: np.ndarray) -> np.ndarray:
        size = 2 * RADIUS[node] + 1
        square = np.ones((size, size), dtype=bool)
        out = np.zeros(self.shape, dtype=bool)
        for inside, hot in self.generations:
            recorded_hot = hot[node] & inside
            # a cold cell maps to itself, in both directions
            out |= frontier & inside & ~hot[node]
            if backward:
                out |= ndimage.binary_dilation(frontier & recorded_hot, structure=square)
            else:
                out |= recorded_hot & ndimage.binary_dilation(frontier, structure=square)
        return out

    def answer(self, request: QueryRequest) -> np.ndarray:
        """Sorted packed (row-major) cells of the request's answer."""
        frontier = np.zeros(self.shape, dtype=bool)
        cells = np.asarray(request.cells)
        frontier[cells[:, 0], cells[:, 1]] = True
        backward = request.direction == "backward"
        for node, _idx in request.path:
            frontier = self.step(node, backward, frontier)
        return np.flatnonzero(frontier)


def packed(coords, shape) -> np.ndarray:
    """Sorted packed form of an answer's coordinate rows (ndarray or the
    wire form's list of lists)."""
    arr = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    return np.sort(arr[:, 0] * shape[1] + arr[:, 1])


# -- seeded inputs ----------------------------------------------------------------


class Inputs:
    """Everything ``--seed`` decides: image, tile re-observations, the
    request pool per class, and the per-round class interleave."""

    def __init__(self, scale: Scale, seed: int, workload: str):
        rng = np.random.default_rng(seed)
        self.scale = scale
        self.shape = scale.shape
        self.image = rng.random(scale.shape)
        rows, cols = scale.tiles
        h, w = scale.shape[0] // rows, scale.shape[1] // cols
        order = rng.permutation(rows * cols)
        self.deltas = []
        for tile in order:
            r, c = divmod(int(tile), cols)
            window = (r * h, (r + 1) * h, c * w, (c + 1) * w)
            image = self.image.copy()
            image[window[0]:window[1], window[2]:window[3]] = rng.random((h, w))
            self.deltas.append((window, image))
        self.requests = {
            cls: [self._request(rng, cls, i) for i in range(scale.pool[cls])]
            for cls in QUERY_CLASSES
        }
        mix = scale.mix[workload]
        # one schedule per client thread (single-caller workloads use the
        # first).  Only the first client issues payload scans: two of them
        # overlapping would make their latency bimodal, and the contention
        # to show is a slow class beside another client's point queries
        self.schedules = [
            self._schedule(rng, mix),
            self._schedule(rng, {**mix, "payload_scan": 0}),
        ]

    def _request(self, rng, cls: str, i: int) -> QueryRequest:
        shapes = QUERY_SHAPES[cls]
        direction, path = shapes[i % len(shapes)]
        box, n = self.scale.box, self.scale.cells_per_query
        r0 = rng.integers(0, self.shape[0] - box + 1)
        c0 = rng.integers(0, self.shape[1] - box + 1)
        cells = np.stack(
            [rng.integers(r0, r0 + box, n), rng.integers(c0, c0 + box, n)], axis=1
        )
        make = QueryRequest.backward if direction == "backward" else QueryRequest.forward
        return make(cells, [(node, 0) for node in path])

    def _schedule(self, rng, mix: dict) -> list[tuple[str, int]]:
        """One round's (class, pool index) sequence, classes interleaved."""
        classes = np.concatenate(
            [np.full(count, k) for k, count in enumerate(mix[c] for c in QUERY_CLASSES)]
        )
        rng.shuffle(classes)
        seen = dict.fromkeys(QUERY_CLASSES, 0)
        out = []
        for k in classes:
            cls = QUERY_CLASSES[int(k)]
            out.append((cls, seen[cls] % len(self.requests[cls])))
            seen[cls] += 1
        return out

    def digest(self, manifests: list[bytes]) -> str:
        """sha256 over the generated requests, the schedules and the
        catalog manifest(s): two runs with the same digest served the same
        load from the same bytes."""
        sha = hashlib.sha256()
        for cls in QUERY_CLASSES:
            for request in self.requests[cls]:
                sha.update(json.dumps(request.to_dict(), sort_keys=True).encode())
        sha.update(json.dumps(self.schedules).encode())
        for manifest in manifests:
            sha.update(manifest)
        return sha.hexdigest()


# -- measurement ------------------------------------------------------------------


class Harness:
    """Times end-to-end operations, checks each against its expected
    answer, and keeps every sample."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        #: (class, seconds, ok) — appended from any thread
        self.log: list[tuple[str, float, bool]] = []
        self.rounds = 0
        self.errors: list[str] = []
        #: values that are not latencies (bytes, ratios), by metric name
        self.values: dict[str, list[float]] = {}
        #: counters summed from engines before they close
        self.stats: dict[str, float] = {}

    def op(self, cls: str, fn, check=None, ambient=True):
        """Run ``fn`` as one operation of class ``cls``; ``check(result)``
        says whether the answer is right (run outside the timed region)."""
        tracer = self.tracer
        token = tracer.begin_op(cls, ambient) if tracer is not None else None
        result, error = None, None
        start = _now()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 -- any failure is a failed op, reported below
            error = exc
        seconds = _now() - start
        if token is not None:
            tracer.end_op(token)
        ok = error is None and (check is None or bool(check(result)))
        self.log.append((cls, seconds, ok))
        if not ok and len(self.errors) < 5:
            self.errors.append(f"{cls}: {error!r}" if error is not None else f"{cls}: wrong answer")
        return result

    def value(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(float(value))

    def samples(self, cls: str) -> list[float]:
        return [entry[1] for entry in self.log if entry[0] == cls]

    def harvest(self, sz: SubZero, baseline: dict | None = None) -> None:
        """Fold an engine's serving/capture counters in before it closes
        (less ``baseline``, what it had counted before the timed phase)."""
        if sz.runtime is None:
            return
        stats = dict(sz.runtime.serving_stats())
        for key, value in (baseline or {}).items():
            if isinstance(value, (int, float)):
                stats[key] -= value
        catalog = sz.runtime.catalog
        probes = getattr(catalog, "probes_by_partition", None)
        if probes is not None:
            by_pid = probes()
            stats["idle_partition_opens"] = sum(
                catalog.partition(pid).stats()["misses"]
                for pid in catalog.partition_ids()
                if not by_pid.get(pid) and catalog.partition(pid) is not None
            )
        for key, value in stats.items():
            if isinstance(value, (int, float)) and key not in ("open_mappings", "resident_bytes"):
                self.stats[key] = self.stats.get(key, 0) + value


# -- the world a workload runs in ---------------------------------------------------


class World:
    """One set-up: the lineage captured, flushed and appended, the oracle
    built from it, and the serving face the workload queries."""

    def __init__(self, workload: str, scale: Scale, seed: int, workdir: str, harness: Harness):
        self.workload = workload
        self.scale = scale
        self.inputs = Inputs(scale, seed, workload)
        self.workdir = workdir
        self.harness = harness
        #: side operations keep their engines' counters out of the totals
        self.side_ops = workload in QUERY_ONLY
        self.partitions = 4 if workload == "query-lsm" else None
        self.n_deltas = {"query-lsm": scale.lsm_deltas, "capture-flush": 1}.get(workload, 0)
        #: the tile the timed phase re-observes and appends: the newest one
        #: already in the served catalog, so the served answers never change
        self.delta_input = self.inputs.deltas[max(1, self.n_deltas) - 1]
        self.pristine = os.path.join(workdir, "pristine")
        self.budget = None
        self.serving: SubZero | None = None
        self.delta: SubZero | None = None
        self._warm_stats: dict = {}
        self.daemon: QueryDaemon | None = None
        self.clients: list[tuple[DaemonClient, ThreadPoolExecutor]] = []
        self._scratch = 0
        self.cold_seen = 0
        self._closers: list = []

    # -- set-up -----------------------------------------------------------------

    def build(self) -> "World":
        inputs = self.inputs
        self.base = self.durable_run(self.pristine, self.partitions)
        self._closers.append(self.base.close)
        self.reference = Reference(inputs.shape)
        self.reference.add_generation(None, self.base.instance.versions)
        for window, pixels in inputs.deltas[: self.n_deltas]:
            self.fresh_append(self.pristine, (window, pixels))
            self.reference.add_generation(window, self.delta.instance.versions)
        self._closers.append(lambda: self.delta is None or self.delta.close())
        self.expected = {
            cls: [self.reference.answer(r) for r in inputs.requests[cls]]
            for cls in QUERY_CLASSES
        }
        self.crosscheck()
        if self.workload == "query-lsm":
            self.budget = self.segment_bytes(self.pristine) // 3
        if self.workload in QUERY_ONLY:
            self.serving = self.resume(self.pristine)
            self._closers.append(self._close_serving)
        if self.workload == "daemon-mixed":
            self.daemon = QueryDaemon(self.serving, port=0).start()
            self._closers.append(self.daemon.stop)
            host, port = self.daemon.address
            # one single-thread pool per client: the thread lives as long as
            # the keep-alive connection DaemonClient pools for it
            for i in (0, 1):
                client = DaemonClient(host, port, client_id=f"bench-{i}")
                pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"bench-{i}")
                self.clients.append((client, pool))
                self._closers += [client.close, pool.shutdown]
        self.warm()
        return self

    def crosscheck(self) -> None:
        """The oracle against the in-memory engine, before anything is
        served from disk: a sample of every class on the base generation.
        A mismatch here is a broken benchmark, not a failed operation."""
        base_only = self.reference.prefix(1)
        for cls, count in zip(QUERY_CLASSES, self.scale.crosscheck):
            for request in self.inputs.requests[cls][:count]:
                got = packed(self.base.query(request).coords, self.inputs.shape)
                if not np.array_equal(got, base_only.answer(request)):
                    raise AssertionError(f"oracle disagrees with the in-memory engine on {request}")

    def warm(self) -> None:
        """Open every store and fill every lowered table before timing."""
        if self.serving is None:
            return
        for cls in QUERY_CLASSES:
            for request in self.inputs.requests[cls][: len(QUERY_SHAPES[cls])]:
                self.serving.query(request)
        first = self.inputs.requests["point"][0]
        self.run_clients([lambda c: (c.wait_ready(), c.query(first))] * len(self.clients))
        self._warm_stats = dict(self.serving.runtime.serving_stats())

    def _close_serving(self) -> None:
        self.harness.harvest(self.serving, self._warm_stats)
        self.serving.close()

    @staticmethod
    def segment_bytes(directory: str) -> int:
        total = 0
        for root, _dirs, files in os.walk(directory):
            total += sum(
                os.path.getsize(os.path.join(root, f)) for f in files if ".seg" in f
            )
        return total

    def manifests(self) -> list[bytes]:
        out = []
        for root, _dirs, files in sorted(os.walk(self.pristine)):
            for name in sorted(files):
                if name.endswith(".json"):
                    with open(os.path.join(root, name), "rb") as fh:
                        out.append(fh.read())
        return out

    def close(self) -> None:
        for closer in reversed(self._closers):
            closer()
        self._closers.clear()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- write-side operations -------------------------------------------------------

    def scratch_dir(self) -> str:
        self._scratch += 1
        return os.path.join(self.workdir, f"scratch-{self._scratch}")

    def bare_run(self) -> float:
        """The workflow with no lineage strategy: the capture baseline."""
        image = SciArray.from_numpy(self.inputs.image)
        with SubZero(sky_spec()) as bare:
            start = _now()
            bare.run({"img": image})
            seconds = _now() - start
        self.harness.value("bare_run_s", seconds)
        return seconds

    def durable_run(self, directory: str, partitions=None) -> SubZero:
        """Run the workflow with capture on and flush its lineage to a
        fresh catalog at ``directory``: one ``durable_run`` operation, from
        ``run()`` to ``flush_lineage`` returning.  The bare runs just
        before it are its baseline, so the overhead ratio pairs two
        measurements taken within the same second."""
        h = self.harness
        bare = statistics.median(self.bare_run() for _ in range(self.scale.bare_runs))
        sz = sky_engine()
        image = SciArray.from_numpy(self.inputs.image)

        def durable():
            sz.run({"img": image}, version_store=VersionStore())
            return sz.flush_lineage(directory, partitions=partitions)

        nbytes = h.op("durable_run", durable)
        if nbytes is not None:
            h.value("capture_overhead_ratio", h.log[-1][1] / bare)
            h.value("lineage_bytes_per_input_byte", nbytes / self.inputs.image.nbytes)
        return sz

    def capture_delta(self, delta_input=None) -> None:
        """Re-observe one tile: ``self.delta`` becomes the engine holding
        that run's lineage in memory, ready to be appended."""
        window, pixels = delta_input or self.delta_input

        def run():
            delta = sky_engine(window)
            delta.run({"img": SciArray.from_numpy(pixels)}, version_store=VersionStore())
            return delta

        if self.delta is not None:
            self.delta.close()
        self.delta = self.harness.op("delta_run", run)

    def append(self, directory: str) -> None:
        """Commit the captured delta as one more generation."""
        self.harness.op("append", lambda: self.delta.flush_lineage(directory, append=True))

    def fresh_append(self, directory: str, delta_input=None) -> None:
        self.capture_delta(delta_input)
        self.append(directory)

    def compact_slice(self, sz: SubZero) -> None:
        """One budgeted compaction slice over ``sz``'s catalog.  A one-byte
        budget admits exactly the first candidate per catalog: one slice,
        the same keys every time."""
        self.harness.op(
            "compact_slice",
            lambda: sz.compact_lineage(budget_bytes=1),
            lambda report: bool(report.compacted),
        )

    def write_cycle(self, directory: str) -> None:
        """Append a freshly captured delta to the catalog at ``directory``,
        then compact one slice of it from a reader attached to it."""
        self.fresh_append(directory)
        reader = sky_engine()
        reader.load_lineage(directory)
        self.compact_slice(reader)
        self.retire(reader)

    def side_lifecycle(self) -> None:
        """What a query-only workload runs between query phases to sample
        the metrics its queries never touch: cold opens of the served
        catalog, one durable run into a scratch catalog with a write cycle
        over it, and ``write_cycles`` more over copies of the served
        catalog — none of which changes a served answer."""
        for _ in range(self.scale.cold_opens):
            self.cold_open(self.pristine)
        directory = self.scratch_dir()
        self.retire(self.durable_run(directory))
        self.write_cycle(directory)
        shutil.rmtree(directory)
        for _ in range(self.scale.write_cycles):
            directory = self.scratch_dir()
            shutil.copytree(self.pristine, directory)
            self.write_cycle(directory)
            shutil.rmtree(directory)

    # -- read-side operations --------------------------------------------------------

    def resume(self, directory: str, budget=None, source: SubZero | None = None) -> SubZero:
        """A fresh engine over the catalog at ``directory``; arrays and WAL
        come from ``source`` (default: the set-up's base run)."""
        source = source or self.base
        sz = sky_engine(memory_budget_bytes=budget)
        sz.resume(source.instance.versions, wal=source.wal, lineage_dir=directory)
        return sz

    def retire(self, sz: SubZero) -> None:
        if not self.side_ops:
            self.harness.harvest(sz)
        sz.close()

    def check(self, cls: str, idx: int):
        want = self.expected[cls][idx]
        shape = self.inputs.shape
        return lambda result: np.array_equal(packed(result, shape), want)

    def embedded_query(self, sz: SubZero, cls: str, idx: int) -> None:
        request = self.inputs.requests[cls][idx]
        self.harness.op(cls, lambda: sz.query(request).coords, self.check(cls, idx))

    def query_phase(self, sz: SubZero, schedule) -> float:
        start = _now()
        for cls, idx in schedule:
            self.embedded_query(sz, cls, idx)
        return _now() - start

    def cold_open(self, directory: str, budget=None, source=None, keep=False):
        """A fresh engine resumed over ``directory`` answers its first
        query.  The engine is handed back when ``keep`` is set, else closed
        outside the timed region."""
        opened = []
        # a different first query each time: the cost of a cold open depends
        # on which generations that query has to map
        idx = self.cold_seen % len(self.inputs.requests["point"])
        self.cold_seen += 1
        request = self.inputs.requests["point"][idx]

        def first():
            opened.append(self.resume(directory, budget, source))
            return opened[0].query(request).coords

        self.harness.op("cold_first_query", first, self.check("point", idx))
        if keep:
            return opened[0]
        for sz in opened:
            self.retire(sz)

    def run_clients(self, jobs) -> float:
        """Run ``jobs[i](client)`` on client thread ``i``, all released
        together; returns the wall seconds until the last one finished."""
        start = _now()
        futures = [pool.submit(job, client) for (client, pool), job in zip(self.clients, jobs)]
        for future in futures:
            future.result()
        return _now() - start


# -- the four workloads ---------------------------------------------------------------


def round_capture_flush(world: World) -> None:
    """Capture, flush, append, and prove it durable: a fresh engine over
    the flushed bytes alone must give the answers the oracle derived from
    the run's arrays."""
    h, schedule = world.harness, world.inputs.schedules[0]
    directory = world.scratch_dir()
    sz = world.durable_run(directory)
    world.fresh_append(directory)
    for _ in range(world.scale.cold_opens - 1):
        world.cold_open(directory, source=sz)
    served = world.cold_open(directory, source=sz, keep=True)
    h.value("queries_per_s", len(schedule) / world.query_phase(served, schedule))
    world.compact_slice(served)
    world.retire(served)
    world.retire(sz)
    shutil.rmtree(directory)


def round_query_hot(world: World) -> None:
    h, schedule = world.harness, world.inputs.schedules[0]
    h.value("queries_per_s", len(schedule) / world.query_phase(world.serving, schedule))
    world.side_lifecycle()


def round_query_lsm(world: World) -> None:
    """One replay from the pristine multi-generation catalog: cold opens,
    then the query schedule with a pre-captured append committed at its
    midpoint and a compaction slice at its end — fixed operation indices,
    no timer."""
    h, schedule = world.harness, world.inputs.schedules[0]
    directory = world.scratch_dir()
    shutil.copytree(world.pristine, directory)
    world.capture_delta()
    for _ in range(world.scale.cold_opens):
        world.cold_open(directory, world.budget)
    sz = world.resume(directory, world.budget)
    half = len(schedule) // 2
    elapsed = world.query_phase(sz, schedule[:half])
    world.append(directory)
    elapsed += world.query_phase(sz, schedule[half:])
    h.value("queries_per_s", len(schedule) / elapsed)
    world.compact_slice(sz)
    world.retire(sz)
    shutil.rmtree(directory)


def round_daemon_mixed(world: World) -> None:
    """Two closed-loop clients: the first works through its schedule, the
    second keeps cycling through its own (no payload scans) until the
    first is done, so every query of the first has company on the GIL."""
    h, inputs = world.harness, world.inputs
    before = len(h.log)
    first_done = threading.Event()

    def query(client: DaemonClient, cls: str, idx: int) -> None:
        request = inputs.requests[cls][idx]
        h.op(cls, lambda: client.query(request)["coords"], world.check(cls, idx), ambient=False)

    def first(client: DaemonClient) -> None:
        try:
            for cls, idx in inputs.schedules[0]:
                query(client, cls, idx)
        finally:
            first_done.set()

    def second(client: DaemonClient) -> None:
        for cls, idx in itertools.cycle(inputs.schedules[1]):
            if first_done.is_set():
                return
            query(client, cls, idx)

    elapsed = world.run_clients([first, second])
    h.value("queries_per_s", (len(h.log) - before) / elapsed)
    world.side_lifecycle()


WORKLOADS = {
    "capture-flush": round_capture_flush,
    "query-hot": round_query_hot,
    "query-lsm": round_query_lsm,
    "daemon-mixed": round_daemon_mixed,
}


def run_workload(workload: str, scale: Scale, seed: int, seconds: float, workdir: str, tracer=None):
    """Set up ``scale.setup_reps`` times (keeping the last), then repeat the
    workload's round until ``seconds`` have passed.  Returns the harness,
    the set-up times and the load digest."""
    harness = Harness(tracer)
    setup_seconds = []
    world = None
    for rep in range(scale.setup_reps):
        if world is not None:
            world.close()
        start = _now()
        world = World(workload, scale, seed, os.path.join(workdir, f"world-{rep}"), harness).build()
        setup_seconds.append(_now() - start)
    digest = world.inputs.digest(world.manifests())
    # the operations set-up timed stay as samples; its counters do not
    harness.stats.clear()
    # what set-up left alive is the long-lived state of a serving process:
    # keep the collector from re-walking it in the middle of a query
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.enabled = True
    try:
        deadline = _now() + seconds
        while True:
            world.cold_seen = 0  # every round asks the same first queries
            WORKLOADS[workload](world)
            harness.rounds += 1
            if _now() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.enabled = False
        gc.unfreeze()
        gate = world.daemon.gate.stats() if world.daemon is not None else {}
        world.close()
    harness.stats["gate_rejected"] = gate.get("rejected", 0)
    harness.value("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return harness, setup_seconds, digest
