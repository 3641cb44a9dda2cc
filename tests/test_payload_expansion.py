"""Payload lineage expansion: the work it does and the multi-generation path.

``map_p`` turns a stored payload back into input cells at query time.  The
query paths ask :meth:`Operator.map_p_many` once per *group* of cells that
share a payload — a backward query expands each distinct payload once, a
forward scan group-tests blocks of stored rows against the query — so the
number of calls is a deterministic work count, asserted here instead of a
wall-clock bound.  The multi-generation tests compare payload queries over
a base generation plus appended tile deltas against a per-cell ``map_p``
brute force computed in the test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    FULL_MANY_B,
    FULL_ONE_B,
    PAY_MANY_B,
    PAY_ONE_B,
    QueryRequest,
    SciArray,
    SubZero,
    VersionStore,
    WorkflowSpec,
    ops,
)
from repro.arrays import coords as C
from repro.core.modes import LineageMode
from repro.core.overlay import OverlayStore
from repro.ops.base import Operator


class TileSpot(Operator):
    """Threshold detector: a hot cell depends on the ``(2r+1)^2``
    neighbourhood of its input cell, a cold one on its own cell.

    Lineage is recorded inside ``window`` (``r0, r1, c0, c1``) only, so a
    run over a re-observed tile is one appendable generation.  Payload
    lineage is one radius byte: hot cells of one image row form one
    multi-cell payload pair, cold cells are single-cell pairs of radius 0.
    ``calls`` counts :meth:`map_p_many` invocations.
    """

    arity = 1
    payload_uniform = False

    def __init__(self, radius, thresh=0.5, window=None, name=None):
        super().__init__(name)
        self.radius = int(radius)
        self.thresh = float(thresh)
        self.window = window
        self.calls = 0

    def compute(self, inputs):
        values = inputs[0].values()
        return SciArray.from_numpy((values > self.thresh).astype(np.float64), name=self.name)

    def supported_modes(self):
        return frozenset({LineageMode.FULL, LineageMode.PAY, LineageMode.BLACKBOX})

    def _recorded(self, mask):
        inside = np.zeros(mask.shape, dtype=bool)
        if self.window is None:
            inside[:] = True
        else:
            r0, r1, c0, c1 = self.window
            inside[r0:r1, c0:c1] = True
        hot = np.stack(np.nonzero(mask & inside), axis=1).astype(np.int64)
        cold = np.stack(np.nonzero(~mask & inside), axis=1).astype(np.int64)
        return hot, cold

    def write_lineage(self, inputs, output, ctx):
        hot, cold = self._recorded(output.values() > 0.5)
        if ctx.wants_full:
            offsets = _square_offsets(self.radius)
            spread = hot[:, None, :] + offsets[None, :, :]
            valid = ((spread >= 0) & (spread < np.asarray(self.input_shapes[0]))).all(axis=2)
            in_offsets = np.zeros(hot.shape[0] + 1, dtype=np.int64)
            np.cumsum(valid.sum(axis=1), out=in_offsets[1:])
            ctx.lwrite_batch(hot, np.arange(hot.shape[0] + 1), [spread[valid]], [in_offsets])
            ctx.lwrite_elementwise(cold, cold)
        if LineageMode.PAY in ctx.cur_modes:
            # hot cells of one row share a pair: hot is row-major ordered
            starts = np.flatnonzero(np.r_[True, hot[1:, 0] != hot[:-1, 0]]) if hot.size else []
            out_offsets = np.append(starts, hot.shape[0]).astype(np.int64)
            n_pairs = out_offsets.size - 1
            ctx.lwrite_payload_regions(
                hot, out_offsets, bytes([self.radius]) * n_pairs, np.arange(n_pairs + 1)
            )
            ctx.lwrite_payload_batch(cold, np.zeros((cold.shape[0], 1), dtype=np.uint8))

    def map_p_many(self, out_coords, payload, input_idx):
        self.calls += 1
        if payload[0] == 0:
            return C.as_coord_array(out_coords, ndim=2)
        return ops.dilate_coords(out_coords, _square_offsets(payload[0]), self.input_shapes[0])


def _square_offsets(radius: int) -> np.ndarray:
    axis = np.arange(-radius, radius + 1)
    grid = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)


def sky_like(window=None) -> SubZero:
    """img -> s1 -> s2 -> s3, radii 1/2/1, stored as FullOne / FullMany /
    a payload store: the shape of the end-to-end ``sky`` workflow."""
    spec = WorkflowSpec(name="sky-like")
    spec.add_source("img")
    spec.add_node("s1", TileSpot(1, thresh=0.69, window=window), ["img"])
    spec.add_node("s2", TileSpot(2, window=window), ["s1"])
    spec.add_node("s3", TileSpot(1, window=window), ["s2"])
    sz = SubZero(spec, enable_query_opt=False)
    sz.set_strategy("s1", FULL_ONE_B)
    sz.set_strategy("s2", FULL_MANY_B)
    return sz


def packed_answer(result, shape) -> np.ndarray:
    return np.sort(C.pack_coords(result.coords, shape))


# -- work counts --------------------------------------------------------------------


SHAPE = (48, 64)


@pytest.fixture
def sky(rng):
    sz = sky_like()
    sz.set_strategy("s3", PAY_ONE_B)
    sz.run({"img": SciArray.from_numpy(rng.random(SHAPE))})
    yield sz
    sz.close()


def _forward_reference(op, hot, query_packed):
    """Out cells whose per-cell ``map_p`` meets the query."""
    hits = []
    for cell in C.all_coords(SHAPE):
        payload = bytes([op.radius if hot[tuple(cell)] else 0])
        cells = C.pack_coords(op.map_p(cell, payload), SHAPE)
        if np.isin(cells, query_packed).any():
            hits.append(C.pack_coords(cell.reshape(1, -1), SHAPE)[0])
    return np.asarray(hits, dtype=np.int64)


class TestWorkCounts:
    def test_forward_scan_calls_map_p_on_few_rows(self, sky, rng):
        op = sky.instance.operator("s3")
        hot = sky.instance.output_array("s3").values() > 0.5
        r0, c0 = rng.integers(0, SHAPE[0] - 8), rng.integers(0, SHAPE[1] - 8)
        cells = np.stack([rng.integers(r0, r0 + 8, 12), rng.integers(c0, c0 + 8, 12)], axis=1)
        op.calls = 0
        result = sky.query(QueryRequest.forward(cells, [("s3", 0)]))
        stored_rows = SHAPE[0] * SHAPE[1]
        assert 0 < op.calls <= stored_rows // 10
        want = _forward_reference(op, hot, np.unique(C.pack_coords(cells, SHAPE)))
        assert np.array_equal(packed_answer(result, SHAPE), want)

    def test_backward_query_calls_map_p_once_per_distinct_payload(self, sky):
        op = sky.instance.operator("s3")
        hot = sky.instance.output_array("s3").values() > 0.5
        hot_cells = np.argwhere(hot)[:3]
        cold_cells = np.argwhere(~hot)[:3]
        cells = np.concatenate([hot_cells, cold_cells])
        op.calls = 0
        result = sky.query(QueryRequest.backward(cells, [("s3", 0)]))
        assert op.calls <= 2  # the hits carry two distinct payloads: radius 1 and 0
        want = C.unique_coords(
            np.concatenate(
                [op.map_p(c, bytes([op.radius])) for c in hot_cells]
                + [op.map_p(c, b"\x00") for c in cold_cells]
            ),
            SHAPE,
        )
        assert np.array_equal(packed_answer(result, SHAPE), np.sort(C.pack_coords(want, SHAPE)))
        # the sky point-query shape s3 -> s2 asks s3's map_p no more often
        op.calls = 0
        sky.query(QueryRequest.backward(cells, [("s3", 0), ("s2", 0)]))
        assert op.calls <= 2


# -- multi-generation payload stores -----------------------------------------------


GEN_SHAPE = (12, 16)
TILES = ((0, 6, 0, 8), (6, 12, 8, 16), (0, 6, 8, 16))


@pytest.mark.parametrize("strategy", [PAY_ONE_B, PAY_MANY_B], ids=lambda s: s.label)
def test_multi_generation_payload_queries_match_per_cell_map_p(
    strategy, tmp_path, rng, monkeypatch
):
    """A base generation plus three appended tile deltas answers backward
    and forward payload queries over ``s3`` exactly like a per-cell
    ``map_p`` brute force over every generation's recorded cells."""
    directory = str(tmp_path / "lineage")
    image = rng.random(GEN_SHAPE)
    versions = VersionStore()
    base = sky_like()
    base.set_strategy("s3", strategy)
    base.run({"img": SciArray.from_numpy(image)}, version_store=versions)
    base.flush_lineage(directory)
    # (window mask, s3 hot mask) per generation: the brute force's input
    hot = base.instance.output_array("s3").values() > 0.5
    generations = [(np.ones(GEN_SHAPE, dtype=bool), hot)]
    for r0, r1, c0, c1 in TILES:
        pixels = image.copy()
        pixels[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0))
        delta = sky_like(window=(r0, r1, c0, c1))
        delta.set_strategy("s3", strategy)
        delta.run({"img": SciArray.from_numpy(pixels)}, version_store=VersionStore())
        delta.flush_lineage(directory, append=True)
        inside = np.zeros(GEN_SHAPE, dtype=bool)
        inside[r0:r1, c0:c1] = True
        generations.append((inside, delta.instance.output_array("s3").values() > 0.5))
        delta.close()

    sz = sky_like()
    sz.set_strategy("s3", strategy)
    sz.resume(versions, wal=base.wal, lineage_dir=directory)
    assert sz.runtime.generation_count("s3", strategy) == 1 + len(TILES)
    op = sz.instance.operator("s3")
    overlay_reads = []
    original = OverlayStore.backward_payload_rows

    def spy(self, qpacked):
        overlay_reads.append(qpacked.size)
        return original(self, qpacked)

    monkeypatch.setattr(OverlayStore, "backward_payload_rows", spy)

    def lineage(cell) -> set[int]:
        """Union over generations of ``map_p(cell, payload)``."""
        out: set[int] = set()
        for inside, hot in generations:
            if inside[tuple(cell)]:
                payload = bytes([op.radius if hot[tuple(cell)] else 0])
                out.update(C.pack_coords(op.map_p(cell, payload), GEN_SHAPE).tolist())
        return out

    all_cells = C.all_coords(GEN_SHAPE)
    every = {int(p): lineage(c) for p, c in zip(C.pack_coords(all_cells, GEN_SHAPE), all_cells)}
    for _ in range(8):
        cells = np.unique(
            np.stack(
                [rng.integers(0, GEN_SHAPE[0], 5), rng.integers(0, GEN_SHAPE[1], 5)], axis=1
            ),
            axis=0,
        )
        query = set(C.pack_coords(cells, GEN_SHAPE).tolist())
        backward = sz.query(QueryRequest.backward(cells, [("s3", 0)]))
        want = sorted(set().union(*(every[p] for p in query)))
        assert packed_answer(backward, GEN_SHAPE).tolist() == want
        forward = sz.query(QueryRequest.forward(cells, [("s3", 0)]))
        want = sorted(p for p, ins in every.items() if ins & query)
        assert packed_answer(forward, GEN_SHAPE).tolist() == want
    # one overlay read verb serves both payload layouts
    assert overlay_reads
    sz.close()
    base.close()
