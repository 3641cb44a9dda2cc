"""Microbenchmark: synthetic operator with tunable lineage (§VIII-C).

One operator processes a 1000x1000 array and emits region lineage for 10%
of the output cells.  Region pairs are generated by picking a cluster of
``fanout`` output cells within a small radius and ``fanin`` input cells in
the same area, until the covered output cells reach the coverage target.
The payload variant stores ``4 * fanin`` bytes (the input cells as packed
uint32), exactly the sizing the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.core.modes import LineageMode
from repro.core.query import QueryRequest
from repro.ops.base import Operator
from repro.workflow.spec import WorkflowSpec

__all__ = ["SyntheticLineageOp", "MicroBenchmark"]


def _generate_pairs(
    shape: tuple[int, int],
    fanin: int,
    fanout: int,
    coverage: float,
    seed: int,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Random region pairs until ``coverage`` of the output has lineage."""
    rng = np.random.default_rng(seed)
    h, w = shape
    target = int(h * w * coverage)
    radius = max(2, int(np.ceil(np.sqrt(max(fanin, fanout)))))
    out_sets: list[np.ndarray] = []
    in_sets: list[np.ndarray] = []
    covered = 0
    while covered < target:
        cy = int(rng.integers(radius, h - radius))
        cx = int(rng.integers(radius, w - radius))
        outs = _cluster(rng, cy, cx, fanout, radius, shape)
        ins = _cluster(rng, cy, cx, fanin, radius, shape)
        out_sets.append(outs)
        in_sets.append(ins)
        covered += outs.shape[0]
    return out_sets, in_sets


def _cluster(rng, cy, cx, count, radius, shape) -> np.ndarray:
    """``count`` distinct cells near (cy, cx)."""
    span = 2 * radius + 1
    need = min(count, span * span)
    offsets = rng.choice(span * span, size=need, replace=False)
    dy, dx = offsets // span - radius, offsets % span - radius
    cells = np.stack([cy + dy, cx + dx], axis=1).astype(np.int64)
    return C.clip_coords(cells, shape)


class SyntheticLineageOp(Operator):
    """Identity-ish compute with pre-generated synthetic region lineage."""

    arity = 1
    payload_uniform = True

    def __init__(
        self,
        shape: tuple[int, int] = (1000, 1000),
        fanin: int = 1,
        fanout: int = 1,
        coverage: float = 0.1,
        seed: int = 0,
        name: str | None = None,
    ):
        super().__init__(name)
        self.gen_shape = tuple(shape)
        self.fanin = int(fanin)
        self.fanout = int(fanout)
        self.coverage = float(coverage)
        self.seed = int(seed)
        self._outs, self._ins = _generate_pairs(
            self.gen_shape, self.fanin, self.fanout, self.coverage, self.seed
        )
        # Pre-concatenated columnar descriptors: write_lineage emits the
        # whole lineage as one RegionBatch per mode, so capture time measures
        # the runtime's batch path, not python-level pair assembly.
        self._out_concat = np.concatenate(self._outs)
        self._in_concat = np.concatenate(self._ins)
        self._out_offsets = np.zeros(len(self._outs) + 1, dtype=np.int64)
        np.cumsum([o.shape[0] for o in self._outs], out=self._out_offsets[1:])
        self._in_offsets = np.zeros(len(self._ins) + 1, dtype=np.int64)
        np.cumsum([i.shape[0] for i in self._ins], out=self._in_offsets[1:])
        packed = C.pack_coords(self._in_concat, self.gen_shape).astype("<u4")
        self._payloads = packed.tobytes()
        self._payload_offsets = self._in_offsets * 4

    # -- data path -----------------------------------------------------------

    def compute(self, inputs: list[SciArray]) -> SciArray:
        # A couple of real array passes: black-box re-execution must pay a
        # plausible operator cost, as the paper's micro operator does (its
        # BlackBox queries cost 0.7-20 s).
        from scipy import ndimage

        values = inputs[0].values()
        smoothed = ndimage.uniform_filter(values, size=5, mode="nearest")
        return SciArray.from_numpy(values + 0.01 * smoothed, name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return frozenset({LineageMode.FULL, LineageMode.PAY, LineageMode.BLACKBOX})

    # -- lineage -----------------------------------------------------------------

    def write_lineage(self, inputs, output, ctx) -> None:
        if ctx.wants_full:
            ctx.lwrite_batch(
                self._out_concat,
                self._out_offsets,
                (self._in_concat,),
                (self._in_offsets,),
            )
        if LineageMode.PAY in ctx.cur_modes:
            ctx.lwrite_payload_regions(
                self._out_concat,
                self._out_offsets,
                self._payloads,
                self._payload_offsets,
            )

    def _encode_payload(self, ins: np.ndarray) -> bytes:
        packed = C.pack_coords(ins, self.gen_shape).astype("<u4")
        return packed.tobytes()

    def map_p_many(self, out_coords, payload, input_idx):
        packed = np.frombuffer(payload, dtype="<u4").astype(np.int64)
        return C.unpack_coords(packed, self.input_shapes[0])

    def map_p_batch(self, out_coords, payloads, input_idx, within=None):
        # a payload is its row's packed input cells, so the whole batch
        # decodes in one pass; ``within`` is ignored (every row is exact)
        n = C.as_coord_array(out_coords).shape[0]
        if isinstance(payloads, np.ndarray):  # n rows of one width
            buf = np.ascontiguousarray(payloads).tobytes()
            lengths = np.full(n, len(buf) // 4 // max(n, 1), dtype=np.int64)
        else:
            lengths = np.fromiter((len(p) // 4 for p in payloads), np.int64, count=n)
            buf = b"".join(payloads)
        packed = np.frombuffer(buf, dtype="<u4").astype(np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
        return C.unpack_coords(packed, self.input_shapes[0]), rows

    # -- query targets -------------------------------------------------------------

    def cells_with_lineage(self, rng: np.random.Generator, n: int) -> np.ndarray:
        all_outs = np.concatenate(self._outs)
        idx = rng.choice(all_outs.shape[0], size=min(n, all_outs.shape[0]), replace=False)
        return all_outs[idx]

    def input_cells_with_lineage(self, rng: np.random.Generator, n: int) -> np.ndarray:
        all_ins = np.concatenate(self._ins)
        idx = rng.choice(all_ins.shape[0], size=min(n, all_ins.shape[0]), replace=False)
        return all_ins[idx]


@dataclass
class MicroBenchmark:
    """One (fanin, fanout) configuration of the §VIII-C generator."""

    fanin: int = 1
    fanout: int = 1
    shape: tuple[int, int] = (1000, 1000)
    coverage: float = 0.1
    seed: int = 0
    query_cells: int = 1000
    _op: SyntheticLineageOp = field(init=False, repr=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed + 99)
        self.input_array = SciArray.from_numpy(
            rng.random(self.shape).astype(np.float64)
        )
        self._op = SyntheticLineageOp(
            shape=self.shape,
            fanin=self.fanin,
            fanout=self.fanout,
            coverage=self.coverage,
            seed=self.seed,
        )

    def build_spec(self) -> WorkflowSpec:
        spec = WorkflowSpec(name=f"micro_fi{self.fanin}_fo{self.fanout}")
        spec.add_source("input")
        # one operator instance per spec; rebuild with identical pairs
        op = SyntheticLineageOp(
            shape=self.shape,
            fanin=self.fanin,
            fanout=self.fanout,
            coverage=self.coverage,
            seed=self.seed,
        )
        spec.add_node("synthetic", op, ["input"])
        return spec

    def inputs(self) -> dict[str, SciArray]:
        return {"input": self.input_array}

    def queries(self, instance) -> dict[str, QueryRequest]:
        op: SyntheticLineageOp = instance.operator("synthetic")
        rng = np.random.default_rng(self.seed + 1)
        back_cells = op.cells_with_lineage(rng, self.query_cells)
        fwd_cells = op.input_cells_with_lineage(rng, self.query_cells)
        return {
            "BQ": QueryRequest.backward(back_cells, (("synthetic", 0),)),
            "FQ": QueryRequest.forward(fwd_cells, (("synthetic", 0),)),
        }
