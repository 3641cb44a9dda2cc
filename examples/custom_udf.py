"""Writing a lineage-aware UDF against the Table-I API, step by step.

The operator below finds local maxima ("peaks") in a 2-D array.  Peak cells
depend on their full comparison neighbourhood; everything else is
one-to-one.  That is the composite-lineage pattern (§V-A.4): a cheap
mapping-function default plus payload overrides for the exceptional cells.

Run with::

    python examples/custom_udf.py
"""

import numpy as np

from repro import (
    COMP_ONE_B,
    FULL_ONE_B,
    LineageMode,
    SciArray,
    SubZero,
    WorkflowSpec,
    ops,
)
from repro.arrays import coords as C
from repro.ops.base import Operator


class PeakDetect(Operator):
    """Mark cells strictly greater than every neighbour within ``radius``."""

    arity = 1
    entire_array_safe = True  # every input cell feeds at least its own output

    def __init__(self, radius: int = 2, name: str | None = None):
        super().__init__(name)
        self.radius = int(radius)
        r = self.radius
        grid = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
        self._offsets = np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)

    # -- the data transformation --------------------------------------------

    def compute(self, inputs):
        from scipy import ndimage

        values = inputs[0].values()
        local_max = ndimage.maximum_filter(values, size=2 * self.radius + 1)
        peaks = (values >= local_max) & (values > np.median(values))
        return SciArray.from_numpy(peaks.astype(np.float64), name=self.name)

    # -- 1. declare what the optimizer may pick (Table I: supported_modes) ----

    def supported_modes(self):
        return frozenset(
            {LineageMode.FULL, LineageMode.PAY, LineageMode.COMP, LineageMode.BLACKBOX}
        )

    # -- 2. emit region pairs while running (Table I: lwrite) -----------------

    def write_lineage(self, inputs, output, ctx):
        mask = output.values() > 0.5
        peaks = np.stack(np.nonzero(mask), axis=1).astype(np.int64)
        flat = np.stack(np.nonzero(~mask), axis=1).astype(np.int64)
        if ctx.wants_full:
            # Full lineage: one region pair per peak, plus bulk one-to-one
            # pairs for the flat cells.
            for cell in peaks:
                neighbourhood = C.clip_coords(cell + self._offsets, self.input_shapes[0])
                ctx.lwrite(cell.reshape(1, -1), neighbourhood)
            ctx.lwrite_elementwise(flat, flat)
        if LineageMode.PAY in ctx.cur_modes:
            # Payload lineage: store one radius byte per cell instead of up
            # to (2r+1)^2 input coordinates.
            ctx.lwrite_payload_batch(
                peaks, np.full((peaks.shape[0], 1), self.radius, dtype=np.uint8)
            )
            ctx.lwrite_payload_batch(flat, np.zeros((flat.shape[0], 1), dtype=np.uint8))
        elif LineageMode.COMP in ctx.cur_modes:
            # Composite: payload only for peaks; map_b covers the rest.
            ctx.lwrite_payload_batch(
                peaks, np.full((peaks.shape[0], 1), self.radius, dtype=np.uint8)
            )

    # -- 3. mapping defaults for composite mode (Table I: map_b / map_f) -------

    def map_b_many(self, out_coords, input_idx):
        return C.as_coord_array(out_coords, ndim=2)

    def map_f_many(self, in_coords, input_idx):
        return C.as_coord_array(in_coords, ndim=2)

    # -- 4. expand payloads at query time (Table I: map_p) ----------------------
    # map_p_many must return the union of map_p(cell, payload) over its
    # cells: queries expand every cell sharing a payload in one call, and a
    # forward scan tests whole blocks of cells at once, splitting only the
    # blocks whose union meets the query.  A dilation like this one is a
    # union; so is any expansion that depends on the payload alone.

    def map_p_many(self, out_coords, payload, input_idx):
        radius = payload[0]
        if radius == 0:
            return C.as_coord_array(out_coords, ndim=2)
        grid = np.meshgrid(
            np.arange(-radius, radius + 1), np.arange(-radius, radius + 1), indexing="ij"
        )
        offsets = np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)
        return ops.dilate_coords(out_coords, offsets, self.input_shapes[0])


def build_spec() -> WorkflowSpec:
    spec = WorkflowSpec(name="peaks")
    spec.add_source("field")
    spec.add_node("smooth", ops.Convolve2D(ops.gaussian_kernel(3)), ["field"])
    spec.add_node("peaks", PeakDetect(radius=2), ["smooth"])
    return spec


def main() -> None:
    rng = np.random.default_rng(4)
    field = SciArray.from_numpy(rng.random((60, 60)))

    for strategy in (FULL_ONE_B, COMP_ONE_B):
        sz = SubZero(build_spec())
        sz.use_mapping_where_possible()
        sz.set_strategy("peaks", strategy)
        instance = sz.run({"field": field})
        peaks = instance.output_array("peaks").coords_where(lambda v: v > 0.5)
        target = tuple(int(x) for x in peaks[0])
        result = sz.backward_query([target], [("peaks", 0), ("smooth", 0)])
        print(f"{strategy.label:>10s}: lineage store {sz.lineage_disk_bytes() / 1e3:7.1f} KB; "
              f"peak {target} depends on {result.count} input cells")


if __name__ == "__main__":
    main()
