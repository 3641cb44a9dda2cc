"""Shape-manipulating built-ins: slice, concat, subsample, reshape, pad.

All are mapping operators.  ``Concat`` is the paper's counterexample for the
entire-array optimization (§VI-C): the forward lineage of one whole input is
only a *subset* of the output, so only its backward direction is annotated
safe (each class carries the direction-specific flags).
"""

from __future__ import annotations

import numpy as np

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.arrays.schema import ArraySchema
from repro.core.modes import LineageMode
from repro.errors import OperatorError
from repro.ops.base import Operator

__all__ = ["SliceOp", "Concat", "Subsample", "Reshape", "Pad"]

_MAPPING_MODES = frozenset({LineageMode.MAP, LineageMode.BLACKBOX})


class SliceOp(Operator):
    """Extract the inclusive-exclusive box ``[lo, hi)`` from the input."""

    arity = 1
    # Forward lineage of the whole input is the whole output; backward
    # lineage of the whole output is only the sliced box, so the shortcut
    # is one-directional.
    entire_array_safe_forward = True

    def __init__(self, lo, hi, name: str | None = None):
        super().__init__(name)
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        if self.lo.shape != self.hi.shape or (self.hi <= self.lo).any():
            raise OperatorError("slice bounds must satisfy lo < hi per dimension")

    def infer_schema(self, input_schemas) -> ArraySchema:
        schema = input_schemas[0]
        if schema.ndim != self.lo.size:
            raise OperatorError(f"{self.name}: bounds rank != input rank")
        if (self.hi > np.asarray(schema.shape)).any() or (self.lo < 0).any():
            raise OperatorError(f"{self.name}: slice {self.lo}:{self.hi} out of bounds")
        return schema.with_shape(tuple((self.hi - self.lo).tolist()))

    def compute(self, inputs: list[SciArray]) -> SciArray:
        slices = tuple(slice(int(a), int(b)) for a, b in zip(self.lo, self.hi))
        return SciArray.from_numpy(inputs[0].values()[slices].copy(), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(out_coords, ndim=self.lo.size) + self.lo

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        shifted = C.as_coord_array(in_coords, ndim=self.lo.size) - self.lo
        return C.clip_coords(shifted, self.output_shape)


class Concat(Operator):
    """Concatenate ``arity`` same-rank arrays along ``axis``."""

    # §VI-C's counterexample: one input's forward lineage is an output
    # subset, so only the backward direction may short-circuit.
    entire_array_safe_backward = True

    def __init__(self, axis: int = 0, arity: int = 2, name: str | None = None):
        super().__init__(name)
        if arity < 2:
            raise OperatorError("concat needs at least two inputs")
        self.arity = int(arity)
        self.axis = int(axis)
        self._offsets: list[int] | None = None

    def infer_schema(self, input_schemas) -> ArraySchema:
        first = input_schemas[0]
        if not 0 <= self.axis < first.ndim:
            raise OperatorError(f"{self.name}: axis {self.axis} out of range")
        total = 0
        self._offsets = []
        for schema in input_schemas:
            other = list(schema.shape)
            ref = list(first.shape)
            other[self.axis] = ref[self.axis] = 0
            if other != ref:
                raise OperatorError(f"{self.name}: non-axis extents differ")
            self._offsets.append(total)
            total += schema.shape[self.axis]
        out_shape = list(first.shape)
        out_shape[self.axis] = total
        return first.with_shape(tuple(out_shape))

    def compute(self, inputs: list[SciArray]) -> SciArray:
        stacked = np.concatenate([a.values() for a in inputs], axis=self.axis)
        return SciArray.from_numpy(stacked, name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        out_coords = C.as_coord_array(out_coords, ndim=len(self.output_shape))
        shifted = out_coords.copy()
        shifted[:, self.axis] -= self._offsets[input_idx]
        return C.clip_coords(shifted, self.input_shapes[input_idx])

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        in_coords = C.as_coord_array(in_coords, ndim=len(self.input_shapes[input_idx]))
        shifted = in_coords.copy()
        shifted[:, self.axis] += self._offsets[input_idx]
        return shifted


class Subsample(Operator):
    """Keep every ``step``-th cell along each dimension."""

    arity = 1
    entire_array_safe_forward = True  # every output cell has a source cell

    def __init__(self, steps, name: str | None = None):
        super().__init__(name)
        self.steps = np.asarray(steps, dtype=np.int64)
        if (self.steps < 1).any():
            raise OperatorError("subsample steps must be >= 1")

    def infer_schema(self, input_schemas) -> ArraySchema:
        schema = input_schemas[0]
        if schema.ndim != self.steps.size:
            raise OperatorError(f"{self.name}: steps rank != input rank")
        out = tuple(
            int(-(-extent // step)) for extent, step in zip(schema.shape, self.steps)
        )
        return schema.with_shape(out)

    def compute(self, inputs: list[SciArray]) -> SciArray:
        slices = tuple(slice(None, None, int(s)) for s in self.steps)
        return SciArray.from_numpy(inputs[0].values()[slices].copy(), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(out_coords, ndim=self.steps.size) * self.steps

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        in_coords = C.as_coord_array(in_coords, ndim=self.steps.size)
        keep = (in_coords % self.steps == 0).all(axis=1)
        return in_coords[keep] // self.steps


class Reshape(Operator):
    """Row-major reshape; lineage follows ravel order."""

    arity = 1
    entire_array_safe = True

    def __init__(self, shape, name: str | None = None):
        super().__init__(name)
        self.target_shape = tuple(int(s) for s in shape)

    def infer_schema(self, input_schemas) -> ArraySchema:
        schema = input_schemas[0]
        if int(np.prod(self.target_shape)) != schema.size:
            raise OperatorError(
                f"{self.name}: cannot reshape {schema.shape} to {self.target_shape}"
            )
        return schema.with_shape(self.target_shape)

    def compute(self, inputs: list[SciArray]) -> SciArray:
        return SciArray.from_numpy(
            inputs[0].values().reshape(self.target_shape).copy(), name=self.name
        )

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        packed = C.pack_coords(out_coords, self.output_shape)
        return C.unpack_coords(packed, self.input_shapes[0])

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        packed = C.pack_coords(in_coords, self.input_shapes[0])
        return C.unpack_coords(packed, self.output_shape)


class Pad(Operator):
    """Zero-pad ``before`` and ``after`` cells along each dimension."""

    arity = 1
    entire_array_safe_backward = True  # border cells merely add nothing

    def __init__(self, before, after, name: str | None = None):
        super().__init__(name)
        self.before = np.asarray(before, dtype=np.int64)
        self.after = np.asarray(after, dtype=np.int64)
        if (self.before < 0).any() or (self.after < 0).any():
            raise OperatorError("pad widths must be non-negative")

    def infer_schema(self, input_schemas) -> ArraySchema:
        schema = input_schemas[0]
        if schema.ndim != self.before.size:
            raise OperatorError(f"{self.name}: pad rank != input rank")
        out = tuple(
            int(s + b + a) for s, b, a in zip(schema.shape, self.before, self.after)
        )
        return schema.with_shape(out)

    def compute(self, inputs: list[SciArray]) -> SciArray:
        widths = [(int(b), int(a)) for b, a in zip(self.before, self.after)]
        return SciArray.from_numpy(np.pad(inputs[0].values(), widths), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        shifted = C.as_coord_array(out_coords, ndim=self.before.size) - self.before
        return C.clip_coords(shifted, self.input_shapes[0])

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(in_coords, ndim=self.before.size) + self.before
