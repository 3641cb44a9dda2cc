"""Aggregation built-ins: axis reductions, global reductions, standardise.

Axis reductions are mapping operators (the backward lineage of an output
cell is the whole line it reduced over).  Global reductions are the
archetypal all-to-all operators — the anomalous mean-brightness computation
of the paper's astronomy use case (§II-A) is a ``GlobalReduce``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.arrays.schema import ArraySchema
from repro.core.modes import LineageMode
from repro.errors import OperatorError
from repro.ops.base import Operator

__all__ = ["Reduce", "GlobalReduce", "GlobalMean", "Standardize", "CumulativeSum"]

_MAPPING_MODES = frozenset({LineageMode.MAP, LineageMode.BLACKBOX})


class Reduce(Operator):
    """Reduce along one axis; output drops that axis (1-D inputs become a
    single-cell array)."""

    arity = 1
    entire_array_safe = True

    def __init__(
        self,
        axis: int,
        fn: Callable[..., np.ndarray] = np.sum,
        name: str | None = None,
    ):
        super().__init__(name)
        self.axis = int(axis)
        self._fn = fn

    def infer_schema(self, input_schemas) -> ArraySchema:
        schema = input_schemas[0]
        if not 0 <= self.axis < schema.ndim:
            raise OperatorError(f"{self.name}: axis {self.axis} out of range")
        out = tuple(s for i, s in enumerate(schema.shape) if i != self.axis)
        return schema.with_shape(out or (1,))

    def compute(self, inputs: list[SciArray]) -> SciArray:
        reduced = self._fn(inputs[0].values(), axis=self.axis)
        reduced = np.asarray(reduced).reshape(self.output_shape)
        return SciArray.from_numpy(reduced, name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        out_coords = C.as_coord_array(out_coords, ndim=len(self.output_shape))
        in_shape = self.input_shapes[0]
        if out_coords.shape[0] == 0:
            return C.empty_coords(len(in_shape))
        if len(in_shape) == 1:
            return C.all_coords(in_shape)
        kept = out_coords if len(self.output_shape) == len(in_shape) - 1 else out_coords[:, :0]
        uniq = np.unique(kept, axis=0)
        extent = in_shape[self.axis]
        line = np.arange(extent, dtype=np.int64)
        n = uniq.shape[0]
        repeated = np.repeat(uniq, extent, axis=0)
        tiled = np.tile(line, n).reshape(-1, 1)
        return np.concatenate(
            [repeated[:, : self.axis], tiled, repeated[:, self.axis:]], axis=1
        )

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        in_coords = C.as_coord_array(in_coords, ndim=len(self.input_shapes[0]))
        if in_coords.shape[0] == 0:
            return C.empty_coords(len(self.output_shape))
        if len(self.input_shapes[0]) == 1:
            return np.zeros((1, 1), dtype=np.int64)
        dropped = np.delete(in_coords, self.axis, axis=1)
        return C.unique_coords(dropped, self.output_shape)


class GlobalReduce(Operator):
    """Reduce the whole array to one cell (all-to-all)."""

    arity = 1
    all_to_all = True
    entire_array_safe = True

    def __init__(self, fn: Callable[[np.ndarray], float] = np.mean, name: str | None = None):
        super().__init__(name)
        self._fn = fn

    def infer_schema(self, input_schemas) -> ArraySchema:
        return input_schemas[0].with_shape((1,))

    def compute(self, inputs: list[SciArray]) -> SciArray:
        value = float(self._fn(inputs[0].values()))
        return SciArray.from_numpy(np.asarray([value]), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES


class GlobalMean(GlobalReduce):
    """Mean of every cell — the astronomy benchmark's background estimate."""

    def __init__(self, name: str | None = None):
        super().__init__(np.mean, name)


class Standardize(Operator):
    """``(v - mean) / std`` with *global* statistics; all-to-all because the
    statistics couple every output to every input."""

    arity = 1
    all_to_all = True
    entire_array_safe = True

    def compute(self, inputs: list[SciArray]) -> SciArray:
        values = inputs[0].values().astype(np.float64)
        std = float(values.std())
        if std == 0.0:
            std = 1.0
        return SciArray.from_numpy((values - values.mean()) / std, name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES


class CumulativeSum(Operator):
    """Prefix sums along one axis — a mapping operator with coordinate-
    dependent fanin (cell ``x`` depends on cells ``0..x`` along the axis)."""

    arity = 1
    entire_array_safe = True

    def __init__(self, axis: int = 0, name: str | None = None):
        super().__init__(name)
        self.axis = int(axis)

    def infer_schema(self, input_schemas) -> ArraySchema:
        schema = input_schemas[0]
        if not 0 <= self.axis < schema.ndim:
            raise OperatorError(f"{self.name}: axis {self.axis} out of range")
        return schema

    def compute(self, inputs: list[SciArray]) -> SciArray:
        return SciArray.from_numpy(
            np.cumsum(inputs[0].values(), axis=self.axis), name=self.name
        )

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        out_coords = C.as_coord_array(out_coords, ndim=len(self.output_shape))
        if out_coords.shape[0] == 0:
            return out_coords
        pieces = []
        # Group by the off-axis coordinates; each group contributes the
        # prefix line up to its maximal axis coordinate.
        others = np.delete(out_coords, self.axis, axis=1)
        uniq, inverse = np.unique(others, axis=0, return_inverse=True)
        max_axis = np.full(uniq.shape[0], -1, dtype=np.int64)
        np.maximum.at(max_axis, inverse, out_coords[:, self.axis])
        for row, hi in zip(uniq, max_axis):
            line = np.arange(hi + 1, dtype=np.int64).reshape(-1, 1)
            rest = np.repeat(row.reshape(1, -1), hi + 1, axis=0)
            pieces.append(
                np.concatenate([rest[:, : self.axis], line, rest[:, self.axis:]], axis=1)
            )
        return np.concatenate(pieces, axis=0)

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        in_coords = C.as_coord_array(in_coords, ndim=len(self.output_shape))
        if in_coords.shape[0] == 0:
            return in_coords
        extent = self.output_shape[self.axis]
        pieces = []
        others = np.delete(in_coords, self.axis, axis=1)
        uniq, inverse = np.unique(others, axis=0, return_inverse=True)
        min_axis = np.full(uniq.shape[0], extent, dtype=np.int64)
        np.minimum.at(min_axis, inverse, in_coords[:, self.axis])
        for row, lo in zip(uniq, min_axis):
            line = np.arange(lo, extent, dtype=np.int64).reshape(-1, 1)
            rest = np.repeat(row.reshape(1, -1), extent - lo, axis=0)
            pieces.append(
                np.concatenate([rest[:, : self.axis], line, rest[:, self.axis:]], axis=1)
            )
        return np.concatenate(pieces, axis=0)
