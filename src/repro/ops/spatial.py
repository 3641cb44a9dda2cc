"""Spatial rearrangement built-ins: shift, flip, rotate, rolling windows.

All mapping operators — common in the image-processing pipelines the
astronomy use case describes (alignment shifts before compositing, rolling
background estimates).  ``WindowReduce`` generalises the windowed-lineage
pattern beyond convolution: the output cell depends on the full window even
though the computation is an aggregate, not a stencil product.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import ndimage

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.core.modes import LineageMode
from repro.errors import OperatorError
from repro.ops.base import Operator
from repro.ops.convolution import dilate_coords

__all__ = ["Shift", "Flip", "Rotate90", "WindowReduce"]

_MAPPING_MODES = frozenset({LineageMode.MAP, LineageMode.BLACKBOX})


class Shift(Operator):
    """Translate the array by an integer offset; vacated cells become zero.

    ``out[c] = in[c - offset]`` where defined — the alignment step of a
    coadd pipeline.
    """

    arity = 1
    entire_array_safe = False  # vacated / dropped border cells

    def __init__(self, offset, name: str | None = None):
        super().__init__(name)
        self.offset = np.asarray(offset, dtype=np.int64)

    def infer_schema(self, input_schemas):
        schema = input_schemas[0]
        if schema.ndim != self.offset.size:
            raise OperatorError(f"{self.name}: offset rank != input rank")
        if (np.abs(self.offset) >= np.asarray(schema.shape)).any():
            raise OperatorError(f"{self.name}: offset larger than the array")
        return schema

    def compute(self, inputs: list[SciArray]) -> SciArray:
        values = inputs[0].values()
        out = np.zeros_like(values)
        src = tuple(
            slice(max(0, -o), values.shape[d] - max(0, o))
            for d, o in enumerate(self.offset)
        )
        dst = tuple(
            slice(max(0, o), values.shape[d] + min(0, o))
            for d, o in enumerate(self.offset)
        )
        out[dst] = values[src]
        return SciArray.from_numpy(out, name=self.name)

    def supported_modes(self):
        return _MAPPING_MODES

    def map_b_many(self, out_coords, input_idx):
        shifted = C.as_coord_array(out_coords, ndim=self.offset.size) - self.offset
        return C.clip_coords(shifted, self.input_shapes[0])

    def map_f_many(self, in_coords, input_idx):
        shifted = C.as_coord_array(in_coords, ndim=self.offset.size) + self.offset
        return C.clip_coords(shifted, self.output_shape)


class Flip(Operator):
    """Reverse the array along one axis (``out[..., i, ...] = in[..., n-1-i, ...]``)."""

    arity = 1
    entire_array_safe = True

    def __init__(self, axis: int = 0, name: str | None = None):
        super().__init__(name)
        self.axis = int(axis)

    def infer_schema(self, input_schemas):
        schema = input_schemas[0]
        if not 0 <= self.axis < schema.ndim:
            raise OperatorError(f"{self.name}: axis {self.axis} out of range")
        return schema

    def compute(self, inputs: list[SciArray]) -> SciArray:
        return SciArray.from_numpy(
            np.flip(inputs[0].values(), axis=self.axis).copy(), name=self.name
        )

    def supported_modes(self):
        return _MAPPING_MODES

    def _mirror(self, coords: np.ndarray) -> np.ndarray:
        coords = C.as_coord_array(coords, ndim=len(self.output_shape))
        out = coords.copy()
        out[:, self.axis] = self.output_shape[self.axis] - 1 - out[:, self.axis]
        return out

    def map_b_many(self, out_coords, input_idx):
        return self._mirror(out_coords)

    def map_f_many(self, in_coords, input_idx):
        return self._mirror(in_coords)


class Rotate90(Operator):
    """Rotate a 2-D array 90° counter-clockwise (numpy ``rot90`` semantics)."""

    arity = 1
    entire_array_safe = True

    def infer_schema(self, input_schemas):
        schema = input_schemas[0]
        if schema.ndim != 2:
            raise OperatorError(f"{self.name}: rot90 expects a 2-D array")
        return schema.with_shape(schema.shape[::-1])

    def compute(self, inputs: list[SciArray]) -> SciArray:
        return SciArray.from_numpy(np.rot90(inputs[0].values()).copy(), name=self.name)

    def supported_modes(self):
        return _MAPPING_MODES

    def map_b_many(self, out_coords, input_idx):
        # out[r, c] = in[c, W_out - 1 - r] where W_out = in rows... derive:
        # np.rot90: out[i, j] = in[j, n_cols_in - 1 - i]
        out_coords = C.as_coord_array(out_coords, ndim=2)
        n_cols_in = self.input_shapes[0][1]
        rows = out_coords[:, 1]
        cols = n_cols_in - 1 - out_coords[:, 0]
        return np.stack([rows, cols], axis=1)

    def map_f_many(self, in_coords, input_idx):
        in_coords = C.as_coord_array(in_coords, ndim=2)
        n_cols_in = self.input_shapes[0][1]
        i = n_cols_in - 1 - in_coords[:, 1]
        j = in_coords[:, 0]
        return np.stack([i, j], axis=1)


class WindowReduce(Operator):
    """Rolling aggregate over a rectangular window (e.g. local median/max).

    A windowed mapping operator like convolution, but the computation is an
    order statistic — the lineage pattern is identical (the full window),
    which is exactly why mapping functions are declared per *structure*,
    not per arithmetic.
    """

    arity = 1
    entire_array_safe = True

    _FILTERS: dict[str, Callable] = {
        "mean": lambda v, size: ndimage.uniform_filter(v, size=size, mode="nearest"),
        "median": lambda v, size: ndimage.median_filter(v, size=size, mode="nearest"),
        "max": lambda v, size: ndimage.maximum_filter(v, size=size, mode="nearest"),
        "min": lambda v, size: ndimage.minimum_filter(v, size=size, mode="nearest"),
    }

    def __init__(self, size: int = 3, stat: str = "mean", name: str | None = None):
        super().__init__(name)
        if size % 2 != 1 or size < 1:
            raise OperatorError("window size must be odd and positive")
        if stat not in self._FILTERS:
            raise OperatorError(
                f"unknown stat {stat!r}; pick one of {sorted(self._FILTERS)}"
            )
        self.size = int(size)
        self.stat = stat
        half = size // 2
        grid = np.meshgrid(
            np.arange(-half, half + 1), np.arange(-half, half + 1), indexing="ij"
        )
        self._offsets = np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)

    def infer_schema(self, input_schemas):
        if input_schemas[0].ndim != 2:
            raise OperatorError(f"{self.name}: expects a 2-D array")
        return input_schemas[0]

    def compute(self, inputs: list[SciArray]) -> SciArray:
        values = self._FILTERS[self.stat](
            inputs[0].values().astype(np.float64), self.size
        )
        return SciArray.from_numpy(values, name=self.name)

    def supported_modes(self):
        return _MAPPING_MODES

    def map_b_many(self, out_coords, input_idx):
        return dilate_coords(out_coords, self._offsets, self.input_shapes[0])

    def map_f_many(self, in_coords, input_idx):
        return dilate_coords(in_coords, self._offsets, self.output_shape)
