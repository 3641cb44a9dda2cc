"""Elementwise built-in operators (one-to-one mapping operators).

These are the paper's canonical mapping operators (§V-A.2): "one-to-one
operators, such as matrix addition, are mapping operators because an output
cell only depends on the input cell at the same coordinate, regardless of
the value."  None of them incur any lineage runtime or storage overhead.
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

__all__ = [
    "UnaryElementwise",
    "BinaryElementwise",
    "BroadcastCombine",
    "Scale",
    "AddConstant",
    "SubtractConstant",
    "DivideConstant",
    "ClipMin",
    "Clip",
    "LogTransform",
    "Threshold",
    "Add",
    "Divide",
    "Minimum",
    "BroadcastSubtract",
]

_MAPPING_MODES = frozenset({LineageMode.MAP, LineageMode.BLACKBOX})


class UnaryElementwise(Operator):
    """``out[c] = fn(in[c])`` for a pure vectorised ``fn``."""

    arity = 1
    entire_array_safe = True

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], name: str | None = None):
        super().__init__(name)
        self._fn = fn

    def compute(self, inputs: list[SciArray]) -> SciArray:
        return SciArray.from_numpy(self._fn(inputs[0].values()), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(out_coords, ndim=len(self.output_shape))

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(in_coords, ndim=len(self.input_shapes[input_idx]))


class BinaryElementwise(Operator):
    """``out[c] = fn(a[c], b[c])`` over two same-shape inputs."""

    arity = 2
    entire_array_safe = True

    def __init__(
        self,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        name: str | None = None,
    ):
        super().__init__(name)
        self._fn = fn

    def infer_schema(self, input_schemas) -> ArraySchema:
        input_schemas[0].require_same_shape(input_schemas[1], context=self.name)
        return input_schemas[0]

    def compute(self, inputs: list[SciArray]) -> SciArray:
        return SciArray.from_numpy(
            self._fn(inputs[0].values(), inputs[1].values()), name=self.name
        )

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(out_coords, ndim=len(self.output_shape))

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(in_coords, ndim=len(self.input_shapes[input_idx]))


class BroadcastCombine(Operator):
    """Combine an array with a single-cell array (e.g. subtract a global
    statistic from every pixel).

    Input 0 maps one-to-one; input 1 is a single cell that every output
    depends on, so its forward lineage is the whole output array.
    """

    arity = 2
    entire_array_safe = True

    def __init__(
        self,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        name: str | None = None,
    ):
        super().__init__(name)
        self._fn = fn

    def infer_schema(self, input_schemas) -> ArraySchema:
        if input_schemas[1].size != 1:
            raise OperatorError(f"{self.name}: second input must be a single cell")
        return input_schemas[0]

    def compute(self, inputs: list[SciArray]) -> SciArray:
        scalar = inputs[1].values().reshape(())
        return SciArray.from_numpy(self._fn(inputs[0].values(), scalar), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        out_coords = C.as_coord_array(out_coords, ndim=len(self.output_shape))
        if input_idx == 0:
            return out_coords
        if out_coords.shape[0] == 0:
            return C.empty_coords(len(self.input_shapes[1]))
        return C.all_coords(self.input_shapes[1])

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        in_coords = C.as_coord_array(in_coords, ndim=len(self.input_shapes[input_idx]))
        if input_idx == 0:
            return in_coords
        if in_coords.shape[0] == 0:
            return C.empty_coords(len(self.output_shape))
        return C.all_coords(self.output_shape)


# -- concrete unary built-ins --------------------------------------------------


class Scale(UnaryElementwise):
    def __init__(self, factor: float, name: str | None = None):
        self.factor = float(factor)
        super().__init__(lambda v: v * self.factor, name)


class AddConstant(UnaryElementwise):
    def __init__(self, constant: float, name: str | None = None):
        self.constant = float(constant)
        super().__init__(lambda v: v + self.constant, name)


class SubtractConstant(UnaryElementwise):
    def __init__(self, constant: float, name: str | None = None):
        self.constant = float(constant)
        super().__init__(lambda v: v - self.constant, name)


class DivideConstant(UnaryElementwise):
    def __init__(self, constant: float, name: str | None = None):
        if constant == 0:
            raise OperatorError("cannot divide by zero")
        self.constant = float(constant)
        super().__init__(lambda v: v / self.constant, name)


class ClipMin(UnaryElementwise):
    def __init__(self, lo: float, name: str | None = None):
        self.lo = float(lo)
        super().__init__(lambda v: np.maximum(v, self.lo), name)


class Clip(UnaryElementwise):
    def __init__(self, lo: float, hi: float, name: str | None = None):
        if hi < lo:
            raise OperatorError("clip bounds must satisfy lo <= hi")
        self.lo, self.hi = float(lo), float(hi)
        super().__init__(lambda v: np.clip(v, self.lo, self.hi), name)


class LogTransform(UnaryElementwise):
    """``log1p`` transform, common in expression-level normalisation."""

    def __init__(self, name: str | None = None):
        super().__init__(lambda v: np.log1p(np.maximum(v, 0)), name)


class Threshold(UnaryElementwise):
    """Binary mask: 1 where ``value > threshold`` else 0."""

    def __init__(self, threshold: float, name: str | None = None):
        self.threshold = float(threshold)
        super().__init__(lambda v: (v > self.threshold).astype(np.float64), name)


# -- concrete binary built-ins -------------------------------------------------


class Add(BinaryElementwise):
    def __init__(self, name: str | None = None):
        super().__init__(np.add, name)


class Divide(BinaryElementwise):
    def __init__(self, name: str | None = None):
        super().__init__(lambda a, b: a / np.where(b == 0, 1, b), name)


class Minimum(BinaryElementwise):
    def __init__(self, name: str | None = None):
        super().__init__(np.minimum, name)


class BroadcastSubtract(BroadcastCombine):
    def __init__(self, name: str | None = None):
        super().__init__(np.subtract, name)
