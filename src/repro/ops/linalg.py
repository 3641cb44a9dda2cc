"""Linear-algebra built-ins: transpose, matrix multiply, inverse.

Matrix multiply is the paper's running example of both a mapping operator
(backward lineage of an output cell is the corresponding row and column,
§IV) and a safe target for the entire-array optimization (§VI-C).  Matrix
inverse is the canonical all-to-all operator.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.arrays.schema import ArraySchema
from repro.core.modes import LineageMode
from repro.errors import OperatorError
from repro.ops.base import Operator

__all__ = ["Transpose", "MatMul", "MatrixInverse"]

_MAPPING_MODES = frozenset({LineageMode.MAP, LineageMode.BLACKBOX})


class Transpose(Operator):
    """2-D transpose; ``map_b((x, y)) = [(y, x)]`` exactly as §V-A.2."""

    arity = 1
    entire_array_safe = True

    def infer_schema(self, input_schemas) -> ArraySchema:
        schema = input_schemas[0]
        if schema.ndim != 2:
            raise OperatorError(f"{self.name}: transpose expects a 2-D array")
        return schema.with_shape(schema.shape[::-1])

    def compute(self, inputs: list[SciArray]) -> SciArray:
        return SciArray.from_numpy(inputs[0].values().T.copy(), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(out_coords, ndim=2)[:, ::-1]

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        return C.as_coord_array(in_coords, ndim=2)[:, ::-1]


class MatMul(Operator):
    """``(m, k) @ (k, n) -> (m, n)`` with row/column mapping functions."""

    arity = 2
    entire_array_safe = True

    def infer_schema(self, input_schemas) -> ArraySchema:
        a, b = input_schemas
        if a.ndim != 2 or b.ndim != 2:
            raise OperatorError(f"{self.name}: matmul expects two 2-D arrays")
        if a.shape[1] != b.shape[0]:
            raise OperatorError(
                f"{self.name}: inner dimensions differ ({a.shape} @ {b.shape})"
            )
        return a.with_shape((a.shape[0], b.shape[1]))

    def compute(self, inputs: list[SciArray]) -> SciArray:
        return SciArray.from_numpy(
            inputs[0].values() @ inputs[1].values(), name=self.name
        )

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        out_coords = C.as_coord_array(out_coords, ndim=2)
        k = self.input_shapes[0][1]
        if out_coords.shape[0] == 0:
            return C.empty_coords(2)
        if input_idx == 0:
            rows = np.unique(out_coords[:, 0])
            return _cross(rows, np.arange(k, dtype=np.int64))
        cols = np.unique(out_coords[:, 1])
        return _cross(np.arange(k, dtype=np.int64), cols)

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        in_coords = C.as_coord_array(in_coords, ndim=2)
        m, n = self.output_shape
        if in_coords.shape[0] == 0:
            return C.empty_coords(2)
        if input_idx == 0:
            rows = np.unique(in_coords[:, 0])
            return _cross(rows, np.arange(n, dtype=np.int64))
        cols = np.unique(in_coords[:, 1])
        return _cross(np.arange(m, dtype=np.int64), cols)


class MatrixInverse(Operator):
    """Square-matrix inverse — every output depends on every input."""

    arity = 1
    all_to_all = True
    entire_array_safe = True

    def infer_schema(self, input_schemas) -> ArraySchema:
        schema = input_schemas[0]
        if schema.ndim != 2 or schema.shape[0] != schema.shape[1]:
            raise OperatorError(f"{self.name}: inverse expects a square 2-D array")
        return schema

    def compute(self, inputs: list[SciArray]) -> SciArray:
        values = inputs[0].values().astype(np.float64)
        # Regularise so synthetic benchmark matrices are always invertible.
        eye = np.eye(values.shape[0]) * 1e-9
        return SciArray.from_numpy(np.linalg.inv(values + eye), name=self.name)

    def supported_modes(self) -> frozenset[LineageMode]:
        return _MAPPING_MODES


def _cross(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Cartesian product of row and column indices as (n, 2) coords."""
    r = np.repeat(rows, cols.size)
    c = np.tile(cols, rows.size)
    return np.stack([r, c], axis=1).astype(np.int64)
