"""The dense array object operators consume and produce.

:class:`SciArray` binds an :class:`~repro.arrays.schema.ArraySchema` to a
numpy buffer.  Single-attribute arrays (the common case throughout the
benchmarks) are stored as a plain ndarray; multi-attribute arrays are stored
as one ndarray per attribute, which keeps vectorised math simple.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.arrays import coords as C
from repro.arrays.schema import ArraySchema
from repro.errors import CoordinateError, SchemaError

__all__ = ["SciArray"]


class SciArray:
    """A dense, multi-dimensional array with named, typed attributes.

    The lineage system treats arrays as opaque except for their shape and
    the coordinates of their cells; operators read and write attribute
    buffers through :meth:`values` / :meth:`set_values`.
    """

    __slots__ = ("schema", "_data")

    def __init__(self, schema: ArraySchema, data: Mapping[str, np.ndarray]):
        self.schema = schema
        self._data: dict[str, np.ndarray] = {}
        missing = set(schema.attr_names) - set(data)
        if missing:
            raise SchemaError(f"missing attribute buffers: {sorted(missing)}")
        for attr in schema.attrs:
            buf = np.asarray(data[attr.name])
            if buf.shape != schema.shape:
                raise SchemaError(
                    f"attribute {attr.name!r} buffer shape {buf.shape} != schema shape {schema.shape}"
                )
            self._data[attr.name] = buf.astype(attr.dtype, copy=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_numpy(cls, values: np.ndarray, name: str = "array", attr_name: str = "value") -> "SciArray":
        """Wrap a plain ndarray as a single-attribute array."""
        values = np.asarray(values)
        schema = ArraySchema.dense(values.shape, values.dtype, name=name, attr_name=attr_name)
        return cls(schema, {attr_name: values})

    @classmethod
    def zeros(cls, schema: ArraySchema) -> "SciArray":
        return cls(schema, {a.name: np.zeros(schema.shape, dtype=a.dtype) for a in schema.attrs})

    @classmethod
    def full(cls, schema: ArraySchema, fill_value) -> "SciArray":
        return cls(
            schema,
            {a.name: np.full(schema.shape, fill_value, dtype=a.dtype) for a in schema.attrs},
        )

    # -- shape & size ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.schema.shape

    @property
    def size(self) -> int:
        return self.schema.size

    @property
    def nbytes(self) -> int:
        return int(sum(buf.nbytes for buf in self._data.values()))

    # -- attribute access --------------------------------------------------------

    def values(self, attr: str | None = None) -> np.ndarray:
        """The buffer for ``attr`` (default attribute when omitted).

        The returned ndarray is the live buffer, not a copy; operators that
        mutate it must copy first (workflow outputs are new arrays).
        """
        name = attr or self.schema.default_attr.name
        if name not in self._data:
            raise SchemaError(f"array {self.schema.name!r} has no attribute {name!r}")
        return self._data[name]

    def set_values(self, values: np.ndarray, attr: str | None = None) -> None:
        name = attr or self.schema.default_attr.name
        attr_decl = self.schema.attr(name)
        values = np.asarray(values)
        if values.shape != self.shape:
            raise SchemaError(
                f"buffer shape {values.shape} does not match array shape {self.shape}"
            )
        self._data[name] = values.astype(attr_decl.dtype, copy=False)

    # -- cell access --------------------------------------------------------------

    def cell(self, coord: Sequence[int], attr: str | None = None):
        """Scalar value of one cell (for tests and tiny examples)."""
        arr = C.validate_coords(np.asarray([coord]), self.shape)
        return self.values(attr)[tuple(arr[0])]

    def cells_at(self, coords: np.ndarray, attr: str | None = None) -> np.ndarray:
        """Vectorised gather of cell values at ``coords``."""
        arr = C.validate_coords(coords, self.shape)
        if arr.shape[0] == 0:
            return np.empty(0, dtype=self.schema.attr(attr or self.schema.default_attr.name).dtype)
        return self.values(attr)[tuple(arr.T)]

    def coords_where(self, predicate, attr: str | None = None) -> np.ndarray:
        """Coordinates of every cell whose value satisfies ``predicate``.

        ``predicate`` receives the whole buffer and must return a boolean
        mask — e.g. ``lambda v: v > 0``.
        """
        mask = np.asarray(predicate(self.values(attr)), dtype=bool)
        if mask.shape != self.shape:
            raise CoordinateError("predicate must return a mask of the array's shape")
        return C.mask_to_coords(mask)

    # -- conveniences --------------------------------------------------------------

    def copy(self) -> "SciArray":
        return SciArray(self.schema, {k: v.copy() for k, v in self._data.items()})

    def allclose(self, other: "SciArray", **kwargs) -> bool:
        if self.schema.shape != other.schema.shape or self.schema.attr_names != other.schema.attr_names:
            return False
        return all(
            np.allclose(self._data[a], other._data[a], **kwargs) for a in self.schema.attr_names
        )

    def __repr__(self) -> str:
        return f"SciArray({self.schema})"
