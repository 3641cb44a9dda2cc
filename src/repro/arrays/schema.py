"""Array schemas: named dimensions and named, typed attributes.

Mirrors the SciDB data model the paper assumes (§IV): an array has a fixed
number of dimensions, each with an extent, and every cell carries the same
record of one or more named, typed fields.  The lineage machinery only ever
needs coordinates and shapes, but operators use schemas to validate their
inputs and to declare their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import SchemaError

__all__ = ["Dimension", "Attribute", "ArraySchema"]

_IDENT_OK = staticmethod


def _check_name(name: str, kind: str) -> str:
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{kind} name must be a non-empty string; got {name!r}")
    if not (name[0].isalpha() or name[0] == "_") or not all(
        c.isalnum() or c == "_" for c in name
    ):
        raise SchemaError(f"{kind} name {name!r} is not a valid identifier")
    return name


@dataclass(frozen=True)
class Dimension:
    """A named array dimension with a fixed extent (length)."""

    name: str
    length: int

    def __post_init__(self) -> None:
        _check_name(self.name, "dimension")
        if not isinstance(self.length, (int, np.integer)) or self.length <= 0:
            raise SchemaError(
                f"dimension {self.name!r} must have a positive length; got {self.length!r}"
            )
        object.__setattr__(self, "length", int(self.length))


@dataclass(frozen=True)
class Attribute:
    """A named, typed cell field."""

    name: str
    dtype: np.dtype = field(default=np.dtype(np.float64))

    def __post_init__(self) -> None:
        _check_name(self.name, "attribute")
        try:
            object.__setattr__(self, "dtype", np.dtype(self.dtype))
        except TypeError as exc:
            raise SchemaError(f"attribute {self.name!r} has invalid dtype: {exc}") from exc


@dataclass(frozen=True)
class ArraySchema:
    """Shape-and-type description of a SubZero array.

    Use :meth:`dense` for the common single-attribute case::

        schema = ArraySchema.dense((512, 2000), np.float32, name="image")
    """

    dims: tuple[Dimension, ...]
    attrs: tuple[Attribute, ...]
    name: str = "array"

    def __post_init__(self) -> None:
        if not self.dims:
            raise SchemaError("an array needs at least one dimension")
        if not self.attrs:
            raise SchemaError("an array needs at least one attribute")
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "attrs", tuple(self.attrs))
        dim_names = [d.name for d in self.dims]
        attr_names = [a.name for a in self.attrs]
        if len(set(dim_names)) != len(dim_names):
            raise SchemaError(f"duplicate dimension names: {dim_names}")
        if len(set(attr_names)) != len(attr_names):
            raise SchemaError(f"duplicate attribute names: {attr_names}")

    # -- factories ---------------------------------------------------------

    @classmethod
    def dense(
        cls,
        shape: Sequence[int],
        dtype=np.float64,
        name: str = "array",
        dim_names: Sequence[str] | None = None,
        attr_name: str = "value",
    ) -> "ArraySchema":
        """Build a single-attribute schema from a plain shape and dtype."""
        if dim_names is None:
            dim_names = [f"d{i}" for i in range(len(shape))]
        if len(dim_names) != len(shape):
            raise SchemaError("dim_names must match the number of dimensions")
        dims = tuple(Dimension(n, int(s)) for n, s in zip(dim_names, shape))
        return cls(dims=dims, attrs=(Attribute(attr_name, np.dtype(dtype)),), name=name)

    # -- derived properties ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.length for d in self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    @property
    def attr_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attrs)

    @property
    def default_attr(self) -> Attribute:
        """The first attribute — what single-attribute operators act on."""
        return self.attrs[0]

    def attr(self, name: str) -> Attribute:
        for a in self.attrs:
            if a.name == name:
                return a
        raise SchemaError(f"schema {self.name!r} has no attribute {name!r}")

    def cell_nbytes(self) -> int:
        """Bytes per cell across all attributes."""
        return int(sum(a.dtype.itemsize for a in self.attrs))

    def nbytes(self) -> int:
        """Total payload bytes for a dense array of this schema."""
        return self.size * self.cell_nbytes()

    # -- transformations ---------------------------------------------------

    def with_shape(self, shape: Sequence[int], name: str | None = None) -> "ArraySchema":
        """Same attributes, new extents (dimension names regenerated on rank change)."""
        if len(shape) == self.ndim:
            dims = tuple(Dimension(d.name, int(s)) for d, s in zip(self.dims, shape))
        else:
            dims = tuple(Dimension(f"d{i}", int(s)) for i, s in enumerate(shape))
        return ArraySchema(dims=dims, attrs=self.attrs, name=name or self.name)

    def with_name(self, name: str) -> "ArraySchema":
        return ArraySchema(dims=self.dims, attrs=self.attrs, name=name)

    def require_same_shape(self, other: "ArraySchema", context: str = "operator") -> None:
        if self.shape != other.shape:
            raise SchemaError(
                f"{context}: shape mismatch {self.shape} vs {other.shape}"
            )

    def __str__(self) -> str:
        dims = ", ".join(f"{d.name}={d.length}" for d in self.dims)
        attrs = ", ".join(f"{a.name}:{a.dtype}" for a in self.attrs)
        return f"{self.name}<[{dims}] {{{attrs}}}>"
