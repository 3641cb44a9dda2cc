"""Region lineage data model: region pairs, batches, frontiers, query paths.

Region lineage (§IV-c) represents lineage as *region pairs* — an all-to-all
relationship between a set of output cells and a set of input cells per
input array.  Payload pairs replace the input cells with a small opaque blob
that a payload function (``map_p``) expands back into input cells at query
time (§V-A.3).

Operators emit pairs through the :class:`LineageSink` API, and a sink holds
exactly three record forms:

:class:`RegionBatch`
    The general form: ``n`` region pairs as packed coordinate columns plus
    offset vectors.  ``lwrite_batch`` / ``lwrite_payload_regions`` record
    one directly; the per-pair ``lwrite`` / ``lwrite_payload`` calls are
    *staged* column-wise by :meth:`BufferSink.add_pair` and sealed into
    region batches when the sink is first read — no per-pair record is
    ever stored, and every consumer lowers one form.
:class:`ElementwiseBatch` / :class:`PayloadBatch`
    The two *unit-row* forms (row ``i`` is one output cell with one input
    cell per input, or one payload).  They stay separate because they
    select a different on-disk layout — the value is inlined into the
    ``direct*`` hash stores instead of referenced through a shared entry —
    and, for payloads, the vectorised ``map_p_batch`` query path.

The query executor tracks intermediate results as a :class:`Frontier` — the
paper's in-memory boolean array with one bit per cell, which deduplicates
for free and makes "all bits set" checks cheap (§VI-C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arrays import coords as C
from repro.errors import LineageError, QueryError

__all__ = [
    "RegionPair",
    "ElementwiseBatch",
    "PayloadBatch",
    "RegionBatch",
    "LineageSink",
    "BufferSink",
    "Frontier",
    "Direction",
    "QueryStep",
    "LineageQuery",
]


@dataclass(frozen=True)
class RegionPair:
    """All-to-all lineage between ``outcells`` and per-input ``incells``.

    Exactly one of ``incells`` / ``payload`` is set: full pairs carry the
    input cells themselves, payload pairs carry the developer's blob.
    """

    outcells: np.ndarray  # (n_out, ndim_out)
    incells: tuple[np.ndarray, ...] | None = None
    payload: bytes | None = None

    def __post_init__(self) -> None:
        if (self.incells is None) == (self.payload is None):
            raise LineageError("a region pair carries either input cells or a payload")
        if self.outcells.ndim != 2 or self.outcells.shape[0] == 0:
            raise LineageError("a region pair needs at least one output cell")

    @property
    def is_payload(self) -> bool:
        return self.payload is not None

    def fanin(self, input_idx: int = 0) -> int:
        if self.incells is None:
            raise LineageError("payload pairs have no materialised input cells")
        return int(self.incells[input_idx].shape[0])

    @property
    def fanout(self) -> int:
        return int(self.outcells.shape[0])


@dataclass(frozen=True)
class ElementwiseBatch:
    """``n`` one-to-one region pairs: row ``i`` of ``outcells`` depends on
    row ``i`` of each ``incells`` array."""

    outcells: np.ndarray  # (n, ndim_out)
    incells: tuple[np.ndarray, ...]  # each (n, ndim_in_i)

    def __post_init__(self) -> None:
        n = self.outcells.shape[0]
        for arr in self.incells:
            if arr.shape[0] != n:
                raise LineageError("elementwise batch arrays must align row-wise")

    @property
    def count(self) -> int:
        return int(self.outcells.shape[0])


@dataclass(frozen=True)
class PayloadBatch:
    """``n`` payload pairs: output cell ``i`` carries ``payloads[i]``.

    ``payloads`` may be a list of byte strings or a ``(n, w)`` uint8 array
    for fixed-width payloads (the fast path).
    """

    outcells: np.ndarray  # (n, ndim_out)
    payloads: list[bytes] | np.ndarray

    def __post_init__(self) -> None:
        n = self.outcells.shape[0]
        if isinstance(self.payloads, np.ndarray):
            if self.payloads.ndim != 2 or self.payloads.shape[0] != n:
                raise LineageError("fixed-width payloads must be a (n, w) uint8 array")
        elif len(self.payloads) != n:
            raise LineageError("payload list must align with output cells")

    @property
    def count(self) -> int:
        return int(self.outcells.shape[0])

    def payload_at(self, i: int) -> bytes:
        if isinstance(self.payloads, np.ndarray):
            return self.payloads[i].tobytes()
        return self.payloads[i]


@dataclass(frozen=True)
class RegionBatch:
    """``n`` independent region pairs in columnar form.

    Pair ``i`` relates ``out_coords[out_offsets[i]:out_offsets[i+1]]`` to
    either ``in_coords[k][in_offsets[k][i]:in_offsets[k][i+1]]`` per input
    ``k`` (full pairs) or ``payloads[payload_offsets[i]:payload_offsets[i+1]]``
    (payload pairs).  This is the one general record form: a batch carries
    thousands of pairs with zero per-pair Python objects, and the stores
    lower it to codecs/hash tables in whole-array passes.
    """

    out_coords: np.ndarray  # (K, ndim_out) int64
    out_offsets: np.ndarray  # (n+1,) int64, monotone, [0] == 0
    in_coords: tuple[np.ndarray, ...] | None = None  # per input: (M_k, ndim_k)
    in_offsets: tuple[np.ndarray, ...] | None = None  # per input: (n+1,)
    payloads: bytes | None = None  # concatenated pair payloads
    payload_offsets: np.ndarray | None = None  # (n+1,)

    def __post_init__(self) -> None:
        if (self.in_coords is None) == (self.payloads is None):
            raise LineageError("a region batch carries either input cells or payloads")
        if self.out_offsets.ndim != 1 or self.out_offsets.size == 0:
            raise LineageError("region batch offsets must be non-empty 1-D arrays")
        n = self.out_offsets.size - 1
        if int(self.out_offsets[0]) != 0 or int(self.out_offsets[-1]) != len(
            self.out_coords
        ):
            raise LineageError("region batch out_offsets do not cover out_coords")
        if (np.diff(self.out_offsets) < 1).any():
            raise LineageError("every region pair needs at least one output cell")
        if self.in_coords is not None:
            if self.in_offsets is None or len(self.in_offsets) != len(self.in_coords):
                raise LineageError("region batch needs one offset array per input")
            for arr, off in zip(self.in_coords, self.in_offsets):
                if off.size != n + 1 or int(off[0]) != 0 or int(off[-1]) != len(arr):
                    raise LineageError("region batch in_offsets do not cover in_coords")
                if (np.diff(off) < 0).any():
                    raise LineageError("region batch in_offsets must be non-decreasing")
        else:
            off = self.payload_offsets
            if off is None or off.size != n + 1 or int(off[0]) != 0 or int(
                off[-1]
            ) != len(self.payloads):
                raise LineageError("region batch payload_offsets do not cover payloads")
            if (np.diff(off) < 0).any():
                raise LineageError("region batch payload_offsets must be non-decreasing")

    @property
    def is_payload(self) -> bool:
        return self.payloads is not None

    @property
    def count(self) -> int:
        return int(self.out_offsets.size - 1)

    @property
    def arity(self) -> int:
        return len(self.in_coords) if self.in_coords is not None else 0


def _offsets_of(chunks: list) -> np.ndarray:
    """``(n+1,)`` offset vector over the lengths of ``chunks``."""
    offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, chunks), np.int64, len(chunks)), out=offsets[1:])
    return offsets


def _stack_rows(chunks: list[np.ndarray]) -> np.ndarray:
    try:
        return np.concatenate(chunks)
    except ValueError as exc:
        raise LineageError(
            f"region pairs of one operator disagree on dimensionality: {exc}"
        ) from None


class LineageSink:
    """Receiver for an operator's ``lwrite`` calls (see Table I).

    The workflow runtime and the re-executor both install a
    :class:`BufferSink`; subclasses override the ``add_*`` hooks.
    """

    def add_pair(self, pair: RegionPair) -> None:
        raise NotImplementedError

    def add_elementwise(self, batch: ElementwiseBatch) -> None:
        raise NotImplementedError

    def add_payload_batch(self, batch: PayloadBatch) -> None:
        raise NotImplementedError

    def add_region_batch(self, batch: RegionBatch) -> None:
        raise NotImplementedError


class BufferSink(LineageSink):
    """In-memory sink used by the runtime and the re-executor.

    Holds the three record forms of the module docstring.  Per-pair calls
    are staged column-wise (one list per coordinate column, so staging a
    pair is a few list appends) and sealed into :class:`RegionBatch`es the
    first time :attr:`region_batches` is read — i.e. when the sink is
    handed to the runtime or the re-executor.
    """

    def __init__(self) -> None:
        self.elementwise: list[ElementwiseBatch] = []
        self.payload_batches: list[PayloadBatch] = []
        self._region_batches: list[RegionBatch] = []
        # staged full pairs: out cells, then one column per input
        self._full_out: list[np.ndarray] = []
        self._full_in: list[list[np.ndarray]] = []
        # staged payload pairs
        self._pay_out: list[np.ndarray] = []
        self._pay_blobs: list[bytes] = []

    def add_pair(self, pair: RegionPair) -> None:
        if pair.is_payload:
            self._pay_out.append(pair.outcells)
            self._pay_blobs.append(pair.payload)
            return
        if not self._full_out:
            self._full_in = [[] for _ in pair.incells]
        elif len(pair.incells) != len(self._full_in):
            raise LineageError(
                f"region pair names {len(pair.incells)} inputs; earlier pairs "
                f"of this operator named {len(self._full_in)}"
            )
        self._full_out.append(pair.outcells)
        for column, cells in zip(self._full_in, pair.incells):
            column.append(cells)

    def add_elementwise(self, batch: ElementwiseBatch) -> None:
        self.elementwise.append(batch)

    def add_payload_batch(self, batch: PayloadBatch) -> None:
        self.payload_batches.append(batch)

    def add_region_batch(self, batch: RegionBatch) -> None:
        self._region_batches.append(batch)

    @property
    def region_batches(self) -> list[RegionBatch]:
        """Every general-form record, staged per-pair rows included (they
        are sealed — concatenated into one full and one payload batch — on
        the way out, in whole-array passes)."""
        if self._full_out:
            self._region_batches.append(
                RegionBatch(
                    out_coords=_stack_rows(self._full_out),
                    out_offsets=_offsets_of(self._full_out),
                    in_coords=tuple(_stack_rows(col) for col in self._full_in),
                    in_offsets=tuple(_offsets_of(col) for col in self._full_in),
                )
            )
            self._full_out, self._full_in = [], []
        if self._pay_out:
            self._region_batches.append(
                RegionBatch(
                    out_coords=_stack_rows(self._pay_out),
                    out_offsets=_offsets_of(self._pay_out),
                    payloads=b"".join(self._pay_blobs),
                    payload_offsets=_offsets_of(self._pay_blobs),
                )
            )
            self._pay_out, self._pay_blobs = [], []
        return self._region_batches

    @property
    def n_pairs(self) -> int:
        """Region pairs recorded, counted as rows (a batch of ``n`` is ``n``)."""
        return (
            sum(b.count for b in self.elementwise)
            + sum(b.count for b in self.payload_batches)
            + sum(b.count for b in self.region_batches)
        )

    def clear(self) -> None:
        self.elementwise.clear()
        self.payload_batches.clear()
        self._region_batches.clear()
        self._full_out, self._full_in = [], []
        self._pay_out, self._pay_blobs = [], []


class Frontier:
    """Deduplicating set of cells over one array, backed by a boolean mask."""

    __slots__ = ("shape", "_mask")

    def __init__(self, shape: Sequence[int], mask: np.ndarray | None = None):
        self.shape = tuple(int(s) for s in shape)
        if mask is None:
            self._mask = np.zeros(self.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != self.shape:
                raise QueryError(f"mask shape {mask.shape} != frontier shape {self.shape}")
            self._mask = mask

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_coords(cls, coords: np.ndarray, shape: Sequence[int]) -> "Frontier":
        frontier = cls(shape)
        frontier.add_coords(coords)
        return frontier

    @classmethod
    def full(cls, shape: Sequence[int]) -> "Frontier":
        return cls(shape, mask=np.ones(tuple(shape), dtype=bool))

    # -- mutation ---------------------------------------------------------------

    def add_coords(self, coords: np.ndarray) -> None:
        arr = C.validate_coords(coords, self.shape)
        if arr.shape[0]:
            self._mask[tuple(arr.T)] = True

    def add_packed(self, packed: np.ndarray) -> None:
        if packed.size:
            self._mask.reshape(-1)[packed] = True

    def add_mask(self, mask: np.ndarray) -> None:
        self._mask |= mask

    def set_all(self) -> None:
        self._mask[...] = True

    # -- views ------------------------------------------------------------------

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    def coords(self) -> np.ndarray:
        return C.mask_to_coords(self._mask)

    def packed(self) -> np.ndarray:
        return np.nonzero(self._mask.reshape(-1))[0].astype(np.int64)

    @property
    def count(self) -> int:
        return int(self._mask.sum())

    @property
    def is_empty(self) -> bool:
        return not self._mask.any()

    @property
    def is_full(self) -> bool:
        return bool(self._mask.all())

    def __contains__(self, coord) -> bool:
        arr = C.validate_coords(np.asarray([coord]), self.shape)
        return bool(self._mask[tuple(arr[0])])

    def __repr__(self) -> str:
        return f"Frontier(shape={self.shape}, count={self.count})"


class Direction(enum.Enum):
    """Lineage query direction (§IV)."""

    BACKWARD = "backward"
    FORWARD = "forward"


@dataclass(frozen=True)
class QueryStep:
    """One hop of a query path: an operator node and which of its inputs the
    path passes through (``idx`` in the paper's notation)."""

    node: str
    input_idx: int = 0


@dataclass(frozen=True)
class LineageQuery:
    """``execute_query(C, ((P1, idx1), ..., (Pm, idxm)))`` from §IV.

    ``cells`` index the starting array: the output of ``path[0]`` for
    backward queries, or input ``path[0].input_idx`` of that node for
    forward queries.
    """

    cells: np.ndarray
    path: tuple[QueryStep, ...]
    direction: Direction

    def __post_init__(self) -> None:
        if not self.path:
            raise QueryError("a lineage query needs a non-empty operator path")
        object.__setattr__(self, "cells", C.as_coord_array(self.cells))
        object.__setattr__(
            self,
            "path",
            tuple(
                step if isinstance(step, QueryStep) else QueryStep(*step)
                for step in self.path
            ),
        )
