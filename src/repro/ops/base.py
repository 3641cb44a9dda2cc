"""Operator base class and the lineage API of Table I.

An operator consumes ``n`` input arrays and produces one output array (§IV).
Subclasses implement :meth:`Operator.compute` for the data transformation
and, depending on the lineage modes they support:

* ``MAP`` — override :meth:`map_b_many` / :meth:`map_f_many` (vectorised
  counterparts of the paper's ``map_b(outcell, i)`` / ``map_f(incell, i)``;
  they return the *union* of the per-cell lineage, which is all the query
  executor's boolean frontier needs);
* ``FULL`` — override :meth:`write_lineage` and call ``ctx.lwrite(...)``;
* ``PAY``/``COMP`` — also override :meth:`map_p_many` (the paper's
  ``map_p(outcell, payload, i)``) and emit payload pairs from
  :meth:`write_lineage` via ``ctx.lwrite_payload``.

Every operator that declares a pair mode overrides :meth:`write_lineage`;
the default raises :class:`~repro.errors.OperatorError`.

``supported_modes()`` declares what the optimizer may pick (operators that
don't override it are treated as all-to-all black boxes, exactly as §IV
prescribes for un-instrumented UDFs).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arrays import coords as C
from repro.arrays.array import SciArray
from repro.arrays.schema import ArraySchema
from repro.core.model import (
    BufferSink,
    ElementwiseBatch,
    LineageSink,
    PayloadBatch,
    RegionBatch,
    RegionPair,
)
from repro.core.modes import LineageMode
from repro.errors import LineageError, OperatorError

__all__ = ["LineageContext", "Operator", "payload_entry_hits", "payload_union"]


class LineageContext:
    """Handed to :meth:`Operator.run`; carries ``cur_modes`` and the sink
    behind the ``lwrite`` API calls."""

    def __init__(
        self,
        cur_modes: frozenset[LineageMode],
        sink: LineageSink | None = None,
        node: str | None = None,
    ):
        self.cur_modes = frozenset(cur_modes)
        self.sink = sink if sink is not None else BufferSink()
        self.node = node

    # -- mode queries ----------------------------------------------------------

    @property
    def wants_full(self) -> bool:
        return LineageMode.FULL in self.cur_modes

    @property
    def wants_payload(self) -> bool:
        return bool(
            self.cur_modes & {LineageMode.PAY, LineageMode.COMP}
        )

    @property
    def wants_pairs(self) -> bool:
        """True when the operator should execute its lineage-recording code."""
        return self.wants_full or self.wants_payload

    # -- the lwrite API (Table I) ---------------------------------------------

    def lwrite(self, outcells, *incells) -> None:
        """Record one region pair: ``outcells`` depend on every ``incells[i]``.

        The pair is validated, then staged into the sink's columnar region
        batch — the same record ``lwrite_batch`` produces — so a per-pair
        loop costs its Python iterations but takes no separate store path.
        """
        if not incells:
            raise LineageError("lwrite needs input cells (or use lwrite_payload)")
        pair = RegionPair(
            outcells=C.as_coord_array(outcells),
            incells=tuple(C.as_coord_array(cells) for cells in incells),
        )
        self.sink.add_pair(pair)

    def lwrite_payload(self, outcells, payload: bytes) -> None:
        """Record one payload pair (``lwrite(outcells, payload)`` in Table I);
        staged like :meth:`lwrite`, sealed as ``lwrite_payload_regions`` is."""
        if type(payload) is not bytes:  # zero-copy when already immutable
            payload = bytes(payload)
        self.sink.add_pair(
            RegionPair(outcells=C.as_coord_array(outcells), payload=payload)
        )

    def lwrite_elementwise(self, outcells, *incells) -> None:
        """Bulk form: row ``i`` is its own one-to-one region pair."""
        self.sink.add_elementwise(
            ElementwiseBatch(
                outcells=C.as_coord_array(outcells),
                incells=tuple(C.as_coord_array(cells) for cells in incells),
            )
        )

    def lwrite_payload_batch(self, outcells, payloads) -> None:
        """Bulk form: output cell ``i`` carries ``payloads[i]``."""
        self.sink.add_payload_batch(
            PayloadBatch(outcells=C.as_coord_array(outcells), payloads=payloads)
        )

    def lwrite_batch(self, out_coords, out_offsets, in_coords, in_offsets) -> None:
        """Columnar bulk form: ``n`` full region pairs in one call.

        Pair ``i`` spans ``out_coords[out_offsets[i]:out_offsets[i+1]]`` and,
        per input ``k``, ``in_coords[k][in_offsets[k][i]:in_offsets[k][i+1]]``.
        This is the general record form every store lowers: built-in
        operators emit their whole lineage as one descriptor, and per-pair
        :meth:`lwrite` calls are coalesced into it.
        """
        self.sink.add_region_batch(
            RegionBatch(
                out_coords=C.as_coord_array(out_coords),
                out_offsets=np.asarray(out_offsets, dtype=np.int64),
                in_coords=tuple(C.as_coord_array(cells) for cells in in_coords),
                in_offsets=tuple(
                    np.asarray(off, dtype=np.int64) for off in in_offsets
                ),
            )
        )

    def lwrite_payload_regions(
        self, out_coords, out_offsets, payloads: bytes, payload_offsets
    ) -> None:
        """Columnar bulk form for payload pairs with multi-cell out regions.

        Pair ``i`` spans ``out_coords[out_offsets[i]:out_offsets[i+1]]`` and
        carries ``payloads[payload_offsets[i]:payload_offsets[i+1]]``.
        """
        if type(payloads) is not bytes:
            payloads = bytes(payloads)
        self.sink.add_region_batch(
            RegionBatch(
                out_coords=C.as_coord_array(out_coords),
                out_offsets=np.asarray(out_offsets, dtype=np.int64),
                payloads=payloads,
                payload_offsets=np.asarray(payload_offsets, dtype=np.int64),
            )
        )


class Operator:
    """Base class for every workflow operator (built-in or UDF)."""

    #: number of input arrays; subclasses may override or set at init
    arity: int = 1
    #: every output cell depends on every input cell (e.g. global mean)
    all_to_all: bool = False
    #: manual annotations for the entire-array optimization (§VI-C).
    #: ``entire_array_safe`` asserts both directions at once; the split
    #: flags handle operators that are safe one way only — concat's forward
    #: lineage of one whole input is a *subset* of the output (the paper's
    #: counterexample), while its backward lineage of the whole output is
    #: each whole input.
    entire_array_safe: bool = False
    entire_array_safe_backward: bool = False
    entire_array_safe_forward: bool = False

    def entire_array_ok(self, backward: bool) -> bool:
        """May a full query frontier short-circuit this operator?"""
        if self.entire_array_safe:
            return True
        return self.entire_array_safe_backward if backward else self.entire_array_safe_forward

    def __init__(self, name: str | None = None):
        self.name = name or type(self).__name__
        self.input_schemas: tuple[ArraySchema, ...] | None = None
        self.output_schema: ArraySchema | None = None

    # -- binding -----------------------------------------------------------

    def bind(self, input_schemas: Sequence[ArraySchema]) -> ArraySchema:
        """Validate input schemas and derive the output schema.

        Mapping functions may rely on ``self.input_shapes`` and
        ``self.output_shape`` afterwards (the paper's mapping operators
        compute lineage from coordinates and array metadata only).
        """
        input_schemas = tuple(input_schemas)
        if len(input_schemas) != self.arity:
            raise OperatorError(
                f"{self.name}: expected {self.arity} inputs, got {len(input_schemas)}"
            )
        self.input_schemas = input_schemas
        self.output_schema = self.infer_schema(input_schemas).with_name(self.name)
        return self.output_schema

    def infer_schema(self, input_schemas: tuple[ArraySchema, ...]) -> ArraySchema:
        """Default: output mirrors the first input."""
        return input_schemas[0]

    @property
    def input_shapes(self) -> tuple[tuple[int, ...], ...]:
        self._require_bound()
        return tuple(s.shape for s in self.input_schemas)

    @property
    def output_shape(self) -> tuple[int, ...]:
        self._require_bound()
        return self.output_schema.shape

    def _require_bound(self) -> None:
        if self.input_schemas is None or self.output_schema is None:
            raise OperatorError(f"{self.name} has not been bound to input schemas")

    # -- execution ------------------------------------------------------------

    def run(self, inputs: Sequence[SciArray], ctx: LineageContext) -> SciArray:
        """Execute the operator, emitting lineage for ``ctx.cur_modes``.

        The default split keeps pure computation (:meth:`compute`) separate
        from lineage recording (:meth:`write_lineage`); operators may
        instead override ``run`` wholesale, as the paper's pseudocode does.
        """
        output = self.compute(list(inputs))
        if ctx.wants_pairs:
            self.write_lineage(list(inputs), output, ctx)
        return output

    def compute(self, inputs: list[SciArray]) -> SciArray:
        raise NotImplementedError(f"{self.name} does not implement compute()")

    def write_lineage(
        self, inputs: list[SciArray], output: SciArray, ctx: LineageContext
    ) -> None:
        """Emit region pairs via ``ctx.lwrite*``.

        Every operator that declares a pair mode (``FULL``, ``PAY`` or
        ``COMP``) overrides this; the runtime asks for pairs only in a mode
        the operator declares, and mapping operators answer from
        :meth:`map_b_many` / :meth:`map_f_many` instead.
        """
        raise OperatorError(f"{self.name} does not implement write_lineage()")

    # -- lineage declarations (Table I) ------------------------------------------

    def supported_modes(self) -> frozenset[LineageMode]:
        """Modes the optimizer may schedule for this operator.

        Default: black box only — the paper's conservative all-to-all
        assumption for un-instrumented operators.
        """
        return frozenset({LineageMode.BLACKBOX})

    def map_b_many(self, out_coords: np.ndarray, input_idx: int) -> np.ndarray:
        """Union of the backward lineage of ``out_coords`` in input ``input_idx``."""
        if self.all_to_all:
            self._require_bound()
            return C.all_coords(self.input_shapes[input_idx])
        raise LineageError(f"{self.name} defines no backward mapping function")

    def map_f_many(self, in_coords: np.ndarray, input_idx: int) -> np.ndarray:
        """Union of the forward lineage of ``in_coords`` from input ``input_idx``."""
        if self.all_to_all:
            self._require_bound()
            return C.all_coords(self.output_shape)
        raise LineageError(f"{self.name} defines no forward mapping function")

    def map_p_many(
        self, out_coords: np.ndarray, payload: bytes, input_idx: int
    ) -> np.ndarray:
        """Expand a payload pair back into input cells (``map_p`` in Table I).

        Must return the union of ``map_p(c, payload)`` over the rows ``c`` of
        ``out_coords``: queries expand all cells that share a payload in one
        call, and forward scans group-test blocks of rows (:meth:`map_p_batch`).
        """
        raise LineageError(f"{self.name} defines no payload mapping function")

    #: True when ``map_p`` returns the same input cells for every output
    #: cell of a pair (e.g. all pixels of one detected star).  Lets forward
    #: payload scans test a pair once instead of per cell.
    payload_uniform: bool = False

    def map_p_batch(
        self, out_coords: np.ndarray, payloads, input_idx: int, within=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise ``map_p``: output cell ``i`` carries ``payloads[i]``.

        Returns ``(in_coords, row_idx)`` where ``in_coords[j]`` belongs to
        output row ``row_idx[j]``.  Given ``within`` (ascending packed cells
        of input ``input_idx``) the result may omit any row whose lineage
        misses it; each row it keeps carries exactly its own cells.  The
        default groups rows by payload and then group-tests: one
        :meth:`map_p_many` call drops a block whose union misses ``within``,
        and a block that meets it is halved down to single rows.  Without
        ``within`` it asks once per row.  Overrides may ignore ``within``.
        """
        out_coords = C.as_coord_array(out_coords)
        found: list[tuple[int, np.ndarray]] = []
        for payload, rows in _payload_groups(payloads, out_coords.shape[0]):
            # (block, meets ``within`` for sure, is a left half): a block is
            # dropped when its union misses ``within`` and halved on a hit; a
            # left half that misses proves its right sibling hits unasked
            if within is None:
                blocks = [(row, True, False) for row in rows.reshape(-1, 1)]
            else:
                blocks = [(rows, False, False)]
            while blocks:
                block, sure, left = blocks.pop()
                if not sure or block.size == 1:
                    cells = self.map_p_many(out_coords[block], payload, input_idx)
                    if not sure and not C.isin_sorted(
                        C.pack_coords(cells, self.input_shapes[input_idx]), within
                    ).any():
                        if left:
                            blocks[-1] = (blocks[-1][0], True, False)
                        continue
                if block.size == 1:
                    found.append((int(block[0]), cells))
                else:
                    half = block.size // 2
                    blocks += [(block[half:], False, False), (block[:half], False, True)]
        found.sort(key=lambda item: item[0])
        if not found:
            return C.empty_coords(out_coords.shape[1]), np.empty(0, dtype=np.int64)
        rows = np.repeat(
            np.asarray([i for i, _ in found], dtype=np.int64),
            [cells.shape[0] for _, cells in found],
        )
        return np.concatenate([cells for _, cells in found]), rows

    # -- scalar conveniences matching the paper's signatures ------------------------

    def map_b(self, outcell: Sequence[int], input_idx: int = 0) -> np.ndarray:
        return self.map_b_many(C.as_coord_array([tuple(outcell)]), input_idx)

    def map_f(self, incell: Sequence[int], input_idx: int = 0) -> np.ndarray:
        return self.map_f_many(C.as_coord_array([tuple(incell)]), input_idx)

    def map_p(self, outcell: Sequence[int], payload: bytes, input_idx: int = 0) -> np.ndarray:
        return self.map_p_many(C.as_coord_array([tuple(outcell)]), payload, input_idx)

    # -- cost hints -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} arity={self.arity}>"


def _payload_groups(payloads, n: int) -> list[tuple[bytes, np.ndarray]]:
    """``(payload, ascending rows)`` per distinct payload of ``n`` rows, from
    an ``(n, width)`` matrix (one ``np.unique`` over rows viewed as void) or
    a list of bytes."""
    if n == 0:
        return []
    if isinstance(payloads, np.ndarray):
        if payloads.size == 0:  # zero-width payloads
            return [(b"", np.arange(n, dtype=np.int64))]
        matrix = np.ascontiguousarray(payloads).reshape(n, -1)
        rowbytes = matrix.view(np.dtype((np.void, matrix.shape[1] * matrix.itemsize)))
        distinct, inverse = np.unique(rowbytes.ravel(), return_inverse=True)
        keys = [d.tobytes() for d in distinct]
    else:
        index: dict[bytes, int] = {}
        inverse = np.asarray([index.setdefault(bytes(p), len(index)) for p in payloads])
        keys = list(index)
    order = np.argsort(inverse, kind="stable")
    bounds = np.searchsorted(inverse[order], np.arange(len(keys) + 1))
    return [(key, order[bounds[g]: bounds[g + 1]]) for g, key in enumerate(keys)]


def payload_union(op: Operator, out_coords: np.ndarray, payloads, input_idx: int) -> np.ndarray:
    """Union of every row's payload lineage (a backward expansion): one
    :meth:`Operator.map_p_many` call per payload shared by several rows, one
    :meth:`Operator.map_p_batch` call for the rows whose payload is their own
    (so a vectorised override still serves distinct-per-row payloads)."""
    out_coords = C.as_coord_array(out_coords)
    groups = _payload_groups(payloads, out_coords.shape[0])
    parts = [
        op.map_p_many(out_coords[rows], payload, input_idx)
        for payload, rows in groups
        if rows.size > 1
    ]
    singles = np.sort(np.asarray([rows[0] for _, rows in groups if rows.size == 1], dtype=np.int64))
    if singles.size:
        if isinstance(payloads, np.ndarray):
            picked = payloads[singles]
        else:
            picked = [payloads[i] for i in singles]
        parts.append(op.map_p_batch(out_coords[singles], picked, input_idx)[0])
    return np.concatenate(parts) if parts else C.empty_coords(out_coords.shape[1])


def payload_entry_hits(
    op: Operator, out_coords: np.ndarray, out_offsets, vbuf, voff, input_idx: int, within
) -> np.ndarray:
    """Indices of the ``out_coords`` rows whose payload lineage meets the
    ascending packed ``within`` (a forward scan over payload entries).

    Entry ``e`` owns rows ``out_offsets[e]:out_offsets[e+1]`` and payload
    ``vbuf[voff[e]:voff[e+1]]``.  Every row goes into one
    :meth:`Operator.map_p_batch` call carrying its entry's payload; a
    ``payload_uniform`` operator answers a whole entry from its first row.
    """
    out_offsets = np.asarray(out_offsets, dtype=np.int64)
    voff = np.asarray(voff, dtype=np.int64)
    klens = np.diff(out_offsets)
    if op.payload_uniform:
        entry = np.flatnonzero(klens)
        first = out_offsets[entry]
    else:
        entry = np.repeat(np.arange(klens.size), klens)
        first = np.arange(out_offsets[0], out_offsets[-1])
    if entry.size == 0:
        return np.empty(0, dtype=np.int64)
    starts, vlens = voff[entry], np.diff(voff)[entry]
    if (vlens == vlens[0]).all():  # fixed width: one gather into an (n, width) matrix
        raw = np.frombuffer(vbuf, dtype=np.uint8)
        payloads = raw[starts[:, None] + np.arange(vlens[0])]
    else:
        payloads = [bytes(vbuf[s: s + k]) for s, k in zip(starts, vlens)]
    cells, rows = op.map_p_batch(out_coords[first], payloads, input_idx, within=within)
    cells = C.pack_coords(cells, op.input_shapes[input_idx])
    hit = np.unique(rows[C.isin_sorted(cells, within)])
    if not op.payload_uniform:
        return first[hit]
    return C.expand_ranges(out_offsets[entry[hit]], klens[entry[hit]])
