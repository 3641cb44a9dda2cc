"""Mapping-function correctness for every built-in operator.

Two layers: hand-computed cases per operator, and the *duality property* —
``c in map_b(o)`` iff ``o in map_f(c)`` — checked by brute force over whole
(small) arrays for every operator in the catalogue.  The duality is exactly
what makes backward and forward queries consistent with each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FULL_ONE_B, MAP, SciArray, SubZero, WorkflowSpec, ops
from repro.arrays import coords as C
from repro.arrays.schema import ArraySchema
from repro.core.modes import LineageMode
from repro.core.query import QueryRequest
from repro.errors import OperatorError
from repro.ops.base import payload_union


def bind(op, *shapes):
    op.bind(tuple(ArraySchema.dense(s) for s in shapes))
    return op


def brute_force_duality(op, tolerate_superset=False):
    """Check map_b/map_f agree cell-by-cell across all inputs."""
    out_shape = op.output_shape
    for idx in range(op.arity):
        in_shape = op.input_shapes[idx]
        forward: dict[tuple, set] = {}
        for in_cell in C.all_coords(in_shape):
            outs = op.map_f_many(in_cell.reshape(1, -1), idx)
            forward[tuple(in_cell)] = {tuple(o) for o in outs}
        for out_cell in C.all_coords(out_shape):
            ins = op.map_b_many(out_cell.reshape(1, -1), idx)
            for in_cell in ins:
                assert tuple(out_cell) in forward[tuple(in_cell)], (
                    f"{op.name}: {tuple(in_cell)} in map_b({tuple(out_cell)}) but "
                    f"{tuple(out_cell)} not in map_f({tuple(in_cell)})"
                )
        # and the reverse inclusion
        backward: dict[tuple, set] = {}
        for out_cell in C.all_coords(out_shape):
            ins = op.map_b_many(out_cell.reshape(1, -1), idx)
            backward[tuple(out_cell)] = {tuple(i) for i in ins}
        for in_cell, outs in forward.items():
            for out_cell in outs:
                assert in_cell in backward[out_cell], (
                    f"{op.name}: {tuple(out_cell)} in map_f({tuple(in_cell)}) but "
                    f"{tuple(in_cell)} not in map_b({tuple(out_cell)})"
                )


DUALITY_CASES = [
    (lambda: bind(ops.Scale(2.0), (4, 5)), None),
    (lambda: bind(ops.Threshold(0.5), (3, 3)), None),
    (lambda: bind(ops.Add(), (3, 4), (3, 4)), None),
    (lambda: bind(ops.BroadcastSubtract(), (3, 4), (1,)), None),
    (lambda: bind(ops.Transpose(), (3, 5)), None),
    (lambda: bind(ops.MatMul(), (3, 4), (4, 2)), None),
    (lambda: bind(ops.MatrixInverse(), (3, 3)), None),
    (lambda: bind(ops.Convolve2D(ops.gaussian_kernel(3)), (5, 6)), None),
    (lambda: bind(ops.SliceOp((1, 1), (3, 4)), (5, 6)), None),
    (lambda: bind(ops.Concat(axis=0), (2, 3), (4, 3)), None),
    (lambda: bind(ops.Concat(axis=1, arity=3), (2, 2), (2, 3), (2, 1)), None),
    (lambda: bind(ops.Subsample((2, 3)), (6, 9)), None),
    (lambda: bind(ops.Reshape((2, 6)), (3, 4)), None),
    (lambda: bind(ops.Pad((1, 0), (0, 2)), (3, 3)), None),
    (lambda: bind(ops.Reduce(axis=0), (4, 3)), None),
    (lambda: bind(ops.Reduce(axis=1), (4, 3)), None),
    (lambda: bind(ops.Reduce(axis=0), (5,)), None),
    (lambda: bind(ops.GlobalMean(), (3, 4)), None),
    (lambda: bind(ops.Standardize(), (3, 3)), None),
    (lambda: bind(ops.CumulativeSum(axis=0), (4, 3)), None),
    (lambda: bind(ops.CumulativeSum(axis=1), (3, 4)), None),
    (lambda: bind(ops.AttributeJoin(), (3, 3), (3, 3)), None),
    (lambda: bind(ops.CrossProduct(), (3,), (4,)), None),
    (lambda: bind(ops.Shift((1, -2)), (5, 6)), None),
    (lambda: bind(ops.Flip(axis=0), (4, 5)), None),
    (lambda: bind(ops.Flip(axis=1), (4, 5)), None),
    (lambda: bind(ops.Rotate90(), (3, 5)), None),
    (lambda: bind(ops.WindowReduce(3, "median"), (5, 6)), None),
]


@pytest.mark.parametrize(
    "factory", [case[0] for case in DUALITY_CASES],
    ids=[case[0]().name for case in DUALITY_CASES],
)
def test_map_duality(factory):
    brute_force_duality(factory())


class TestElementwiseCompute:
    def test_scale(self):
        op = bind(ops.Scale(3.0), (2, 2))
        out = op.compute([SciArray.from_numpy(np.ones((2, 2)))])
        assert (out.values() == 3.0).all()

    def test_threshold_binary_output(self):
        op = bind(ops.Threshold(0.5), (2, 2))
        out = op.compute([SciArray.from_numpy(np.asarray([[0.1, 0.9], [0.5, 0.6]]))])
        assert out.values().tolist() == [[0.0, 1.0], [0.0, 1.0]]

    def test_clip_bounds_validated(self):
        with pytest.raises(Exception):
            ops.Clip(2.0, 1.0)

    def test_divide_by_zero_guarded(self):
        op = bind(ops.Divide(), (1, 2), (1, 2))
        out = op.compute(
            [
                SciArray.from_numpy(np.asarray([[4.0, 6.0]])),
                SciArray.from_numpy(np.asarray([[2.0, 0.0]])),
            ]
        )
        assert np.isfinite(out.values()).all()

    def test_divide_constant_zero_rejected(self):
        with pytest.raises(Exception):
            ops.DivideConstant(0.0)

    def test_binary_shape_mismatch(self):
        op = ops.Add()
        with pytest.raises(Exception):
            op.bind((ArraySchema.dense((2, 2)), ArraySchema.dense((3, 3))))

    def test_broadcast_needs_scalar(self):
        op = ops.BroadcastSubtract()
        with pytest.raises(Exception):
            op.bind((ArraySchema.dense((2, 2)), ArraySchema.dense((2, 2))))

    def test_broadcast_compute(self):
        op = bind(ops.BroadcastSubtract(), (2, 2), (1,))
        out = op.compute(
            [
                SciArray.from_numpy(np.full((2, 2), 5.0)),
                SciArray.from_numpy(np.asarray([2.0])),
            ]
        )
        assert (out.values() == 3.0).all()


class TestLinalgCompute:
    def test_transpose(self):
        op = bind(ops.Transpose(), (2, 3))
        out = op.compute([SciArray.from_numpy(np.arange(6).reshape(2, 3).astype(float))])
        assert out.shape == (3, 2)
        assert out.values()[2, 1] == 5.0

    def test_transpose_requires_2d(self):
        with pytest.raises(Exception):
            ops.Transpose().bind((ArraySchema.dense((2, 2, 2)),))

    def test_matmul(self):
        op = bind(ops.MatMul(), (2, 3), (3, 2))
        a = np.arange(6).reshape(2, 3).astype(float)
        b = np.arange(6).reshape(3, 2).astype(float)
        out = op.compute([SciArray.from_numpy(a), SciArray.from_numpy(b)])
        assert np.allclose(out.values(), a @ b)

    def test_matmul_inner_dim_checked(self):
        with pytest.raises(Exception):
            ops.MatMul().bind((ArraySchema.dense((2, 3)), ArraySchema.dense((2, 3))))

    def test_matmul_map_b_is_row_and_column(self):
        op = bind(ops.MatMul(), (3, 4), (4, 2))
        ins_a = op.map_b((1, 0), 0)
        assert {tuple(c) for c in ins_a} == {(1, k) for k in range(4)}
        ins_b = op.map_b((1, 0), 1)
        assert {tuple(c) for c in ins_b} == {(k, 0) for k in range(4)}

    def test_inverse_all_to_all(self):
        op = bind(ops.MatrixInverse(), (3, 3))
        assert op.all_to_all
        ins = op.map_b((0, 0), 0)
        assert ins.shape[0] == 9

    def test_inverse_requires_square(self):
        with pytest.raises(Exception):
            ops.MatrixInverse().bind((ArraySchema.dense((2, 3)),))


class TestConvolution:
    def test_kernel_must_be_odd(self):
        with pytest.raises(Exception):
            ops.Convolve2D(np.ones((2, 2)))

    def test_gaussian_kernel_normalised(self):
        k = ops.gaussian_kernel(5, 1.5)
        assert k.shape == (5, 5)
        assert abs(k.sum() - 1.0) < 1e-12

    def test_gaussian_kernel_odd_size_required(self):
        with pytest.raises(Exception):
            ops.gaussian_kernel(4)

    def test_map_b_interior(self):
        op = bind(ops.Convolve2D(ops.gaussian_kernel(3)), (10, 10))
        ins = op.map_b((5, 5), 0)
        assert ins.shape[0] == 9

    def test_map_b_corner_clipped(self):
        op = bind(ops.Convolve2D(ops.gaussian_kernel(3)), (10, 10))
        ins = op.map_b((0, 0), 0)
        assert ins.shape[0] == 4

    def test_compute_matches_scipy(self):
        from scipy import ndimage

        rng = np.random.default_rng(0)
        img = rng.random((8, 8))
        kernel = ops.gaussian_kernel(3)
        op = bind(ops.Convolve2D(kernel), (8, 8))
        out = op.compute([SciArray.from_numpy(img)])
        assert np.allclose(out.values(), ndimage.convolve(img, kernel, mode="constant"))


class TestReshapeOps:
    def test_slice_bounds_checked(self):
        with pytest.raises(Exception):
            bind(ops.SliceOp((0, 0), (9, 9)), (5, 5))

    def test_slice_compute(self):
        op = bind(ops.SliceOp((1, 1), (3, 3)), (4, 4))
        out = op.compute([SciArray.from_numpy(np.arange(16).reshape(4, 4).astype(float))])
        assert out.shape == (2, 2)
        assert out.values()[0, 0] == 5.0

    def test_concat_compute_and_offsets(self):
        op = bind(ops.Concat(axis=0), (2, 3), (1, 3))
        a = SciArray.from_numpy(np.zeros((2, 3)))
        b = SciArray.from_numpy(np.ones((1, 3)))
        out = op.compute([a, b])
        assert out.shape == (3, 3)
        assert op.map_b((2, 1), 1).tolist() == [[0, 1]]
        assert op.map_b((0, 1), 1).shape[0] == 0  # outside input 1

    def test_concat_mismatched_extents(self):
        with pytest.raises(Exception):
            bind(ops.Concat(axis=0), (2, 3), (1, 4))

    def test_subsample(self):
        op = bind(ops.Subsample((2, 2)), (4, 4))
        out = op.compute([SciArray.from_numpy(np.arange(16).reshape(4, 4).astype(float))])
        assert out.shape == (2, 2)
        assert out.values()[1, 1] == 10.0

    def test_reshape_size_checked(self):
        with pytest.raises(Exception):
            bind(ops.Reshape((5, 5)), (3, 4))

    def test_pad(self):
        op = bind(ops.Pad((1, 1), (1, 1)), (2, 2))
        out = op.compute([SciArray.from_numpy(np.ones((2, 2)))])
        assert out.shape == (4, 4)
        assert out.values()[0, 0] == 0.0
        # border cells have empty backward lineage
        assert op.map_b((0, 0), 0).shape[0] == 0


class TestAggregates:
    def test_reduce_axis0(self):
        op = bind(ops.Reduce(axis=0, fn=np.sum), (3, 2))
        out = op.compute([SciArray.from_numpy(np.ones((3, 2)))])
        assert out.shape == (2,)
        assert (out.values() == 3.0).all()

    def test_reduce_1d_to_cell(self):
        op = bind(ops.Reduce(axis=0, fn=np.sum), (5,))
        out = op.compute([SciArray.from_numpy(np.ones(5))])
        assert out.shape == (1,)
        assert out.values()[0] == 5.0

    def test_global_mean(self):
        op = bind(ops.GlobalMean(), (2, 2))
        out = op.compute([SciArray.from_numpy(np.asarray([[1.0, 2.0], [3.0, 4.0]]))])
        assert out.values()[0] == 2.5
        assert op.all_to_all

    def test_standardize(self):
        op = bind(ops.Standardize(), (2, 2))
        out = op.compute([SciArray.from_numpy(np.asarray([[1.0, 2.0], [3.0, 4.0]]))])
        assert abs(out.values().mean()) < 1e-12

    def test_standardize_constant_input(self):
        op = bind(ops.Standardize(), (2, 2))
        out = op.compute([SciArray.from_numpy(np.ones((2, 2)))])
        assert np.isfinite(out.values()).all()

    def test_cumsum_map_b(self):
        op = bind(ops.CumulativeSum(axis=1), (2, 4))
        ins = op.map_b((0, 2), 0)
        assert {tuple(c) for c in ins} == {(0, 0), (0, 1), (0, 2)}

    def test_cumsum_compute(self):
        op = bind(ops.CumulativeSum(axis=0), (3, 1))
        out = op.compute([SciArray.from_numpy(np.ones((3, 1)))])
        assert out.values()[:, 0].tolist() == [1.0, 2.0, 3.0]


class TestJoinOps:
    def test_attribute_join_schema(self):
        op = bind(ops.AttributeJoin(), (2, 2), (2, 2))
        assert op.output_schema.attr_names == ("left", "right")
        out = op.compute(
            [SciArray.from_numpy(np.zeros((2, 2))), SciArray.from_numpy(np.ones((2, 2)))]
        )
        assert out.values("right").sum() == 4.0

    def test_cross_product(self):
        op = bind(ops.CrossProduct(), (2,), (3,))
        out = op.compute(
            [SciArray.from_numpy(np.asarray([1.0, 2.0])), SciArray.from_numpy(np.asarray([3.0, 4.0, 5.0]))]
        )
        assert out.shape == (2, 3)
        assert out.values()[1, 2] == 10.0


class TestOperatorDefaults:
    def test_unbound_access_raises(self):
        op = ops.Scale(1.0)
        with pytest.raises(Exception):
            _ = op.output_shape

    def test_supported_modes_default_blackbox(self):
        class Opaque(ops.Operator):
            def compute(self, inputs):
                return inputs[0]

        assert Opaque().supported_modes() == frozenset({LineageMode.BLACKBOX})

    def test_mapping_ops_declare_map(self):
        assert LineageMode.MAP in ops.Scale(1.0).supported_modes()
        assert LineageMode.MAP in ops.MatMul().supported_modes()

    def test_scalar_map_wrappers(self):
        op = bind(ops.Transpose(), (3, 5))
        assert op.map_b((1, 2)).tolist() == [[2, 1]]
        assert op.map_f((1, 2)).tolist() == [[2, 1]]


# -- every built-in through a workflow run ---------------------------------------

_A = np.arange(1, 25, dtype=np.float64).reshape(4, 6) / 7.0
_B = np.arange(12, dtype=np.float64).reshape(2, 6)
_SQ = _A[:, :4] + 4.0 * np.eye(4)
_V, _W = np.asarray([1.0, 2.0, 3.0]), np.asarray([4.0, 5.0])


def _shifted(a):
    out = np.zeros_like(a)
    out[1:, :4] = a[:-1, 2:]  # out[r, c] = a[r - 1, c + 2]
    return out


def _window_max(a):
    padded = np.pad(a, 1, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, (3, 3)).max(axis=(2, 3))


#: (operator factory, inputs, the output's attributes as a NumPy expression)
WORKFLOW_CASES = {
    "Shift": (lambda: ops.Shift((1, -2)), [_A], lambda a: [_shifted(a)]),
    "Flip": (lambda: ops.Flip(axis=1), [_A], lambda a: [np.flip(a, axis=1)]),
    "Rotate90": (lambda: ops.Rotate90(), [_A], lambda a: [np.rot90(a)]),
    "WindowReduce": (lambda: ops.WindowReduce(3, "max"), [_A], lambda a: [_window_max(a)]),
    "Reshape": (lambda: ops.Reshape((6, 4)), [_A], lambda a: [a.reshape(6, 4)]),
    "MatrixInverse": (lambda: ops.MatrixInverse(), [_SQ], lambda a: [np.linalg.inv(a)]),
    "SliceOp": (lambda: ops.SliceOp((1, 2), (3, 5)), [_A], lambda a: [a[1:3, 2:5]]),
    "Concat": (lambda: ops.Concat(axis=0), [_A, _B], lambda a, b: [np.concatenate([a, b])]),
    "Subsample": (lambda: ops.Subsample((2, 3)), [_A], lambda a: [a[::2, ::3]]),
    "Reduce": (lambda: ops.Reduce(axis=1, fn=np.sum), [_A], lambda a: [a.sum(axis=1)]),
    "Standardize": (lambda: ops.Standardize(), [_A], lambda a: [(a - a.mean()) / a.std()]),
    "AttributeJoin": (lambda: ops.AttributeJoin(), [_A, _A * 2], lambda a, b: [a, b]),
    "CrossProduct": (lambda: ops.CrossProduct(), [_V, _W], lambda a, b: [np.outer(a, b)]),
}


def _cell_set(coords) -> set:
    return {tuple(c) for c in np.asarray(coords).tolist()}


@pytest.mark.parametrize("name", sorted(WORKFLOW_CASES))
def test_builtin_runs_and_answers_map_queries(name):
    """Each operator runs in a one-node workflow; its output equals a NumPy
    expression, and MAP queries both ways equal the union of the per-cell
    ``map_b`` / ``map_f``."""
    make, arrays, expected = WORKFLOW_CASES[name]
    spec = WorkflowSpec(name=name)
    sources = [spec.add_source(f"x{i}") for i in range(len(arrays))]
    spec.add_node("op", make(), sources)
    sz = SubZero(spec, enable_query_opt=False)
    sz.set_strategy("op", MAP)
    sz.run({src: SciArray.from_numpy(a) for src, a in zip(sources, arrays)})
    out = sz.instance.output_array("op")
    got = [out.values(attr) for attr in out.schema.attr_names]
    want = expected(*arrays)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.allclose(g, w)
    op = sz.instance.operator("op")
    out_cells = C.all_coords(op.output_shape)[[0, -1]]
    for idx in range(op.arity):
        in_cells = C.all_coords(op.input_shapes[idx])[[0, -1]]
        backward = sz.query(QueryRequest.backward(out_cells, [("op", idx)]))
        assert _cell_set(backward.coords) == set().union(
            *(_cell_set(op.map_b(tuple(c), idx)) for c in out_cells)
        )
        forward = sz.query(QueryRequest.forward(in_cells, [("op", idx)]))
        assert _cell_set(forward.coords) == set().union(
            *(_cell_set(op.map_f(tuple(c), idx)) for c in in_cells)
        )
    sz.close()


class _FullWithoutWriter(ops.Operator):
    """Declares FULL but never overrides ``write_lineage``."""

    def compute(self, inputs):
        return SciArray.from_numpy(inputs[0].values().copy(), name=self.name)

    def supported_modes(self):
        return frozenset({LineageMode.FULL, LineageMode.BLACKBOX})


def test_full_operator_without_write_lineage_fails_typed():
    spec = WorkflowSpec(name="nowriter")
    spec.add_source("img")
    spec.add_node("n", _FullWithoutWriter(), ["img"])
    sz = SubZero(spec, enable_query_opt=False)
    sz.set_strategy("n", FULL_ONE_B)
    with pytest.raises(OperatorError, match="does not implement write_lineage"):
        sz.run({"img": SciArray.from_numpy(np.ones((3, 3)))})
    sz.close()


# -- payload expansion: map_p_batch / payload_union against per-row map_p ----------


class _DilatePayload(ops.Operator):
    """``map_p`` dilates by a radius read from the payload (the byte sum mod
    3; an empty payload is radius 0), clipped at the input edges — a union
    over cells, as every payload operator's ``map_p_many`` must be."""

    def map_p_many(self, out_coords, payload, input_idx):
        radius = sum(payload) % 3
        axis = np.arange(-radius, radius + 1)
        grid = np.meshgrid(axis, axis, indexing="ij")
        offsets = np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)
        return ops.dilate_coords(out_coords, offsets, self.input_shapes[0])


@st.composite
def _payload_batches(draw):
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    n = draw(st.integers(0, 12))
    rows = [draw(st.integers(0, shape[0] - 1)) for _ in range(n)]
    cols = [draw(st.integers(0, shape[1] - 1)) for _ in range(n)]
    cells = np.asarray([rows, cols], dtype=np.int64).T.reshape(n, 2)
    width = draw(st.integers(0, 2))
    palette = draw(
        st.lists(st.binary(min_size=width, max_size=width), min_size=1, max_size=3, unique=True)
    )
    chosen = [palette[draw(st.integers(0, len(palette) - 1))] for _ in range(n)]
    if draw(st.booleans()):
        payloads = np.frombuffer(b"".join(chosen), dtype=np.uint8).reshape(n, width)
    else:
        payloads = chosen
    size = shape[0] * shape[1]
    within = np.asarray(
        sorted(draw(st.sets(st.integers(0, size - 1), max_size=size))), dtype=np.int64
    )
    return shape, cells, payloads, chosen, within


@settings(deadline=None, max_examples=150)
@given(_payload_batches())
def test_map_p_batch_matches_per_row_map_p(batch):
    shape, cells, payloads, chosen, within = batch
    op = bind(_DilatePayload(), shape)
    per_row = [
        np.sort(C.pack_coords(op.map_p_many(cells[i: i + 1], chosen[i], 0), shape))
        for i in range(cells.shape[0])
    ]
    # without ``within``: every row, in order, each with its own cells
    got, rows = op.map_p_batch(cells, payloads, 0)
    assert rows.tolist() == [i for i, p in enumerate(per_row) for _ in range(p.size)]
    want = np.concatenate(per_row) if per_row else np.empty(0, dtype=np.int64)
    assert np.array_equal(np.sort(C.pack_coords(got, shape)), np.sort(want))
    for i, expected in enumerate(per_row):
        assert np.array_equal(np.sort(C.pack_coords(got[rows == i], shape)), expected)
    # with ``within``: exactly the rows that meet it, each with its own cells
    got, rows = op.map_p_batch(cells, payloads, 0, within=within)
    meets = {i for i, p in enumerate(per_row) if np.isin(p, within).any()}
    assert set(rows.tolist()) == meets
    for i in meets:
        assert np.array_equal(np.sort(C.pack_coords(got[rows == i], shape)), per_row[i])
    # the backward union equals the union of the per-row expansions
    if cells.shape[0]:
        union = np.unique(C.pack_coords(payload_union(op, cells, payloads, 0), shape))
        assert np.array_equal(union, np.unique(np.concatenate(per_row)))
