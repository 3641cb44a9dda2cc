"""Integration tests for the genomics benchmark workload."""

import numpy as np
import pytest

from repro import (
    FULL_ONE_B,
    FULL_ONE_F,
    PAY_ONE_B,
    SubZero,
)
from repro.bench.genomics import (
    BUILTIN_NODES,
    N_FEATURES_SELECTED,
    UDF_NODES,
    GenomicsBenchmark,
    generate_matrix,
)
from repro.core.modes import LineageMode

SCALE = 4  # 400 patients — plenty for correctness checks


@pytest.fixture(scope="module")
def bench():
    return GenomicsBenchmark(scale=SCALE, seed=11)


@pytest.fixture(scope="module")
def subzero(bench):
    sz = SubZero(bench.build_spec())
    sz.use_mapping_where_possible()
    for udf in UDF_NODES:
        sz.set_strategy(udf, PAY_ONE_B)
    sz.run(bench.inputs())
    return sz


class TestWorkflowShape:
    def test_node_census(self, bench):
        spec = bench.build_spec()
        assert len(spec) == 14  # 10 built-ins + 4 UDFs, as in Figure 2
        assert len(BUILTIN_NODES) == 10
        assert set(UDF_NODES) <= set(spec.nodes)

    def test_builtins_map(self, bench):
        spec = bench.build_spec()
        for name in BUILTIN_NODES:
            assert LineageMode.MAP in spec.node(name).operator.supported_modes()

    def test_udfs_support_full_and_pay(self, bench):
        spec = bench.build_spec()
        for name in UDF_NODES:
            modes = spec.node(name).operator.supported_modes()
            assert LineageMode.FULL in modes and LineageMode.PAY in modes


class TestDataGenerator:
    def test_shape_and_labels(self):
        m = generate_matrix(scale=2, seed=0)
        assert m.shape == (56, 200)
        labels = m.values()[-1]
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_replication_preserves_labels(self):
        base = generate_matrix(scale=1, seed=0).values()[-1]
        scaled = generate_matrix(scale=3, seed=0).values()[-1]
        assert (scaled[: base.size] == base).all()
        assert (scaled[base.size: 2 * base.size] == base).all()


class TestPipelineOutputs:
    def test_model_shape(self, subzero):
        model = subzero.instance.output_array("train_model")
        assert model.shape == (N_FEATURES_SELECTED, 2)

    def test_predictions_are_probabilities(self, subzero):
        pred = subzero.instance.output_array("predict").values()
        assert pred.shape[1] == 1
        assert (pred >= 0).all() and (pred <= 1).all()

    def test_final_threshold_binary(self, subzero):
        out = subzero.instance.output_array("p_thresh").values()
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestLineageSemantics:
    def test_extract_is_one_to_one(self, subzero):
        res = subzero.backward_query([(5, 2)], [("extract_train", 0)])
        assert res.count == 1

    def test_model_cell_fanin_is_two_columns(self, subzero):
        n_patients = subzero.instance.operator("train_model").input_shapes[0][0]
        res = subzero.backward_query([(3, 0)], [("train_model", 0)])
        assert res.count == 2 * n_patients  # feature column + label column

    def test_prediction_depends_on_whole_model(self, subzero):
        res = subzero.backward_query([(7, 0)], [("predict", 0)])
        assert res.count == N_FEATURES_SELECTED * 2

    def test_prediction_depends_on_patient_row(self, subzero):
        res = subzero.backward_query([(7, 0)], [("predict", 1)])
        assert {c[0] for c in res.coords.tolist()} == {7}
        assert res.count == N_FEATURES_SELECTED


class TestQueriesAndEquivalence:
    def test_all_queries_run(self, bench, subzero):
        queries = bench.queries(subzero.instance)
        assert set(queries) == {"BQ0", "BQ1", "FQ0", "FQ1"}
        for name, query in queries.items():
            assert subzero.query(query).count > 0, name

    @pytest.mark.parametrize(
        "strategies",
        [None, [FULL_ONE_B], [FULL_ONE_F], [PAY_ONE_B], [PAY_ONE_B, FULL_ONE_F]],
        ids=["BlackBox", "FullOne", "FullForw", "PayOne", "PayBoth"],
    )
    def test_strategy_equivalence(self, bench, strategies):
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        sz.use_mapping_where_possible()
        if strategies:
            for udf in UDF_NODES:
                sz.set_strategy(udf, *strategies)
        instance = sz.run(bench.inputs())
        queries = bench.queries(instance)
        reference = SubZero(bench.build_spec(), enable_query_opt=False)
        reference.use_mapping_where_possible()
        ref_instance = reference.run(bench.inputs())
        ref_queries = bench.queries(ref_instance)
        for name in queries:
            got = {tuple(c) for c in sz.query(queries[name]).coords}
            want = {tuple(c) for c in reference.query(ref_queries[name]).coords}
            assert got == want, name

    def test_forward_and_backward_consistent(self, subzero):
        """Cells reported by BQ1 must flow forward to the queried model cell."""
        model_cell = (2, 0)
        back = subzero.backward_query(
            [model_cell],
            [("train_model", 0), ("extract_train", 0), ("t_norm", 0), ("t_log", 0), ("t_transpose", 0)],
        )
        some_sources = back.coords[:3]
        fwd = subzero.forward_query(
            some_sources,
            [("t_transpose", 0), ("t_log", 0), ("t_norm", 0), ("extract_train", 0), ("train_model", 0)],
        )
        assert model_cell in {tuple(c) for c in fwd.coords}


@pytest.mark.parametrize("node", ["extract_train", "extract_test", "predict"])
def test_vectorised_map_p_batch_agrees_with_per_row_map_p(subzero, node):
    """``payload_union`` relies on it: each row of the UDF's vectorised
    ``map_p_batch`` carries exactly that row's ``map_p_many`` cells."""
    op = subzero.instance.operator(node)
    store = subzero.runtime.store_for(node, PAY_ONE_B)
    keys, koff, vbuf, voff = store.payload_entries()
    n = min(24, koff.size - 1)
    out_coords = np.stack(
        [np.unravel_index(int(keys[koff[e]]), op.output_shape) for e in range(n)]
    ).astype(np.int64)
    payloads = [bytes(vbuf[voff[e]: voff[e + 1]]) for e in range(n)]
    for idx in range(op.arity):
        cells, rows = op.map_p_batch(out_coords, payloads, idx)
        for i in range(n):
            want = {tuple(c) for c in op.map_p_many(out_coords[i: i + 1], payloads[i], idx).tolist()}
            assert {tuple(c) for c in cells[rows == i].tolist()} == want
