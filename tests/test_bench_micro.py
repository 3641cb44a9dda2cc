"""Tests for the microbenchmark generator and its strategy sweeps."""

import numpy as np
import pytest

from repro import BLACKBOX, FULL_MANY_B, FULL_ONE_B, FULL_ONE_F, PAY_ONE_B, SubZero
from repro.bench.micro import MicroBenchmark, SyntheticLineageOp, _generate_pairs

SHAPE = (80, 80)


class TestPairGenerator:
    def test_coverage_target(self):
        outs, _ = _generate_pairs(SHAPE, fanin=1, fanout=1, coverage=0.1, seed=0)
        total = sum(o.shape[0] for o in outs)
        assert total >= 0.1 * SHAPE[0] * SHAPE[1]

    def test_fanin_fanout_honoured(self):
        outs, ins = _generate_pairs(SHAPE, fanin=9, fanout=4, coverage=0.05, seed=0)
        # clusters may clip at edges, but most pairs hit the target sizes
        assert np.median([o.shape[0] for o in outs]) == 4
        assert np.median([i.shape[0] for i in ins]) == 9

    def test_deterministic(self):
        a, _ = _generate_pairs(SHAPE, 2, 2, 0.05, seed=7)
        b, _ = _generate_pairs(SHAPE, 2, 2, 0.05, seed=7)
        assert all((x == y).all() for x, y in zip(a, b))


class TestMicroBenchmark:
    @pytest.fixture(scope="class")
    def bench(self):
        return MicroBenchmark(
            fanin=5, fanout=3, shape=SHAPE, coverage=0.05, seed=2, query_cells=50
        )

    def test_spec_rebuild_is_deterministic(self, bench):
        s1, s2 = bench.build_spec(), bench.build_spec()
        op1, op2 = s1.node("synthetic").operator, s2.node("synthetic").operator
        assert all((a == b).all() for a, b in zip(op1._outs, op2._outs))

    @pytest.mark.parametrize(
        "strategy",
        [BLACKBOX, FULL_ONE_B, FULL_MANY_B, FULL_ONE_F, PAY_ONE_B],
        ids=lambda s: s.label,
    )
    def test_strategy_equivalence(self, bench, strategy):
        sz = SubZero(bench.build_spec(), enable_query_opt=False)
        if strategy is not BLACKBOX:
            sz.set_strategy("synthetic", strategy)
        instance = sz.run(bench.inputs())
        queries = bench.queries(instance)

        ref = SubZero(bench.build_spec(), enable_query_opt=False)
        ref_instance = ref.run(bench.inputs())
        ref_queries = bench.queries(ref_instance)

        for name in queries:
            got = {tuple(c) for c in sz.query(queries[name]).coords}
            want = {tuple(c) for c in ref.query(ref_queries[name]).coords}
            assert got == want, name

    def test_payload_size_is_4x_fanin(self, bench):
        op: SyntheticLineageOp = bench.build_spec().node("synthetic").operator
        for ins in op._ins[:5]:
            assert len(op._encode_payload(ins)) == 4 * ins.shape[0]

    def test_disk_grows_with_fanin(self):
        sizes = {}
        for fanin in (1, 16):
            bench = MicroBenchmark(
                fanin=fanin, fanout=1, shape=SHAPE, coverage=0.05, seed=2
            )
            sz = SubZero(bench.build_spec())
            sz.set_strategy("synthetic", FULL_ONE_B)
            sz.run(bench.inputs())
            sizes[fanin] = sz.lineage_disk_bytes()
        assert sizes[16] > sizes[1]

    def test_payload_disk_flat_in_fanin_for_one(self):
        """PayOne keys dominate; disk grows only via the 4*fanin payload."""
        sizes = {}
        for fanin in (1, 16):
            bench = MicroBenchmark(
                fanin=fanin, fanout=1, shape=SHAPE, coverage=0.05, seed=2
            )
            sz = SubZero(bench.build_spec())
            sz.set_strategy("synthetic", PAY_ONE_B)
            sz.run(bench.inputs())
            sizes[fanin] = sz.lineage_disk_bytes()
        # paper: payload overhead nearly independent of fanin (vs Full's blow-up)
        assert sizes[16] < sizes[1] * 8
