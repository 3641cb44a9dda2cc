"""A query over a torn partition says so: ``QueryResult.degraded``.

The catalog is ``TestTornPartition``'s fixture (nodes ``alpha``..``delta``
spread over ``p0``..``p2``, ``p1``'s ``catalog.json`` torn) behind an
engine whose workflow has those four nodes.  A read on a node mapped to the
torn partition, and a broadcast while it is torn, list it; a read that
only touches live partitions, and a healthy catalog, list nothing.  The
field travels in ``to_dict()`` and counts in ``canonical_result``.
"""

import os

import numpy as np
import pytest

import tests.test_partition as partition_tests
from repro import SciArray, WorkflowSpec, ops
from repro.core.query import QueryRequest
from repro.core.subzero import SubZero
from repro.serving.protocol import canonical_result
from tests.test_segments import SHAPE


@pytest.fixture
def engine(tmp_path):
    """An engine over the fixture's catalog, torn or healthy."""

    def make(torn: bool) -> SubZero:
        directory, _strategy, _query = partition_tests.TestTornPartition()._flushed(
            tmp_path
        )
        if torn:
            with open(os.path.join(directory, "p1", "catalog.json"), "w") as fh:
                fh.write("{ torn")
        spec = WorkflowSpec(name="torn")
        spec.add_source("img")
        previous = "img"
        for node in partition_tests.NODES:
            spec.add_node(node, ops.Scale(2.0), [previous])
            previous = node
        sz = SubZero(spec, enable_query_opt=False)
        sz.run({"img": SciArray.from_numpy(np.ones(SHAPE))})
        sz.load_lineage(directory)
        made.append(sz)
        return sz

    made: list[SubZero] = []
    yield make
    for sz in made:
        sz.close()


def _degraded(sz, path, **flags):
    result = sz.query(QueryRequest.backward([(1, 2)], path, **flags))
    assert result.to_dict()["degraded"] == result.degraded
    return result.degraded


def test_reads_name_the_torn_partition(engine):
    sz = engine(torn=True)
    catalog = sz.runtime.catalog
    owner = {node: catalog.partition_for_node(node) for node in partition_tests.NODES}
    assert owner["beta"] == "p1" and owner["alpha"] != "p1"
    assert _degraded(sz, [("beta", 0)]) == ["p1"]
    assert _degraded(sz, [("alpha", 0)]) == []
    # a broadcast plan (entire_array forced on) consults every partition
    assert _degraded(sz, [("alpha", 0)], entire_array=True) == ["p1"]
    assert "degraded partitions: p1" in sz.query(
        QueryRequest.backward([(1, 2)], [("beta", 0)])
    ).explain()


def test_healthy_catalog_reports_nothing_and_the_field_is_canonical(engine):
    sz = engine(torn=False)
    result = sz.query(QueryRequest.backward([(1, 2)], [("beta", 0)]))
    assert result.degraded == []
    wire = result.to_dict()
    assert canonical_result(wire)["degraded"] == []
    assert canonical_result(dict(wire, degraded=["p1"])) != canonical_result(wire)
