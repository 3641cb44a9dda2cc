"""Smoke test of the end-to-end benchmark at ``--scale tiny``.

Opt-in: ``pytest benchmarks/e2e`` (tier-1 ``testpaths`` does not collect
it).  Each workload runs in under ten seconds and must emit every metric
``BENCHMARK.json`` names, with its unit, and fail no operation.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run(workload: str, trace: int, out) -> tuple[dict, float]:
    start = time.perf_counter()
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "2", "--trace", str(trace),
            "--scale", "tiny", "--out", str(out),
        ],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.splitlines()[-1]), elapsed


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert NAME.match(metric["name"]), metric["name"]
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    result, elapsed = run(workload, 0, tmp_path)
    assert elapsed < 10, f"{workload} took {elapsed:.1f} s at --scale tiny"
    check_metrics(result, BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    result, _elapsed = run(workload, 1, tmp_path)
    check_metrics(result, BENCHMARK["per_layer"])
    with open(tmp_path / f"trace-{workload}.json", encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["missing"] == {}
    # a point query's time is accounted for: what the layers claim as self
    # time adds up to its mean latency
    point = trace["classes"]["point"]
    in_layers = sum(ms for name, ms in point["self_ms"].items() if name != "e2e.op")
    assert abs(in_layers - point["mean_ms"]) <= 0.15 * point["mean_ms"]


def test_unresolved_boundary_is_reported_not_fatal():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        from layers import Boundary, Tracer

        tracer = Tracer()
        tracer.install(
            (
                Boundary("core.query", "execute", "repro.core.query.QueryExecutor.execute_request"),
                Boundary("core.gone", "call", "repro.core.query.QueryExecutor.no_such_method"),
                Boundary("gone", "call", "repro.no_such_module.function"),
            )
        )
        try:
            assert tracer.missing == {"core.gone", "gone"}
        finally:
            tracer.uninstall()
    finally:
        del sys.path[:2]
