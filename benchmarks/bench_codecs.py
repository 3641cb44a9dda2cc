"""Codec benchmark: storage size and query latency per lineage codec.

Not a paper figure — this validates the codec subsystem (see
``repro.storage.codecs``) against its acceptance bar on the two evaluation
workloads:

* **astronomy** (§II-A): convolution lineage — every output cell of the
  ``smooth`` nodes depends on a Gaussian-kernel neighbourhood — and
  reshape-style block lineage, both of which emit contiguous regions that
  should interval-code to a fraction of the delta format (target: >= 2x
  smaller);
* **genomics** (§II-B): the ``train_model`` fanin touches one feature
  column across every (replicated) patient — strided, never contiguous —
  where delta coding must keep winning and selection must not regress.

Latency side: backward queries decode matched entry values, so the selected
formats must decode within 1.2x of the delta-only baseline; mismatched
forward scans probe entries in situ (``contains_any``) and should beat
decoding every entry outright.

Run with::

    PYTHONPATH=src pytest benchmarks/bench_codecs.py --benchmark-only -s
"""

import time

import numpy as np
import pytest

from repro.arrays import coords as C
from repro.bench.report import ResultTable
from repro.ops.convolution import dilate_coords
from repro.storage import codecs

from conftest import ASTRO_SHAPE, GENOMICS_SCALE

N_CONV_ENTRIES = 1500
CONV_RADIUS = 4  # 9x9 neighbourhood, matching the astronomy smoothing scale
N_RESHAPE_ENTRIES = 400
RESHAPE_RUN = 200  # cells per contiguous reshape block
N_FEATURES = 56  # genomics matrix rows (55 features + label)
N_QUERY_CELLS = 64


def _neighbourhood_offsets(radius: int) -> np.ndarray:
    grid = np.meshgrid(
        np.arange(-radius, radius + 1), np.arange(-radius, radius + 1), indexing="ij"
    )
    return np.stack([g.ravel() for g in grid], axis=1).astype(np.int64)


def astronomy_conv_entries(rng) -> list[np.ndarray]:
    """Per-output-cell convolution input regions on the astronomy shape."""
    offsets = _neighbourhood_offsets(CONV_RADIUS)
    rows = rng.integers(0, ASTRO_SHAPE[0], N_CONV_ENTRIES)
    cols = rng.integers(0, ASTRO_SHAPE[1], N_CONV_ENTRIES)
    entries = []
    for r, c in zip(rows, cols):
        region = dilate_coords(np.asarray([[r, c]]), offsets, ASTRO_SHAPE)
        entries.append(np.sort(C.pack_coords(region, ASTRO_SHAPE)))
    return entries


def astronomy_reshape_entries(rng) -> list[np.ndarray]:
    """Reshape/spatial block lineage: fully contiguous packed runs."""
    size = int(np.prod(ASTRO_SHAPE))
    starts = rng.integers(0, size - RESHAPE_RUN, N_RESHAPE_ENTRIES)
    return [np.arange(s, s + RESHAPE_RUN, dtype=np.int64) for s in starts]


def genomics_train_entries(rng) -> list[np.ndarray]:
    """train_model fanin: one feature column across all replicated patients
    of the transposed (patients, features) training matrix — stride
    ``N_FEATURES``, never contiguous."""
    n_patients = 100 * GENOMICS_SCALE
    shape = (n_patients, N_FEATURES)
    entries = []
    for feature in range(N_FEATURES):
        coords = np.stack(
            [
                np.arange(n_patients, dtype=np.int64),
                np.full(n_patients, feature, dtype=np.int64),
            ],
            axis=1,
        )
        entries.append(np.sort(C.pack_coords(coords, shape)))
    return entries


WORKLOADS = {
    "astro-conv": astronomy_conv_entries,
    "astro-reshape": astronomy_reshape_entries,
    "genomics-train": genomics_train_entries,
}


def _forced_bytes(codec, entries) -> int | None:
    total = 0
    for arr in entries:
        size = codec.nbytes(arr)
        if size is None:
            return None
        total += size
    return total


def _best_of(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def workloads():
    rng = np.random.default_rng(7)
    return {name: build(rng) for name, build in WORKLOADS.items()}


@pytest.fixture(scope="module")
def size_report(workloads):
    table = ResultTable(
        title="codec sizes (total bytes per workload)",
        columns=["workload", "entries", "raw", "delta", "interval", "selected", "delta/selected"],
    )
    report = {}
    for name, entries in workloads.items():
        raw = _forced_bytes(codecs.RAW, entries)
        delta = _forced_bytes(codecs.DELTA, entries)
        interval = _forced_bytes(codecs.INTERVAL, entries)
        selected = sum(codecs.cells_nbytes(arr) for arr in entries)
        report[name] = {
            "raw": raw, "delta": delta, "interval": interval, "selected": selected
        }
        table.add_row(
            name,
            len(entries),
            raw,
            delta,
            interval if interval is not None else "n/a",
            selected,
            round(delta / selected, 2),
        )
    table.print()
    return report


@pytest.mark.benchmark(group="codec-sizes")
def test_interval_at_least_2x_smaller_on_contiguous(benchmark, size_report):
    """Acceptance: interval >= 2x smaller than delta on convolution and
    reshape lineage, and the automatic selection banks that win."""

    def check():
        for name in ("astro-conv", "astro-reshape"):
            r = size_report[name]
            assert r["interval"] is not None
            assert r["interval"] * 2 <= r["delta"], (name, r)
            assert r["selected"] <= r["interval"], (name, r)

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.mark.benchmark(group="codec-sizes")
def test_selection_never_loses_to_delta(benchmark, size_report):
    """On scattered/strided genomics lineage interval cannot win; selection
    must fall back to (at worst) the old delta footprint."""

    def check():
        r = size_report["genomics-train"]
        assert r["selected"] <= r["delta"]
        assert r["selected"] <= r["raw"]

    benchmark.pedantic(check, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def encoded(workloads):
    out = {}
    for name, entries in workloads.items():
        out[name] = {
            "delta": [codecs.DELTA.encode(arr) for arr in entries],
            "selected": [codecs.encode_cells(arr) for arr in entries],
            "entries": entries,
        }
    return out


def _query_for(entries, rng) -> np.ndarray:
    pool = np.concatenate([entries[i] for i in rng.integers(0, len(entries), 8)])
    return np.unique(rng.choice(pool, size=min(N_QUERY_CELLS, pool.size), replace=False))


def _backward_table(entries, encoder):
    """A *Many-style entry table: singleton output key per entry, the
    encoded input region as the value."""
    from repro.core.lineage_store import RegionEntryTable

    table = RegionEntryTable((len(entries),))
    for j, arr in enumerate(entries):
        table.add_entry(np.asarray([j], dtype=np.int64), encoder(arr))
    table.finalize()
    return table


def _backward_query(table, query_coords, query_sorted) -> int:
    """The backward access pattern of the *Many layouts: spatial candidates,
    key membership, then decode the matched values."""
    total = 0
    for entry_id in table.candidate_entries(query_coords):
        keys = table.entry_keys(int(entry_id))
        if C.isin_sorted(keys, query_sorted).any():
            values, _ = codecs.decode_cells(table.entry_value(int(entry_id)))
            total += values.size
    return total


@pytest.mark.benchmark(group="codec-queries")
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_backward_query_within_budget(benchmark, encoded, workload):
    """Acceptance: a backward query over codec-selected values stays within
    1.2x of the decode-everything (delta-only) baseline — the compressed
    formats must not tax the hot matched-orientation path."""
    entries = encoded[workload]["entries"]
    rng = np.random.default_rng(29)
    qids = np.unique(rng.integers(0, len(entries), max(64, len(entries) // 3)))
    query_coords = qids.reshape(-1, 1)
    query_sorted = np.sort(qids)
    baseline_table = _backward_table(entries, codecs.DELTA.encode)
    selected_table = _backward_table(entries, codecs.encode_cells)
    expected = _backward_query(baseline_table, query_coords, query_sorted)
    assert _backward_query(selected_table, query_coords, query_sorted) == expected

    baseline = _best_of(lambda: _backward_query(baseline_table, query_coords, query_sorted), rounds=5)
    selected = benchmark.pedantic(
        lambda: _best_of(
            lambda: _backward_query(selected_table, query_coords, query_sorted),
            rounds=5,
        ),
        rounds=1,
        iterations=1,
    )
    assert selected <= baseline * 1.2 + 1e-3, (workload, selected, baseline)
    print(
        f"{workload}: backward query {selected * 1e3:.2f} ms vs "
        f"delta-only baseline {baseline * 1e3:.2f} ms"
    )


@pytest.mark.benchmark(group="codec-queries")
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_forward_scan_insitu_vs_decode(benchmark, encoded, workload):
    """Mismatched-orientation scans probe entries in situ; the probe pass
    must beat (or at worst match, within 1.2x) decoding every entry."""
    rng = np.random.default_rng(13)
    entries = encoded[workload]["entries"]
    bufs = encoded[workload]["selected"]
    query = _query_for(entries, rng)

    def scan_decode():
        hits = 0
        for buf in bufs:
            values, _ = codecs.decode_cells(buf)
            if C.isin_sorted(values, query).any():
                hits += 1
        return hits

    def scan_insitu():
        hits = 0
        for buf in bufs:
            if codecs.contains_any(buf, query):
                hits += 1
        return hits

    assert scan_decode() == scan_insitu()
    decode_s = _best_of(scan_decode)
    insitu_s = benchmark.pedantic(
        lambda: _best_of(scan_insitu), rounds=1, iterations=1
    )
    assert insitu_s <= decode_s * 1.2 + 1e-3, (workload, insitu_s, decode_s)
    print(
        f"{workload}: in-situ scan {insitu_s * 1e3:.2f} ms vs "
        f"decode-everything {decode_s * 1e3:.2f} ms "
        f"({decode_s / max(insitu_s, 1e-9):.1f}x faster)"
    )
