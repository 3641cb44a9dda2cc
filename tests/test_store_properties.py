"""Property tests: every store layout is a faithful index of random sinks.

For arbitrary collections of region pairs, the answer any layout gives must
equal the brute-force join over the raw pairs — backward, forward, matched
or mismatched orientation.  This is the encoder/store analogue of the
strategy-equivalence integration tests, at a much higher fuzzing rate.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import coords as C
from repro.core.lineage_store import make_store
from repro.core.model import (
    BufferSink,
    ElementwiseBatch,
    PayloadBatch,
    RegionBatch,
    RegionPair,
)
from repro.core.modes import (
    COMP_MANY_B,
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    PAY_MANY_B,
    PAY_ONE_B,
    LineageMode,
    Orientation,
)
from repro.errors import LineageError, StorageError

SHAPE = (9, 11)
SIZE = SHAPE[0] * SHAPE[1]


@st.composite
def sinks(draw):
    """A random mix of general pairs and an elementwise batch."""
    sink = BufferSink()
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        n_out = draw(st.integers(1, 4))
        n_in = draw(st.integers(1, 5))
        outs = draw(
            st.lists(st.integers(0, SIZE - 1), min_size=n_out, max_size=n_out)
        )
        ins = draw(st.lists(st.integers(0, SIZE - 1), min_size=n_in, max_size=n_in))
        outs = np.unique(np.asarray(outs, dtype=np.int64))
        ins = np.unique(np.asarray(ins, dtype=np.int64))
        pairs.append((outs, ins))
        sink.add_pair(
            RegionPair(
                outcells=C.unpack_coords(outs, SHAPE),
                incells=(C.unpack_coords(ins, SHAPE),),
            )
        )
    n_elem = draw(st.integers(0, 8))
    if n_elem:
        eouts = draw(
            st.lists(st.integers(0, SIZE - 1), min_size=n_elem, max_size=n_elem)
        )
        eins = draw(
            st.lists(st.integers(0, SIZE - 1), min_size=n_elem, max_size=n_elem)
        )
        eouts = np.asarray(eouts, dtype=np.int64)
        eins = np.asarray(eins, dtype=np.int64)
        sink.add_elementwise(
            ElementwiseBatch(
                outcells=C.unpack_coords(eouts, SHAPE),
                incells=(C.unpack_coords(eins, SHAPE),),
            )
        )
        for o, i in zip(eouts, eins):
            pairs.append((np.asarray([o]), np.asarray([i])))
    query = draw(st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=12))
    return sink, pairs, np.unique(np.asarray(query, dtype=np.int64))


def brute_backward(pairs, query):
    hit, result = set(), set()
    qset = set(query.tolist())
    for outs, ins in pairs:
        touched = qset & set(outs.tolist())
        if touched:
            hit |= touched
            result |= set(ins.tolist())
    return hit, result


def brute_forward(pairs, query):
    qset = set(query.tolist())
    result = set()
    for outs, ins in pairs:
        if qset & set(ins.tolist()):
            result |= set(outs.tolist())
    return result


@pytest.mark.parametrize("strategy", [FULL_ONE_B, FULL_MANY_B], ids=lambda s: s.label)
class TestBackwardOrientedStores:
    @given(case=sinks())
    @settings(max_examples=60, deadline=None)
    def test_backward_matches_brute_force(self, strategy, case):
        sink, pairs, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        matched, per_input = store.backward_full(query)
        want_hit, want = brute_backward(pairs, query)
        assert set(query[matched].tolist()) == want_hit
        assert set(per_input[0].tolist()) == want

    @given(case=sinks())
    @settings(max_examples=40, deadline=None)
    def test_forward_scan_matches_brute_force(self, strategy, case):
        sink, pairs, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        outs = store.scan_forward_full(query, 0)
        assert set(outs.tolist()) == brute_forward(pairs, query)


@pytest.mark.parametrize("strategy", [FULL_ONE_F, FULL_MANY_F], ids=lambda s: s.label)
class TestForwardOrientedStores:
    @given(case=sinks())
    @settings(max_examples=60, deadline=None)
    def test_forward_matches_brute_force(self, strategy, case):
        sink, pairs, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        outs = store.forward_full(query, 0)
        assert set(outs.tolist()) == brute_forward(pairs, query)

    @given(case=sinks())
    @settings(max_examples=40, deadline=None)
    def test_backward_scan_matches_brute_force(self, strategy, case):
        sink, pairs, query = case
        store = make_store("n", strategy, SHAPE, (SHAPE,))
        store.ingest(sink)
        matched, per_input = store.scan_backward_full(query)
        want_hit, want = brute_backward(pairs, query)
        assert set(query[matched].tolist()) == want_hit
        assert set(per_input[0].tolist()) == want


class TestMultiInputStores:
    @given(case=sinks(), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_two_input_backward(self, case, seed):
        """Pairs over two inputs keep their per-input cell sets separate."""
        sink, pairs, query = case
        rng = np.random.default_rng(seed)
        two = BufferSink()
        expected = [[], []]
        for outs, ins in pairs:
            ins2 = rng.integers(0, SIZE, size=max(1, ins.size // 2))
            two.add_pair(
                RegionPair(
                    outcells=C.unpack_coords(outs, SHAPE),
                    incells=(
                        C.unpack_coords(ins, SHAPE),
                        C.unpack_coords(np.unique(ins2), SHAPE),
                    ),
                )
            )
            expected[0].append((outs, ins))
            expected[1].append((outs, np.unique(ins2)))
        store = make_store("n", FULL_ONE_B, SHAPE, (SHAPE, SHAPE))
        store.ingest(two)
        _, per_input = store.backward_full(query)
        for idx in range(2):
            _, want = brute_backward(expected[idx], query)
            assert set(per_input[idx].tolist()) == want


# -- store-level oracle: every pair-storing strategy, every record form -------
#
# The cases above cover the four Full layouts over per-pair and elementwise
# records at arity 1 (``<-FullOne`` also at arity 2).  The oracle below
# holds every strategy that stores pairs to the brute-force join over the
# pairs its records stand for, at arity 1 and 2, over all three record
# forms (per-pair ``add_pair``, ``ElementwiseBatch``, ``RegionBatch`` with
# pairs that have no cells in an input) and every payload form (an
# ``(n, w)`` matrix, a list, a ``RegionBatch``, ``add_pair``).  Each case checks
# every read verb the layout serves, that the others refuse, and that
# ``absorb``, a segment round trip and ``close()`` keep the contract.

# small key spaces, so random records and queries overlap often
OUT = (5, 6)
INS = ((4, 6), (3, 5))
PAIR_STRATEGIES = [
    FULL_ONE_B,
    FULL_MANY_B,
    FULL_ONE_F,
    FULL_MANY_F,
    PAY_ONE_B,
    PAY_MANY_B,
    COMP_ONE_B,
    COMP_MANY_B,
]


def _size(shape):
    return int(np.prod(shape))


@st.composite
def _cellset(draw, shape, min_size, max_size):
    cells = draw(
        st.lists(st.integers(0, _size(shape) - 1), min_size=min_size, max_size=max_size)
    )
    return np.unique(np.asarray(cells, dtype=np.int64))


def _offsets(sets):
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([s.size for s in sets], out=offsets[1:])
    return offsets


def _coords(sets, shape):
    packed = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
    return C.unpack_coords(packed, shape)


@st.composite
def lineages(draw, arity):
    """``(sink, full, pay)``: a sink mixing every record form, the full
    pairs ``(outs, per-input ins)`` and the payload pairs ``(outs, payload)``
    its records stand for."""
    in_shapes = INS[:arity]
    sink = BufferSink()
    full, pay = [], []
    for _ in range(draw(st.integers(0, 3))):
        outs = draw(_cellset(OUT, 1, 4))
        ins = tuple(draw(_cellset(s, 0, 4)) for s in in_shapes)
        sink.add_pair(
            RegionPair(
                outcells=C.unpack_coords(outs, OUT),
                incells=tuple(C.unpack_coords(i, s) for i, s in zip(ins, in_shapes)),
            )
        )
        full.append((outs, ins))
    n = draw(st.integers(0, 5))
    if n:
        eouts = [draw(st.integers(0, _size(OUT) - 1)) for _ in range(n)]
        eins = [[draw(st.integers(0, _size(s) - 1)) for _ in range(n)] for s in in_shapes]
        sink.add_elementwise(
            ElementwiseBatch(
                outcells=C.unpack_coords(np.asarray(eouts), OUT),
                incells=tuple(
                    C.unpack_coords(np.asarray(col), s) for col, s in zip(eins, in_shapes)
                ),
            )
        )
        for row, o in enumerate(eouts):
            full.append((np.asarray([o]), tuple(np.asarray([col[row]]) for col in eins)))
    n = draw(st.integers(0, 4))
    if n:
        outs = [draw(_cellset(OUT, 1, 4)) for _ in range(n)]
        ins = [[draw(_cellset(s, 0, 3)) for _ in range(n)] for s in in_shapes]
        sink.add_region_batch(
            RegionBatch(
                out_coords=_coords(outs, OUT),
                out_offsets=_offsets(outs),
                in_coords=tuple(_coords(col, s) for col, s in zip(ins, in_shapes)),
                in_offsets=tuple(_offsets(col) for col in ins),
            )
        )
        full += [(o, tuple(col[p] for col in ins)) for p, o in enumerate(outs)]
    # payload records: a fixed-width matrix, a list, a region batch, add_pair
    n = draw(st.integers(0, 4))
    if n:
        width = draw(st.integers(1, 3))
        pouts = [draw(st.integers(0, _size(OUT) - 1)) for _ in range(n)]
        matrix = np.asarray(
            [[draw(st.integers(0, 255)) for _ in range(width)] for _ in range(n)],
            dtype=np.uint8,
        ).reshape(n, width)
        sink.add_payload_batch(
            PayloadBatch(outcells=C.unpack_coords(np.asarray(pouts), OUT), payloads=matrix)
        )
        pay += [(np.asarray([o]), matrix[r].tobytes()) for r, o in enumerate(pouts)]
    n = draw(st.integers(0, 4))
    if n:
        pouts = [draw(st.integers(0, _size(OUT) - 1)) for _ in range(n)]
        blobs = [draw(st.binary(min_size=0, max_size=4)) for _ in range(n)]
        sink.add_payload_batch(
            PayloadBatch(outcells=C.unpack_coords(np.asarray(pouts), OUT), payloads=blobs)
        )
        pay += [(np.asarray([o]), b) for o, b in zip(pouts, blobs)]
    n = draw(st.integers(0, 3))
    if n:
        outs = [draw(_cellset(OUT, 1, 4)) for _ in range(n)]
        blobs = [draw(st.binary(min_size=0, max_size=4)) for _ in range(n)]
        sink.add_region_batch(
            RegionBatch(
                out_coords=_coords(outs, OUT),
                out_offsets=_offsets(outs),
                payloads=b"".join(blobs),
                payload_offsets=_offsets([np.empty(len(b)) for b in blobs]),
            )
        )
        pay += list(zip(outs, blobs))
    for _ in range(draw(st.integers(0, 2))):
        outs = draw(_cellset(OUT, 1, 3))
        blob = draw(st.binary(min_size=0, max_size=4))
        sink.add_pair(RegionPair(outcells=C.unpack_coords(outs, OUT), payload=blob))
        pay.append((outs, blob))
    return sink, full, pay


@st.composite
def queries(draw, arity):
    """One query per key space: output cells, then each input's cells."""
    qout = draw(_cellset(OUT, 1, 8))
    return qout, [draw(_cellset(s, 1, 8)) for s in INS[:arity]]


def _sets(arr):
    return set(np.asarray(arr).tolist())


def _brute_backward(full, qout, arity):
    """``(hit out cells, per-input lineage)`` of the output cells ``qout``."""
    q = _sets(qout)
    hit, per_input = set(), [set() for _ in range(arity)]
    for outs, ins in full:
        touched = q & _sets(outs)
        if touched:
            hit |= touched
            for i in range(arity):
                per_input[i] |= _sets(ins[i])
    return hit, per_input


def _brute_forward(full, qin, i):
    q = _sets(qin)
    return set().union(*[_sets(outs) for outs, ins in full if q & _sets(ins[i])])


def _payload_rows(pay, qout=None):
    """Sorted ``(cell, payload)`` rows: one per stored pair and key cell."""
    q = None if qout is None else _sets(qout)
    return sorted(
        (int(c), p) for outs, p in pay for c in outs.tolist() if q is None or c in q
    )


def _check_answers(store, strategy, arity, full, pay, qout, qins):
    """Every read verb of ``store`` answers like the brute-force join."""
    payload = strategy.mode in (LineageMode.PAY, LineageMode.COMP)
    backward = strategy.orientation is Orientation.BACKWARD
    if payload:
        matched, hits, payloads = store.backward_payload_rows(qout)
        assert _sets(qout[matched]) == _sets(qout) & set().union(
            *[_sets(o) for o, _ in pay]
        )
        assert sorted(zip(hits.tolist(), payloads)) == _payload_rows(pay, qout)
        keys, koff, vbuf, voff = store.payload_entries()
        rows = sorted(
            (int(k), bytes(vbuf[voff[e]: voff[e + 1]]))
            for e in range(koff.size - 1)
            for k in np.asarray(keys[koff[e]: koff[e + 1]]).tolist()
        )
        assert rows == _payload_rows(pay)
        assert store.overridden_keys().tolist() == sorted(
            set().union(*[_sets(o) for o, _ in pay])
        )
        for read in (
            lambda: store.backward_full(qout),
            lambda: store.forward_full(qins[0], 0),
            lambda: store.scan_forward_full(qins[0], 0),
            lambda: store.scan_backward_full(qout),
        ):
            with pytest.raises(LineageError):
                read()
        return
    want_hit, want = _brute_backward(full, qout, arity)
    if backward:
        matched, per_input = store.backward_full(qout)
        assert _sets(qout[matched]) == want_hit
        assert [_sets(p) for p in per_input] == want
        for i in range(arity):
            only_matched, only = store.backward_full(qout, only_input=i)
            assert only_matched.tolist() == matched.tolist()
            assert [_sets(p) for p in only] == [
                want[j] if j == i else set() for j in range(arity)
            ]
            assert _sets(store.scan_forward_full(qins[i], i)) == _brute_forward(
                full, qins[i], i
            )
        unserved = [
            lambda: store.forward_full(qins[0], 0),
            lambda: store.scan_backward_full(qout),
        ]
    else:
        for i in range(arity):
            assert _sets(store.forward_full(qins[i], i)) == _brute_forward(
                full, qins[i], i
            )
        # a forward layout keys input cells: a pair with none stores nothing
        keyed = [(o, ins) for o, ins in full if any(x.size for x in ins)]
        matched, per_input = store.scan_backward_full(qout)
        assert _sets(qout[matched]) == _brute_backward(keyed, qout, arity)[0]
        assert [_sets(p) for p in per_input] == want
        unserved = [
            lambda: store.backward_full(qout),
            lambda: store.scan_forward_full(qins[0], 0),
        ]
    unserved += [
        lambda: store.backward_payload_rows(qout),
        lambda: store.payload_entries(),
        lambda: store.overridden_keys(),
    ]
    for read in unserved:
        with pytest.raises(LineageError):
            read()


def _served_reads(store, strategy, qout, qins):
    """Every read the layout serves, as thunks."""
    if strategy.mode in (LineageMode.PAY, LineageMode.COMP):
        return [
            lambda: store.backward_payload_rows(qout),
            lambda: store.payload_entries(),
            lambda: store.overridden_keys(),
        ]
    if strategy.orientation is Orientation.BACKWARD:
        return [
            lambda: store.backward_full(qout),
            lambda: store.backward_full(qout, only_input=0),
            lambda: store.scan_forward_full(qins[0], 0),
        ]
    return [
        lambda: store.forward_full(qins[0], 0),
        lambda: store.scan_backward_full(qout),
    ]


def _store(strategy, arity, sink=None):
    store = make_store("n", strategy, OUT, INS[:arity])
    if sink is not None:
        store.ingest(sink)
    return store


@pytest.mark.parametrize("strategy", PAIR_STRATEGIES, ids=lambda s: s.label)
class TestStoreOracle:
    @given(data=st.data(), arity=st.sampled_from([1, 2]))
    @settings(max_examples=8, deadline=None)
    def test_reads_match_brute_force(self, strategy, data, arity):
        sink, full, pay = data.draw(lineages(arity))
        qout, qins = data.draw(queries(arity))
        _check_answers(_store(strategy, arity, sink), strategy, arity, full, pay, qout, qins)

    @given(data=st.data(), arity=st.sampled_from([1, 2]))
    @settings(max_examples=5, deadline=None)
    def test_absorb_answers_like_the_union(self, strategy, data, arity):
        sink_a, full_a, pay_a = data.draw(lineages(arity))
        sink_b, full_b, pay_b = data.draw(lineages(arity))
        qout, qins = data.draw(queries(arity))
        merged = _store(strategy, arity, sink_a)
        merged.absorb(_store(strategy, arity, sink_b))
        _check_answers(
            merged, strategy, arity, full_a + full_b, pay_a + pay_b, qout, qins
        )

    @given(data=st.data(), arity=st.sampled_from([1, 2]))
    @settings(max_examples=5, deadline=None)
    def test_segment_round_trip_then_close(self, strategy, data, arity):
        sink, full, pay = data.draw(lineages(arity))
        qout, qins = data.draw(queries(arity))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "n.seg")
            _store(strategy, arity, sink).flush_segment(path)
            loaded = _store(strategy, arity)
            loaded.load_segment(path)
            _check_answers(loaded, strategy, arity, full, pay, qout, qins)
            loaded.close()
            for read in _served_reads(loaded, strategy, qout, qins):
                with pytest.raises(StorageError):
                    read()
