"""Lifecycle oracle: the whole engine against a brute-force reference.

:class:`ReferenceLineage` derives the spot workflow's lineage from a run's
output arrays alone: dicts of coordinate sets, no codecs, no indexes.  It
is checked once against black-box re-execution (:mod:`repro.core.reexec`).
:class:`LifecycleMachine` then drives one engine through runs (per-pair,
batched and elementwise emission), flushes (plain, partitioned, pipelined,
appended, re-flushed in place), budgeted compactions and reopens (a fresh
engine, a tiny memory budget, ``recover_lineage``).  After every rule it
asserts that backward and forward answers, matched and mismatched, equal
the reference's.

Stored lineage accumulates: a catalog holding several runs' generations
answers with their union, which is what :meth:`ReferenceLineage.union`
computes.  Queries run with ``query_opt=False`` so the engine reads the
stored lineage whenever it holds some (re-execution would answer for the
latest run only).

Tier-1 runs a small search; ``REPRO_LIFECYCLE_EXAMPLES`` sets the number
of machines (the CI stress job runs a longer one).
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    COMP_MANY_B,
    COMP_ONE_B,
    FULL_MANY_B,
    FULL_MANY_F,
    FULL_ONE_B,
    FULL_ONE_F,
    MAP,
    PAY_MANY_B,
    PAY_ONE_B,
    SciArray,
    WorkflowSpec,
    ops,
)
from repro.arrays import coords as C
from repro.arrays.versions import VersionStore
from repro.core.modes import LineageMode
from repro.core.query import QueryRequest
from repro.core.reexec import ReExecutor
from repro.core.subzero import SubZero
from repro.workflow.recovery import recover_lineage
from tests.conftest import SpotUDF

SHAPE = (7, 8)
EXAMPLES = int(os.environ.get("REPRO_LIFECYCLE_EXAMPLES", "8"))
BACKWARD_PATH = [("scale", 0), ("spot", 0), ("smooth", 0)]
FORWARD_PATH = [("smooth", 0), ("spot", 0), ("scale", 0)]

Cell = tuple[int, int]


def _window(cell: Cell, radius: int) -> frozenset[Cell]:
    i, j = cell
    return frozenset(
        (a, b)
        for a in range(max(0, i - radius), min(SHAPE[0], i + radius + 1))
        for b in range(max(0, j - radius), min(SHAPE[1], j + radius + 1))
    )


class ReferenceLineage:
    """Backward lineage of every node: output cell -> set of input cells.

    ``smooth`` (3x3 convolution, zero boundary) depends on its clipped
    window, ``scale`` on the same cell, and ``spot`` on its clipped 3x3
    window where the detector fired and on the same cell elsewhere.
    """

    def __init__(self, backward: dict[str, dict[Cell, frozenset[Cell]]]):
        self.backward = backward

    @classmethod
    def of_run(cls, instance) -> "ReferenceLineage":
        hot = instance.output_array("spot").values() > 0.5
        cells = [(i, j) for i in range(SHAPE[0]) for j in range(SHAPE[1])]
        return cls(
            {
                "smooth": {c: _window(c, 1) for c in cells},
                "spot": {c: _window(c, 1) if hot[c] else frozenset([c]) for c in cells},
                "scale": {c: frozenset([c]) for c in cells},
            }
        )

    @staticmethod
    def union(generations: list["ReferenceLineage"]) -> "ReferenceLineage":
        """The lineage several runs' generations hold together."""
        return ReferenceLineage(
            {
                node: {
                    cell: frozenset().union(*(g.backward[node][cell] for g in generations))
                    for cell in table
                }
                for node, table in generations[0].backward.items()
            }
        )

    def forward(self, node: str) -> dict[Cell, set[Cell]]:
        inverse: dict[Cell, set[Cell]] = {}
        for out, deps in self.backward[node].items():
            for cell in deps:
                inverse.setdefault(cell, set()).add(out)
        return inverse

    def answer(self, request: QueryRequest) -> list[Cell]:
        frontier = {tuple(cell) for cell in request.cells}
        backward = request.direction == "backward"
        for node, _idx in request.path:
            table = self.backward[node] if backward else self.forward(node)
            frontier = set().union(*(table.get(cell, ()) for cell in frontier))
        return sorted(frontier)


class MixedSpotUDF(SpotUDF):
    """:class:`SpotUDF` whose emission form is chosen per run: per-pair
    ``lwrite`` calls, one columnar ``lwrite_batch``, or a mix.  Cold cells
    are always one ``lwrite_elementwise`` call."""

    emission = "pair"

    def write_lineage(self, inputs, output, ctx):
        if self.emission == "pair":
            return super().write_lineage(inputs, output, ctx)
        mask = output.values() > 0.5
        hot = np.stack(np.nonzero(mask), axis=1).astype(np.int64)
        cold = np.stack(np.nonzero(~mask), axis=1).astype(np.int64)
        if ctx.wants_full:
            split = hot.shape[0] // 2 if self.emission == "mixed" else 0
            for cell in hot[:split]:
                ctx.lwrite(cell.reshape(1, -1), self._neighbours(cell))
            batch = hot[split:]
            if batch.shape[0]:
                regions = [self._neighbours(cell) for cell in batch]
                in_offsets = np.zeros(len(regions) + 1, dtype=np.int64)
                np.cumsum([r.shape[0] for r in regions], out=in_offsets[1:])
                ctx.lwrite_batch(
                    batch,
                    np.arange(batch.shape[0] + 1, dtype=np.int64),
                    [np.concatenate(regions)],
                    [in_offsets],
                )
            if cold.shape[0]:
                ctx.lwrite_elementwise(cold, cold)
        if ctx.wants_payload:
            if self.emission == "mixed":
                for cell in hot:
                    ctx.lwrite_payload(cell.reshape(1, -1), bytes([self.radius]))
            else:
                ctx.lwrite_payload_batch(
                    hot, np.full((hot.shape[0], 1), self.radius, dtype=np.uint8)
                )
            if LineageMode.PAY in ctx.cur_modes:
                ctx.lwrite_payload_batch(
                    cold, np.zeros((cold.shape[0], 1), dtype=np.uint8)
                )

    def _neighbours(self, cell):
        return C.clip_coords(cell + self._offsets, self.input_shapes[0])


def build_spec() -> tuple[WorkflowSpec, MixedSpotUDF]:
    spec = WorkflowSpec(name="lifecycle")
    spec.add_source("img")
    spec.add_node("smooth", ops.Convolve2D(ops.gaussian_kernel(3)), ["img"])
    spot = MixedSpotUDF(thresh=0.6, radius=1)
    spec.add_node("spot", spot, ["smooth"])
    spec.add_node("scale", ops.Scale(2.0), ["spot"])
    return spec, spot


def _coords(result) -> list[Cell]:
    return sorted(map(tuple, result.coords.tolist()))


# -- the reference, checked against black-box re-execution ----------------------


def test_reference_matches_reexecution():
    spec, spot = build_spec()
    sz = SubZero(spec)
    image = np.random.default_rng(3).random(SHAPE)
    for emission in ("pair", "batch"):
        spot.emission = emission
        instance = sz.run({"img": SciArray.from_numpy(image)})
        ref = ReferenceLineage.of_run(instance)
        reexec = ReExecutor(instance)
        for node in ("smooth", "spot", "scale"):
            forward = ref.forward(node)
            for cell in ref.backward[node]:
                packed = C.pack_coords(np.array([cell]), SHAPE)
                back = C.unpack_coords(reexec.trace_backward(node, packed, 0), SHAPE)
                assert sorted(map(tuple, back.tolist())) == sorted(ref.backward[node][cell])
                fwd = C.unpack_coords(reexec.trace_forward(node, packed, 0), SHAPE)
                assert sorted(map(tuple, fwd.tolist())) == sorted(forward.get(cell, ()))
    sz.close()


# -- the lifecycle state machine -------------------------------------------------

SPOT_STRATEGIES = [
    (FULL_ONE_B,),
    (FULL_MANY_B,),
    (FULL_ONE_F,),
    (FULL_MANY_F,),
    (PAY_ONE_B,),
    (PAY_MANY_B,),
    (COMP_ONE_B,),
    (COMP_MANY_B,),
    (FULL_ONE_F, PAY_MANY_B),
    (FULL_MANY_B, FULL_ONE_F),
]
seeds_st = st.integers(0, 2**16)
emissions_st = st.sampled_from(["pair", "batch", "mixed"])
cells_st = st.lists(
    st.tuples(st.integers(0, SHAPE[0] - 1), st.integers(0, SHAPE[1] - 1)),
    min_size=1,
    max_size=4,
    unique=True,
)


def _probes() -> list[QueryRequest]:
    """The fixed requests checked after every rule."""
    cells = [(0, 0), (3, 4), (SHAPE[0] - 1, SHAPE[1] - 2)]
    return [
        QueryRequest.backward(cells, BACKWARD_PATH, query_opt=False),
        QueryRequest.forward(cells, FORWARD_PATH, query_opt=False),
        QueryRequest.backward(cells, [("spot", 0)], query_opt=False),
        QueryRequest.forward(cells, [("spot", 0)], query_opt=False),
    ]


class LifecycleMachine(RuleBasedStateMachine):
    """One engine through runs, flushes, compactions and reopens.

    Model state: ``runs`` holds one reference per executed run;
    ``disk[d]`` lists the runs the catalog at directory ``d`` holds;
    ``serving`` lists the runs the engine answers from: its last run while
    it holds that run's stores in memory (``attached`` is None), or the
    catalog it was opened on.  ``target`` is where appends and reopens go.
    """

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="lifecycle-")
        self.spec, self.spot = build_spec()
        self.versions = VersionStore()
        self.wal = None
        self.engine: SubZero | None = None
        self.runs: list[ReferenceLineage] = []
        self.disk: dict[str, list[int]] = {}
        self.serving: list[int] = []
        self.attached: str | None = None
        self.target: str | None = None

    def _engine(self, budget=None) -> SubZero:
        sz = SubZero(self.spec, enable_query_opt=False, memory_budget_bytes=budget)
        sz.set_strategy("spot", *self.strategies)
        if self.smooth_map:
            sz.set_strategy("smooth", MAP)
        return sz

    def _fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.root)

    def _check(self, request: QueryRequest) -> None:
        expected = ReferenceLineage.union([self.runs[i] for i in self.serving])
        assert _coords(self.engine.query(request)) == expected.answer(request), request

    @initialize(
        strategies=st.sampled_from(SPOT_STRATEGIES),
        smooth_map=st.booleans(),
        seed=seeds_st,
        emission=emissions_st,
    )
    def start(self, strategies, smooth_map, seed, emission):
        self.strategies = strategies
        self.smooth_map = smooth_map
        self.engine = self._engine()
        self.run(seed, emission)

    @rule(seed=seeds_st, emission=emissions_st)
    def run(self, seed, emission):
        self.spot.emission = emission
        image = np.random.default_rng(seed).random(SHAPE)
        instance = self.engine.run(
            {"img": SciArray.from_numpy(image)}, version_store=self.versions
        )
        self.wal = self.engine.wal
        self.runs.append(ReferenceLineage.of_run(instance))
        self.serving = [len(self.runs) - 1]
        self.attached = None

    @rule(partitions=st.sampled_from([None, 2, 3]), wait=st.booleans())
    def flush(self, partitions, wait):
        directory = self._fresh_dir()
        written = self.engine.flush_lineage(directory, wait=wait, partitions=partitions)
        if not wait:
            written.result()
        self.disk[directory] = list(self.serving)
        self.target = directory

    @precondition(lambda self: self.attached is None)
    @rule()
    def append(self):
        target = self.target if self.target is not None else self._fresh_dir()
        self.engine.flush_lineage(target, append=True)
        self.disk[target] = self.disk.get(target, []) + self.serving
        self.target = target

    @precondition(lambda self: self.attached is not None)
    @rule(budget=st.sampled_from([None, 1, 1 << 12]))
    def compact(self, budget):
        self.engine.compact_lineage(budget_bytes=budget)

    @precondition(lambda self: self.attached is not None)
    @rule(partitions=st.sampled_from([None, 2]))
    def reflush_in_place(self, partitions):
        self.engine.flush_lineage(self.attached, partitions=partitions)

    @precondition(lambda self: self.target is not None)
    @rule(how=st.sampled_from(["fresh", "tiny-budget", "recover"]))
    def reopen(self, how):
        self.engine.close()
        self._open_target(how)

    def _open_target(self, how):
        """Serve a new engine from ``target`` (the old one is the caller's)."""
        self.engine = self._engine(budget=1 if how == "tiny-budget" else None)
        if how == "recover":
            self.engine.resume(self.versions, wal=self.wal)
            report = recover_lineage(self.target, runtime=self.engine.runtime)
            assert report.ok, report.quarantined
        else:
            self.engine.resume(self.versions, wal=self.wal, lineage_dir=self.target)
        self.attached = self.target
        self.serving = list(self.disk[self.target])

    @rule(
        backward=st.booleans(),
        cells=cells_st,
        start=st.integers(0, 2),
        length=st.integers(1, 3),
    )
    def query(self, backward, cells, start, length):
        chain = BACKWARD_PATH if backward else FORWARD_PATH
        path = chain[start : start + length]
        make = QueryRequest.backward if backward else QueryRequest.forward
        self._check(make(cells, path, query_opt=False))

    @rule(data=st.data(), backward=st.booleans(), cells=cells_st)
    def pinned_session(self, data, backward, cells):
        """Open a session and read through it, so the stores it touches are
        pinned with some deltas mapped and the rest still lazy; run one
        more rule while it stays open; then read through it again.  It
        answers the lineage it pinned: the catalog it borrowed from keeps
        serving it, and a reopen leaves the old engine open until then."""
        steps = {
            "append": self.attached is None,
            "compact": self.attached is not None,
            "reflush_in_place": self.attached is not None,
            "reopen": self.target is not None,
        }
        then = data.draw(st.sampled_from([name for name, ok in steps.items() if ok]))
        engine = self.engine
        expected = ReferenceLineage.union([self.runs[i] for i in self.serving])
        make = QueryRequest.backward if backward else QueryRequest.forward
        first = make(cells, BACKWARD_PATH if backward else FORWARD_PATH, query_opt=False)
        session = engine.session()
        try:
            assert _coords(engine.query(first, session=session)) == expected.answer(first)
            if then == "append":
                self.append()
            elif then == "compact":
                self.compact(budget=data.draw(st.sampled_from([None, 1])))
            elif then == "reflush_in_place":
                self.reflush_in_place(partitions=data.draw(st.sampled_from([None, 2])))
            else:
                self._open_target(data.draw(st.sampled_from(["fresh", "tiny-budget"])))
            for request in [first, *_probes()]:
                answer = _coords(engine.query(request, session=session))
                assert answer == expected.answer(request), (then, request)
        finally:
            session.close()
            if engine is not self.engine:
                engine.close()

    @invariant()
    def answers_match_reference(self):
        for request in _probes():
            self._check(request)

    def teardown(self):
        if self.engine is not None:
            self.engine.close()
        shutil.rmtree(self.root, ignore_errors=True)


LifecycleMachine.TestCase.settings = settings(
    max_examples=EXAMPLES,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLifecycle = LifecycleMachine.TestCase


# -- pinned examples: sequences the machine once falsified ----------------------


def _replay(steps) -> None:
    state = LifecycleMachine()
    try:
        for name, kwargs in steps:
            getattr(state, name)(**kwargs)
            state.answers_match_reference()
    finally:
        state.teardown()


def test_pinned_empty_run_appended_into_fresh_directory_opens():
    """A run whose detector never fired leaves an empty COMP store.  Its
    append into a fresh directory skipped the store and wrote no
    ``catalog.json``, so the reopen raised ``StorageError``."""
    start = dict(strategies=(COMP_ONE_B,), smooth_map=False, seed=12331, emission="pair")
    _replay([("start", start), ("append", {}), ("reopen", dict(how="fresh"))])


def test_pinned_empty_base_is_recorded_not_reexecuted():
    """The same empty first append left the key unrecorded, so after a
    second run a reopened engine re-executed that run instead of reading
    the lineage the catalog was flushed with."""
    start = dict(strategies=(COMP_ONE_B,), smooth_map=False, seed=10148, emission="pair")
    _replay(
        [
            ("start", start),
            ("append", {}),
            ("run", dict(seed=0, emission="pair")),
            ("reopen", dict(how="fresh")),
        ]
    )
