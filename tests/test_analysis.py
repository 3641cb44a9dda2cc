"""Tests for repro.analysis: the SZ rule catalog, the suppression and
baseline machinery, and the runtime lock-order validator."""

from __future__ import annotations

import json
import os
import textwrap
import threading

import pytest

from repro.analysis import lockcheck
from repro.analysis.engine import Baseline, ModuleContext, format_report, run
from repro.analysis.rules import ALL_RULES, rule_by_id

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _ctx(source: str, relpath: str = "core/mod.py") -> ModuleContext:
    return ModuleContext(relpath, relpath, textwrap.dedent(source))


def _findings(rule_id: str, source: str, relpath: str = "core/mod.py"):
    """Run one rule over a source snippet, honoring inline suppressions."""
    ctx = _ctx(source, relpath)
    rule = rule_by_id(rule_id)
    return [f for f in rule.check(ctx) if not ctx.is_suppressed(f)]


# -- SZ001: acquire/borrow released on all paths -------------------------------


class TestSZ001:
    def test_fires_on_unreleased_local(self):
        found = _findings(
            "SZ001",
            """
            def leak(catalog):
                rec = catalog.borrow("n", "s")
                return 1
            """,
        )
        assert len(found) == 1
        assert found[0].symbol == "leak"

    def test_fires_on_bare_call(self):
        found = _findings(
            "SZ001",
            """
            def leak(seg):
                seg.acquire()
            """,
        )
        assert len(found) == 1

    def test_quiet_when_released_in_finally(self):
        assert not _findings(
            "SZ001",
            """
            def ok(catalog):
                rec = catalog.borrow("n", "s")
                try:
                    return rec
                finally:
                    catalog.release(rec)
            """,
        )

    @pytest.mark.parametrize(
        "guard",
        [
            "finally:\n        rec.release()",
            "except BaseException:\n        rec.close()\n        raise",
        ],
        ids=["finally", "except"],
    )
    def test_quiet_when_record_releases_itself_on_failure(self, guard):
        source = (
            "def ok(catalog):\n"
            "    rec = catalog.borrow('n', 's')\n"
            "    try:\n"
            "        rec.store.read()\n"
            f"    {guard}\n"
        )
        assert not _findings("SZ001", source)

    def test_fires_when_release_skips_the_failure_path(self):
        found = _findings(
            "SZ001",
            """
            def leak(catalog):
                rec = catalog.borrow("n", "s")
                rec.store.read()
                rec.release()
            """,
        )
        assert len(found) == 1

    def test_quiet_when_result_escapes(self):
        # the QuerySession pattern: the record is stowed for a later release
        assert not _findings(
            "SZ001",
            """
            def ok(self, catalog):
                rec = catalog.borrow("n", "s")
                self._borrowed.append(("n", rec))
            """,
        )

    def test_quiet_inside_acquisition_api(self):
        assert not _findings(
            "SZ001",
            """
            def acquire(self):
                return self._seg.acquire()
            """,
        )


# -- SZ002: no blocking I/O under a serving-path lock --------------------------


class TestSZ002:
    def test_fires_on_direct_io_under_lock(self):
        found = _findings(
            "SZ002",
            """
            class C:
                def __init__(self):
                    self._lock = make_lock("c")
                def bad(self):
                    with self._lock:
                        open("f", "rb")
            """,
        )
        assert len(found) == 1
        assert "open" in found[0].message

    def test_fires_transitively_through_local_call(self):
        found = _findings(
            "SZ002",
            """
            class C:
                def __init__(self):
                    self._lock = make_lock("c")
                def _helper(self):
                    os.replace("a", "b")
                def bad(self):
                    with self._lock:
                        self._helper()
            """,
        )
        assert len(found) == 1
        assert "_helper" in found[0].message

    def test_quiet_when_io_runs_outside_lock(self):
        assert not _findings(
            "SZ002",
            """
            class C:
                def __init__(self):
                    self._lock = make_lock("c")
                def ok(self):
                    with self._lock:
                        paths = list(self._stale)
                    for p in paths:
                        os.remove(p)
            """,
        )

    def test_quiet_on_non_lock_with(self):
        assert not _findings(
            "SZ002",
            """
            class C:
                def ok(self):
                    with self._guard:
                        open("f", "rb")
            """,
        )


# -- SZ003: tmp writes clean up on failure -------------------------------------


class TestSZ003:
    def test_fires_on_unguarded_tmp_write(self):
        found = _findings(
            "SZ003",
            """
            def w(path):
                tmp = path + ".tmp"
                with open(tmp, "w") as fh:
                    fh.write("x")
                os.replace(tmp, path)
            """,
        )
        assert len(found) == 1

    def test_quiet_with_cleanup_handler(self):
        assert not _findings(
            "SZ003",
            """
            def w(path):
                tmp = path + ".tmp"
                try:
                    with open(tmp, "w") as fh:
                        fh.write("x")
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.remove(tmp)
                    except OSError:
                        pass
                    raise
            """,
        )

    def test_quiet_on_non_tmp_write(self):
        assert not _findings(
            "SZ003",
            """
            def w(path):
                with open(path, "w") as fh:
                    fh.write("x")
            """,
        )


# -- SZ004: storage never leaks raw OSError ------------------------------------


class TestSZ004:
    def test_fires_on_unwrapped_open(self):
        found = _findings(
            "SZ004",
            """
            def load(path):
                with open(path, "rb") as fh:
                    return fh.read()
            """,
            relpath="storage/x.py",
        )
        assert len(found) == 1

    def test_quiet_when_wrapped_in_storage_error(self):
        assert not _findings(
            "SZ004",
            """
            def load(path):
                try:
                    with open(path, "rb") as fh:
                        return fh.read()
                except OSError as exc:
                    raise StorageError(str(exc)) from exc
            """,
            relpath="storage/x.py",
        )

    def test_quiet_when_deliberately_swallowed(self):
        assert not _findings(
            "SZ004",
            """
            def probe(path):
                try:
                    return os.path.getsize(path)
                except OSError:
                    return 0
            """,
            relpath="storage/x.py",
        )

    def test_fires_when_handler_only_reraises_raw(self):
        found = _findings(
            "SZ004",
            """
            def load(path):
                try:
                    with open(path, "rb") as fh:
                        return fh.read()
                except OSError:
                    raise
            """,
            relpath="storage/x.py",
        )
        assert len(found) == 1


# -- SZ005: locks come from the factory ----------------------------------------


class TestSZ005:
    def test_fires_on_raw_threading_lock(self):
        found = _findings(
            "SZ005",
            """
            import threading
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
            """,
        )
        assert len(found) == 1
        assert "make_lock" in found[0].message

    def test_fires_on_bare_imported_rlock(self):
        found = _findings(
            "SZ005",
            """
            from threading import RLock
            lock = RLock()
            """,
        )
        assert len(found) == 1
        assert "make_rlock" in found[0].message

    def test_quiet_on_factory_locks(self):
        assert not _findings(
            "SZ005",
            """
            from repro.analysis import lockcheck
            class C:
                def __init__(self):
                    self._lock = lockcheck.make_lock("c")
                    self._rlock = lockcheck.make_rlock("c.r")
            """,
        )


# -- SZ006: public mutators hold the owning lock -------------------------------


class TestSZ006:
    SRC_BAD = """
    class C:
        def __init__(self):
            self._lock = make_lock("c")
            self._items = []
        def add(self, x):
            self._items.append(x)
    """

    def test_fires_on_unlocked_public_mutator(self):
        found = _findings("SZ006", self.SRC_BAD)
        assert len(found) == 1
        assert "C.add" in found[0].message

    def test_quiet_when_mutation_is_locked(self):
        assert not _findings(
            "SZ006",
            """
            class C:
                def __init__(self):
                    self._lock = make_lock("c")
                    self._items = []
                def add(self, x):
                    with self._lock:
                        self._items.append(x)
            """,
        )

    def test_quiet_on_private_methods_and_lockless_classes(self):
        assert not _findings(
            "SZ006",
            """
            class C:
                def __init__(self):
                    self._lock = make_lock("c")
                    self._items = []
                def _add_locked(self, x):
                    self._items.append(x)
            class NoLock:
                def add(self, x):
                    self._items.append(x)
            """,
        )


# -- suppressions ---------------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression_with_reason(self):
        assert not _findings(
            "SZ005",
            """
            import threading
            lock = threading.Lock()  # szlint: ignore[SZ005] -- test fixture
            """,
        )

    def test_comment_line_above_covers_next_line(self):
        assert not _findings(
            "SZ005",
            """
            import threading
            # szlint: ignore[SZ005] -- test fixture
            lock = threading.Lock()
            """,
        )

    def test_suppression_for_other_rule_does_not_silence(self):
        found = _findings(
            "SZ005",
            """
            import threading
            lock = threading.Lock()  # szlint: ignore[SZ001] -- wrong rule
            """,
        )
        assert len(found) == 1

    def test_missing_reason_is_a_finding_and_does_not_suppress(self):
        ctx = _ctx(
            """
            import threading
            lock = threading.Lock()  # szlint: ignore[SZ005]
            """
        )
        meta = ctx.suppression_findings()
        assert len(meta) == 1 and meta[0].rule == "SZ000"
        rule = rule_by_id("SZ005")
        found = [f for f in rule.check(ctx) if not ctx.is_suppressed(f)]
        assert len(found) == 1  # reason-less suppressions are inert

    def test_docstring_mention_is_inert(self):
        ctx = _ctx(
            '''
            def f():
                """Write `# szlint: ignore[SZ001] -- reason` to suppress."""
            '''
        )
        assert not ctx.suppressions
        assert not ctx.suppression_findings()


# -- engine + baseline -----------------------------------------------------------


class TestEngineAndBaseline:
    def _write(self, tmp_path, relpath, source):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return str(path)

    def test_run_reports_and_baseline_round_trip(self, tmp_path):
        self._write(
            tmp_path,
            "core/x.py",
            """
            import threading
            lock = threading.Lock()
            """,
        )
        report = run([str(tmp_path)])
        assert not report.ok
        assert [f.rule for f in report.findings] == ["SZ005"]

        # round-trip: write the baseline, justify it, re-run — clean
        baseline = Baseline.from_findings(report.findings)
        for key in baseline.entries:
            baseline.entries[key] = "fixture"
        bpath = str(tmp_path / "baseline.json")
        baseline.save(bpath)
        loaded = Baseline.load(bpath)
        report2 = run([str(tmp_path)], baseline=loaded)
        assert report2.ok
        assert len(report2.baselined) == 1
        assert not report2.stale_baseline

    def test_baseline_rejects_missing_justification(self, tmp_path):
        bpath = tmp_path / "baseline.json"
        bpath.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {"rule": "SZ005", "path": "core/x.py", "symbol": "<module>"}
                    ],
                }
            )
        )
        with pytest.raises(ValueError, match="justification"):
            Baseline.load(str(bpath))

    def test_stale_baseline_entries_are_reported(self, tmp_path):
        self._write(tmp_path, "core/x.py", "x = 1\n")
        baseline = Baseline(
            {("SZ005", "core/x.py", "<module>"): "fixed long ago"}
        )
        report = run([str(tmp_path)], baseline=baseline)
        assert report.ok
        assert report.stale_baseline == [("SZ005", "core/x.py", "<module>")]

    def test_parse_error_fails_the_run(self, tmp_path):
        self._write(tmp_path, "broken.py", "def f(:\n")
        report = run([str(tmp_path)])
        assert not report.ok and report.errors

    def test_output_formats(self, tmp_path):
        self._write(
            tmp_path,
            "core/x.py",
            """
            import threading
            lock = threading.Lock()
            """,
        )
        report = run([str(tmp_path)])
        text = format_report(report, "text")
        assert "SZ005" in text and "FAIL" in text
        gh = format_report(report, "github")
        assert "::error file=core/x.py" in gh and "title=SZ005" in gh
        payload = json.loads(format_report(report, "json"))
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "SZ005"

    def test_repo_is_clean_under_committed_baseline(self):
        """The CI gate, as a test: the package passes its own linter."""
        baseline = Baseline.load(os.path.join(REPO_ROOT, "analysis-baseline.json"))
        report = run(
            [os.path.join(REPO_ROOT, "src", "repro")], baseline=baseline
        )
        assert report.ok, format_report(report, "text")
        assert not report.stale_baseline

    def test_every_rule_has_id_title_rationale(self):
        ids = [rule.id for rule in ALL_RULES]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        for rule in ALL_RULES:
            assert rule.id and rule.title and rule.rationale


# -- lockcheck: the runtime half -------------------------------------------------


@pytest.fixture
def checking():
    """Enable instrumentation for the test, restore prior state after."""
    was_enabled = lockcheck.enabled()
    lockcheck.reset()
    lockcheck.enable()
    try:
        yield
    finally:
        if was_enabled:
            lockcheck.enable()  # restore raise-on-cycle default
        else:
            lockcheck.disable()
        lockcheck.reset()


class TestLockCheck:
    def test_disabled_factory_returns_plain_locks(self):
        if lockcheck.enabled():
            pytest.skip("REPRO_LOCKCHECK is on for this run")
        assert isinstance(lockcheck.make_lock("t.plain"), type(threading.Lock()))
        assert not isinstance(
            lockcheck.make_rlock("t.plain.r"), lockcheck.CheckedLock
        )

    def test_inverted_lock_pair_raises(self, checking):
        a = lockcheck.make_lock("t.a")
        b = lockcheck.make_lock("t.b")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(lockcheck.LockOrderError, match="t.a -> t.b"):
                a.acquire()
        assert lockcheck.stats()["lockcheck_cycles"] == 1
        # the failed acquisition must not leave the lock held
        assert a.acquire(blocking=False)
        a.release()

    def test_consistent_order_is_quiet(self, checking):
        a = lockcheck.make_lock("t.a")
        b = lockcheck.make_lock("t.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        lockcheck.registry.check()  # no cycles
        stats = lockcheck.stats()
        assert stats["lockcheck_cycles"] == 0
        assert stats["lockcheck_max_held"] == 2
        assert stats["lockcheck_locks"] == 2

    def test_record_only_mode_collects_without_raising(self, checking):
        lockcheck.enable(record_only=True)
        a = lockcheck.make_lock("t.a")
        b = lockcheck.make_lock("t.b")
        with a:
            with b:
                pass
        with b:
            with a:  # inverted: recorded, not raised
                pass
        cycles = lockcheck.registry.cycles()
        assert cycles and set(cycles[0]) == {"t.a", "t.b"}
        with pytest.raises(lockcheck.LockOrderError):
            lockcheck.registry.check()

    def test_same_name_two_instances_is_a_cycle(self, checking):
        # two locks sharing a role name taken nested = instance-order hazard
        first = lockcheck.make_lock("t.same")
        second = lockcheck.make_lock("t.same")
        with first:
            with pytest.raises(lockcheck.LockOrderError):
                second.acquire()

    def test_rlock_reentry_records_no_edge(self, checking):
        r = lockcheck.make_rlock("t.r")
        with r:
            with r:
                assert lockcheck.held_locks() == ("t.r",)
            assert lockcheck.held_locks() == ("t.r",)
        assert lockcheck.held_locks() == ()
        assert ("t.r", "t.r") not in lockcheck.registry.edges()

    def test_note_io_records_held_locks(self, checking):
        a = lockcheck.make_lock("t.io")
        lockcheck.note_io("outside")  # no lock held: not an event
        with a:
            lockcheck.note_io("inside")
        events = lockcheck.registry.held_io_events()
        assert events == [("inside", ("t.io",))]
        assert lockcheck.stats()["lockcheck_held_io"] == 1

    def test_serving_stats_exposes_lockcheck_counters(self):
        from repro.core.runtime import LineageRuntime

        stats = LineageRuntime().serving_stats()
        for key in (
            "lockcheck_locks",
            "lockcheck_max_held",
            "lockcheck_cycles",
            "lockcheck_held_io",
        ):
            assert key in stats
