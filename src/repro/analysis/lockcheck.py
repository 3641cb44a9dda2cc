"""Instrumented lock factory and runtime lock-order validator.

Every lock in :mod:`repro.core` and :mod:`repro.storage` is constructed
through :func:`make_lock` / :func:`make_rlock` (enforced statically by rule
SZ005, see :mod:`repro.analysis.rules`).  In normal operation the factory
returns a plain :class:`threading.Lock` / :class:`threading.RLock` — zero
overhead, zero behaviour change.

When lock checking is enabled (``REPRO_LOCKCHECK=1`` in the environment, or
:func:`enable` at runtime) the factory instead returns a :class:`CheckedLock`
wrapper that feeds a global :class:`LockCheckRegistry`:

* **Lock-acquisition-order graph.**  Whenever a thread acquires lock ``B``
  while holding lock ``A``, the edge ``A -> B`` is recorded (by lock *name*,
  so every instance of e.g. the catalog cache lock shares one graph node).
  An edge that closes a cycle in the graph is a potential deadlock — two
  threads can interleave the inverted orders — and raises
  :class:`LockOrderError` at the acquisition that would complete the cycle
  (or is recorded silently under ``enable(record_only=True)``).
* **Held-while-I/O events.**  Blocking-I/O entry points (segment open,
  segment write, file unlink) call :func:`note_io`; when the calling thread
  holds any instrumented lock, the event is recorded with the held lock
  names.  These are *observations*, not failures — some sites are
  deliberate (the catalog's maintenance lock serializes flush and merge
  I/O, suppressed inline for the static rule) — but the counters surface
  regressions in serving stats.
* **Counters** (:func:`stats`): locks instrumented, max locks held by one
  thread at once, cycles found, held-while-I/O events.  The runtime merges
  them into ``serving_stats()`` so the observability surface is one dict.

The checker is a poor man's race/deadlock detector: it validates the order
contract on whatever the test suite actually executes, which is exactly the
coverage the serving/compaction stress suites provide in CI
(``REPRO_LOCKCHECK=1`` re-runs in the ``invariants`` job).

Reentrant acquisition of the same lock *instance* (an RLock) records no
edge; nesting two *different instances* with the same name records a
``name -> name`` self-edge and is reported as a cycle, because two
same-class locks taken in instance order A,B by one thread and B,A by
another deadlock just the same.
"""

from __future__ import annotations

import os
import threading

from repro.errors import SubZeroError

__all__ = [
    "CheckedLock",
    "LockCheckRegistry",
    "LockOrderError",
    "enable",
    "disable",
    "enabled",
    "held_locks",
    "make_lock",
    "make_rlock",
    "note_io",
    "registry",
    "reset",
    "stats",
]


class LockOrderError(SubZeroError):
    """Two locks were acquired in inconsistent orders (potential deadlock)."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_LOCKCHECK", "").strip() not in ("", "0")


#: module-level fast flag: checked once per factory call / note_io call
_active: bool = _env_enabled()
#: when active: raise LockOrderError at the cycle-closing acquisition, or
#: only record it (``enable(record_only=True)`` — used by tests that want
#: to inspect the cycle rather than unwind mid-acquire)
_raise_on_cycle: bool = True

_tls = threading.local()


def _held() -> list:
    """The instrumented locks (CheckedLock instances) this thread holds,
    in acquisition order; reentrant acquisitions appear once."""
    held = getattr(_tls, "held", None)
    if held is None:
        held = []
        _tls.held = held
    return held


class LockCheckRegistry:
    """Global store for the order graph, cycles, and counters."""

    def __init__(self) -> None:
        # the registry's own mutex is deliberately a raw threading.Lock:
        # instrumenting it would recurse
        self._mutex = threading.Lock()  # szlint: ignore[SZ005] -- the checker's own mutex cannot be checked
        self._names: set[str] = set()
        self._edges: dict[tuple[str, str], int] = {}
        self._cycles: list[tuple[str, ...]] = []
        self._held_io: list[tuple[str, tuple[str, ...]]] = []
        self.max_held = 0

    # -- recording -----------------------------------------------------------

    def register(self, name: str) -> None:
        with self._mutex:
            self._names.add(name)

    def record_acquire(self, lock: "CheckedLock", held: list) -> None:
        """Record order edges from every held lock to ``lock``; detect and
        record (and optionally raise on) a cycle the new edge closes."""
        new_cycle: tuple[str, ...] | None = None
        with self._mutex:
            if len(held) + 1 > self.max_held:
                self.max_held = len(held) + 1
            for holder in held:
                if holder is lock:
                    continue  # RLock reentry: no self-instance edge
                edge = (holder.name, lock.name)
                fresh = edge not in self._edges
                self._edges[edge] = self._edges.get(edge, 0) + 1
                if fresh:
                    path = self._find_path(lock.name, holder.name)
                    if path is not None:
                        cycle = tuple(path) + (lock.name,)
                        self._cycles.append(cycle)
                        new_cycle = cycle
        if new_cycle is not None and _raise_on_cycle:
            raise LockOrderError(
                "lock-order cycle (potential deadlock): "
                + " -> ".join(new_cycle)
            )

    def _find_path(self, src: str, dst: str) -> list[str] | None:
        """DFS for a path src -> ... -> dst over the edge graph (callers
        hold the mutex).  ``src == dst`` is the trivial self-edge path."""
        if src == dst:
            return [src]
        stack = [(src, [src])]
        seen = {src}
        adjacency: dict[str, list[str]] = {}
        for a, b in self._edges:
            adjacency.setdefault(a, []).append(b)
        while stack:
            node, path = stack.pop()
            for nxt in adjacency.get(node, ()):
                if nxt == dst:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def record_io(self, label: str, held: list) -> None:
        names = tuple(lock.name for lock in held)
        with self._mutex:
            self._held_io.append((label, names))

    # -- introspection -------------------------------------------------------

    def edges(self) -> dict[tuple[str, str], int]:
        with self._mutex:
            return dict(self._edges)

    def cycles(self) -> list[tuple[str, ...]]:
        with self._mutex:
            return list(self._cycles)

    def held_io_events(self) -> list[tuple[str, tuple[str, ...]]]:
        with self._mutex:
            return list(self._held_io)

    def stats(self) -> dict[str, int]:
        with self._mutex:
            return {
                "lockcheck_locks": len(self._names),
                "lockcheck_max_held": self.max_held,
                "lockcheck_cycles": len(self._cycles),
                "lockcheck_held_io": len(self._held_io),
            }

    def check(self) -> None:
        """Raise :class:`LockOrderError` if any cycle was recorded."""
        with self._mutex:
            cycles = list(self._cycles)
        if cycles:
            raise LockOrderError(
                "lock-order cycles recorded: "
                + "; ".join(" -> ".join(c) for c in cycles)
            )

    def clear(self) -> None:
        with self._mutex:
            self._names.clear()
            self._edges.clear()
            self._cycles.clear()
            self._held_io.clear()
            self.max_held = 0


#: the process-wide registry every CheckedLock reports to
registry = LockCheckRegistry()


class CheckedLock:
    """Wraps a real lock, reporting acquisitions to the registry.

    Presents the subset of the lock API the codebase uses: ``acquire`` /
    ``release`` / context manager / ``locked``.  The wrapped lock keeps its
    exact blocking semantics — instrumentation happens only after a
    successful acquisition, and order edges are recorded *after* the lock
    is actually held, so the checker itself can never deadlock the code
    under test.
    """

    __slots__ = ("name", "_lock", "_reentrant")

    def __init__(self, name: str, reentrant: bool) -> None:
        self.name = name
        self._reentrant = reentrant
        # raw constructors by design: this *is* the factory's product
        if reentrant:
            self._lock = threading.RLock()  # szlint: ignore[SZ005] -- the factory's own product
        else:
            self._lock = threading.Lock()  # szlint: ignore[SZ005] -- the factory's own product
        registry.register(name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        held = _held()
        reentry = self._reentrant and self in held
        acquired = self._lock.acquire(blocking, timeout)
        if acquired and not reentry:
            try:
                registry.record_acquire(self, held)
            except LockOrderError:
                self._lock.release()
                raise
            held.append(self)
        return acquired

    def release(self) -> None:
        self._lock.release()
        held = _held()
        # an RLock releases from the held list only on its outermost exit
        if not (self._reentrant and self._lock._is_owned()):
            for i in range(len(held) - 1, -1, -1):
                if held[i] is self:
                    del held[i]
                    break

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<CheckedLock {self.name!r} reentrant={self._reentrant}>"


# -- the factory (the only sanctioned lock constructors, per SZ005) ----------


def make_lock(name: str):
    """A mutex for ``name`` — plain :class:`threading.Lock` normally, a
    :class:`CheckedLock` under ``REPRO_LOCKCHECK=1`` / :func:`enable`.

    ``name`` identifies the lock's *role* (e.g. ``"catalog.cache"``), not
    the instance: every instance of a role shares one node in the order
    graph, which is what makes the order contract class-level.
    """
    if _active:
        return CheckedLock(name, reentrant=False)
    return threading.Lock()  # szlint: ignore[SZ005] -- the factory's own product


def make_rlock(name: str):
    """Reentrant variant of :func:`make_lock`."""
    if _active:
        return CheckedLock(name, reentrant=True)
    return threading.RLock()  # szlint: ignore[SZ005] -- the factory's own product


# -- enable / disable / observe ----------------------------------------------


def enabled() -> bool:
    """True when newly constructed locks will be instrumented."""
    return _active


def enable(record_only: bool = False) -> None:
    """Turn instrumentation on for locks constructed from now on.

    ``record_only=True`` records cycles without raising at the acquisition
    site (tests use this to assert on the recorded cycle itself)."""
    global _active, _raise_on_cycle
    _active = True
    _raise_on_cycle = not record_only


def disable() -> None:
    """Stop instrumenting newly constructed locks (existing CheckedLocks
    keep reporting; construct fresh objects to shed them)."""
    global _active
    _active = False


def reset() -> None:
    """Clear the registry (edges, cycles, counters) — test isolation."""
    registry.clear()


def held_locks() -> tuple[str, ...]:
    """Names of the instrumented locks the calling thread currently holds."""
    return tuple(lock.name for lock in _held())


def note_io(label: str) -> None:
    """Mark a blocking-I/O entry point (segment open/write/unlink).

    No-op when checking is disabled.  When enabled and the calling thread
    holds instrumented locks, records a held-while-I/O event — the dynamic
    counterpart of static rule SZ002."""
    if not _active:
        return
    held = _held()
    if held:
        registry.record_io(label, held)


def stats() -> dict[str, int]:
    """Registry counters (all zero when checking never ran)."""
    return registry.stats()
