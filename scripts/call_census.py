#!/usr/bin/env python3
"""Call census: which ``src/repro`` functions does tier-1 never call?

Installs a ``sys.setprofile`` / ``threading.setprofile`` hook *before*
anything imports ``repro`` (so import-time calls and every daemon,
capture and maintenance thread count), then runs the tier-1 suite
in-process with ``pytest.main``.  Every ``def`` under ``src/repro`` is
listed with ``ast`` (methods and nested functions included, lambdas
excluded) and named ``path::qualname``; a qualname counts as reached when
any ``def`` of that name in that file ran.

Every unreached function must be listed in the root
``census-allowlist.json`` with a reason::

    [{"function": "core/lineage_store.py::OpLineageStore.ingest",
      "reason": "abstract: every layout overrides it"}]

Exit status 1 when the pytest run failed, a function is unreached and
not allowlisted, an entry has an empty reason, or an entry is stale (its
function is gone or now reached); 0 otherwise.  Code that runs only in a
forked child or a subprocess is invisible to the hook, so it belongs in
the allowlist with that reason.

Run from anywhere (arguments are passed through to pytest; the default is
tier-1's ``-x -q``)::

    PYTHONPATH=src python scripts/call_census.py
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "census-allowlist.json"

#: (path relative to src/repro, first line, code name) of every code object run
_seen: set[tuple[str, int, str]] = set()
#: co_filename -> path relative to src/repro, or None outside it
_files: dict[str, str | None] = {}


def _relpath(filename: str) -> str | None:
    path = pathlib.Path(os.path.realpath(filename))
    try:
        return path.relative_to(SRC).as_posix()
    except ValueError:
        return None


def _profile(frame, event, arg) -> None:
    if event != "call":
        return
    code = frame.f_code
    filename = code.co_filename
    rel = _files.get(filename, "")
    if rel == "":
        rel = _files[filename] = _relpath(filename)
    if rel is not None:
        _seen.add((rel, code.co_firstlineno, code.co_name))


def list_functions() -> dict[str, dict[str, object]]:
    """Every ``def`` under ``src/repro``: ``path::qualname`` -> facts.

    ``lines`` sums over same-named defs (a property and its setter, or a
    conditional definition); ``starts`` holds each def's first line as
    the code object reports it (the first decorator's line, if any).
    """
    found: dict[str, dict[str, object]] = {}

    def walk(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in child.decorator_list])
                fact = found.setdefault(
                    f"{rel}::{prefix}{child.name}",
                    {"path": rel, "name": child.name, "lines": 0, "starts": []},
                )
                fact["lines"] += child.end_lineno - start + 1
                fact["starts"].append(start)
                walk(child, rel, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, rel, prefix)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        walk(ast.parse(path.read_text(encoding="utf-8")), rel, "")
    return found


def load_allowlist() -> tuple[dict[str, str], list[str]]:
    """``function -> reason`` plus the problems found in the file itself."""
    if not ALLOWLIST.exists():
        return {}, []
    entries = json.loads(ALLOWLIST.read_text(encoding="utf-8"))
    allowed: dict[str, str] = {}
    problems: list[str] = []
    for entry in entries:
        name = entry.get("function", "")
        reason = str(entry.get("reason", "")).strip()
        if not reason:
            problems.append(f"allowlist entry {name!r} has an empty reason")
        if name in allowed:
            problems.append(f"allowlist entry {name!r} is listed twice")
        allowed[name] = reason
    return allowed, problems


def main(argv: list[str]) -> int:
    # the import path ``python -m pytest`` gives tier-1 from the repo root
    sys.path[:1] = [str(ROOT), str(SRC.parent)]
    os.chdir(ROOT)
    import pytest  # imports no repro module

    threading.setprofile(_profile)
    sys.setprofile(_profile)
    try:
        status = pytest.main(argv or ["-x", "-q"])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    functions = list_functions()
    unreached = {
        key: fact
        for key, fact in functions.items()
        if not any((fact["path"], start, fact["name"]) in _seen for start in fact["starts"])
    }
    allowed, problems = load_allowlist()
    if status != 0:
        problems.insert(0, f"the pytest run failed (exit status {int(status)})")
    for key in sorted(allowed):
        if key not in functions:
            problems.append(f"stale allowlist entry {key!r}: no such function")
        elif key not in unreached:
            problems.append(f"stale allowlist entry {key!r}: it is reached now")

    print(f"\n{'path':<32}{'qualname':<56}{'lines':>6}  allowlisted")
    for key, fact in sorted(unreached.items()):
        listed = key in allowed
        if not listed:
            problems.append(f"{key} is never called and not allowlisted")
        qualname = key.split("::", 1)[1]
        print(f"{fact['path']:<32}{qualname:<56}{fact['lines']:>6}  {'yes' if listed else 'NO'}")
    unreached_lines = sum(fact["lines"] for fact in unreached.values())
    print(
        f"functions {len(functions)} / reached {len(functions) - len(unreached)} / "
        f"unreached {len(unreached)} ({unreached_lines} lines) / "
        f"allowlisted {sum(key in allowed for key in unreached)}"
    )
    for problem in problems:
        print(f"census: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
