"""Tests for ``scripts/call_census.py``'s report over a throwaway source tree."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "call_census.py"


@pytest.fixture
def census(tmp_path, monkeypatch):
    """A fresh copy of the script whose ``src/repro`` is a one-file tree
    with one allowlisted, never-called function."""
    spec = importlib.util.spec_from_file_location("call_census_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    src = tmp_path / "repro"
    src.mkdir()
    (src / "mod.py").write_text("def f():\n    return 1\n")
    allowlist = tmp_path / "census-allowlist.json"
    allowlist.write_text(json.dumps([{"function": "mod.py::f", "reason": "test"}]))
    monkeypatch.setattr(module, "SRC", src)
    monkeypatch.setattr(module, "ALLOWLIST", allowlist)
    return module


def test_unchanged_tree_reports_clean(census):
    hashes, functions = census.hash_sources(), census.list_functions()
    assert set(functions) == {"mod.py::f"}
    assert census.report(functions, hashes, 0) == 0


def test_source_edited_during_the_run_is_refused(census, capsys):
    hashes, functions = census.hash_sources(), census.list_functions()
    # a mid-run edit that shifts f's first line: matched by line, f would
    # read as never called
    (census.SRC / "mod.py").write_text('"""doc"""\n\n\ndef f():\n    return 1\n')
    assert census.report(functions, hashes, 0) == 1
    err = capsys.readouterr().err
    assert "src/repro/mod.py changed during the run" in err
    assert "never called" not in err
