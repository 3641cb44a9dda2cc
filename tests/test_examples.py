"""Every example script must run end to end (they are living documentation)."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "astronomy_debugging.py",
        "genomics_clinician.py",
        "optimizer_tour.py",
        "custom_udf.py",
        "partitioned_catalog.py",
        "daemon_quickstart.py",
    ],
)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"


def test_quickstart_reports_lineage(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "backward lineage" in out
    assert "forward lineage" in out
    assert "all-to-all" in out  # the entire-array optimization fired
