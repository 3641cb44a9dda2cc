"""Result tables for the benchmark harness.

Each figure-reproduction bench assembles a :class:`ResultTable` whose rows
mirror the series the paper plots and prints it.

:func:`write_bench_json` is the machine-readable sibling: benches publish a
flat ``metric -> value`` mapping to ``BENCH_<name>.json`` so CI can diff
perf trajectory against committed baselines
(``benchmarks/check_regressions.py``) instead of a human reading tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

__all__ = ["ResultTable", "write_bench_json"]


def write_bench_json(name: str, metrics: dict, directory: str | None = None) -> str:
    """Merge ``metrics`` into ``BENCH_<name>.json`` and return its path.

    The file is a flat ``{"bench": name, "metrics": {metric: number}}``
    object.  Multiple tests of one bench module call this with their own
    metrics; existing keys are updated, others preserved, and the write is
    atomic (tmp + rename) so a crashed bench never leaves a torn file.
    ``directory`` defaults to ``$BENCH_JSON_DIR`` or the working directory
    (where CI uploads ``BENCH_*.json`` as artifacts).
    """
    directory = directory or os.environ.get("BENCH_JSON_DIR", ".")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    merged: dict = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                merged = json.load(fh).get("metrics", {})
        except (OSError, ValueError):
            merged = {}
    for key, value in metrics.items():
        merged[str(key)] = float(value)
    payload = {"bench": name, "metrics": dict(sorted(merged.items()))}
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        # a failed report write must not litter the bench directory with a
        # half-written tmp the next merge would mistake for a report
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return path


@dataclass
class ResultTable:
    """A titled table with fixed columns and aligned plain-text rendering."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values; table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _format(value) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        cells = [[self._format(v) for v in row] for row in self.rows]
        widths = [
            max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(col.ljust(w) for col, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print("\n" + self.render() + "\n")
