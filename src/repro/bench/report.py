"""Result tables for the benchmark harness.

Each figure reproduced by ``benchmarks/figures.py`` assembles a
:class:`ResultTable` whose rows mirror the series the paper plots and
prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ResultTable"]


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
