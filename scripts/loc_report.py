#!/usr/bin/env python3
"""Size report for ``src/repro`` (stdlib only).

Prints, per package, the number of ``*.py`` files, their physical lines,
and the public symbols they declare (entries of each module's
``__all__``, read from the source with ``ast`` — nothing is imported), then
the totals.  ROADMAP tracks ``src/`` line count as a metric that should go
down; CI uploads this table as an artifact so the trend is visible per PR.

Run from anywhere::

    python scripts/loc_report.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def public_symbols(source: str) -> int:
    """Length of the module's literal ``__all__`` (0 when it has none)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return len(node.value.elts)
    return 0


def main() -> int:
    rows: dict[str, list[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        package = "repro" if len(rel.parts) == 1 else f"repro.{rel.parts[0]}"
        source = path.read_text(encoding="utf-8")
        row = rows.setdefault(package, [0, 0, 0])
        row[0] += 1
        row[1] += source.count("\n")
        row[2] += public_symbols(source)
    print(f"{'package':<18}{'files':>7}{'lines':>8}{'public':>8}")
    for package, (files, lines, public) in rows.items():
        print(f"{package:<18}{files:>7}{lines:>8}{public:>8}")
    totals = [sum(col) for col in zip(*rows.values())]
    print(f"{'total':<18}{totals[0]:>7}{totals[1]:>8}{totals[2]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
