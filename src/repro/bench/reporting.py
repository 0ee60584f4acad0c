"""Fixed-width text tables for benchmark reports."""

from __future__ import annotations

from typing import List, Sequence


def render_table(headers: Sequence[str], rows: List[Sequence[object]]) -> str:
    """Plain fixed-width table."""
    cells = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
