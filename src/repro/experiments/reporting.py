"""Plain-text series output for benchmark harnesses.

Every benchmark prints the rows/series the corresponding paper figure
or table reports; these helpers keep the formatting uniform.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width table with a header rule."""
    materialised: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in materialised:
        for col, cell in enumerate(row):
            widths[col] = max(widths[col], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialised:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def print_series(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> None:
    """Print a titled table (used by the benchmark harnesses)."""
    print()
    print(f"== {title} ==")
    print(format_table(headers, rows))


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "nan"
        if abs(cell) >= 1000 or (cell != 0 and abs(cell) < 0.01):
            return f"{cell:.3g}"
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)
