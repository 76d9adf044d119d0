"""Plain-text reporting helpers.

The experiment runners, the pairwise-scan and tuning reports and the
extensions render their outcome through these utilities, so the console
output mirrors the rows/series of the paper's tables and figures.  The
module lives at the package root, not in :mod:`repro.experiments`, so a
scan report does not import the experiment harness.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["check", "format_table", "format_series", "title"]


def check(flag: bool) -> str:
    """The paper's detection mark: a check or a cross."""
    return "Y" if flag else "x"


def title(text: str) -> str:
    """A boxed section title."""
    bar = "=" * len(text)
    return f"{bar}\n{text}\n{bar}"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as a fixed-width text table.

    Args:
        headers: column names.
        rows: row cell values (stringified).

    Returns:
        The table as one string, no trailing newline.
    """
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = [fmt(list(headers)), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[object], ys: Sequence[object]) -> str:
    """Render an (x, y) series the way a figure's data would be tabulated."""
    pairs = ", ".join(f"{x}:{y}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"
