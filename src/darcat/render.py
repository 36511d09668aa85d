"""Table syntax of every report: the one place that knows csv, md and txt.

Callers choose the columns and the text of each cell; :func:`table` only
lays them out.  In txt each cell is right-aligned to its column width and
the cells are joined by one space; cells past the header's length are a
trailing note, appended without alignment (csv and md rows carry none).
:func:`pi_vector` writes the one cell text every report gives a vector
of state frequencies.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["FORMATS", "pi_vector", "table"]

FORMATS = ("csv", "md", "txt")


def table(fmt: str, header: Sequence[str], rows: Sequence[Sequence[object]], widths: Sequence[int] = ()) -> str:
    """Header and rows as one csv, md or txt table; ``widths`` are the txt column widths."""
    cells = [[str(cell) for cell in row] for row in (header, *rows)]
    if fmt == "csv":
        lines = [",".join(row) for row in cells]
    elif fmt == "md":
        lines = ["| " + " | ".join(row) + " |" for row in cells]
        lines.insert(1, "|---" * len(header) + "|")
    elif fmt == "txt":
        lines = [
            " ".join(f"{cell:>{w}}" for cell, w in zip(row, widths)) + "".join(row[len(header) :]) for row in cells
        ]
    else:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    return "\n".join(lines) + "\n"


def pi_vector(values) -> str:
    """State frequencies as ``(0.250;0.500;0.250)``: three decimals, joined by semicolons."""
    return "(" + ";".join(f"{v:.3f}" for v in values) + ")"
