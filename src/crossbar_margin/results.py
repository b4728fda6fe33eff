"""Column-labelled result tables and deterministic CSV emission."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class ResultTable:
    """Header plus rows; every row must match the header width."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if not self.header:
            raise ValueError("header must not be empty")
        if not all(isinstance(h, str) for h in self.header):
            raise ValueError(f"header cells must be strings, got {self.header!r}")
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for i, row in enumerate(self.rows):
            if len(row) != len(self.header):
                raise ValueError(
                    f"row {i} has {len(row)} cells, header has {len(self.header)}"
                )


def format_cell(value) -> str:
    """Serialize one cell; floats use repr so they round-trip exactly."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# The fields csv.writer quotes (QUOTE_MINIMAL, "\r\n" line terminator).
_needs_quotes = re.compile('[,"\r\n]').search


def _quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


def _format_column(cells: tuple) -> map | list[str]:
    """format_cell over one column, by one C-level map where the types allow."""
    kinds = set(map(type, cells))
    if all(issubclass(kind, float) for kind in kinds):
        return map(repr, map(float, cells))
    if kinds == {int}:
        return map(str, cells)
    return [_quote(format_cell(cell)) for cell in cells]


def write_csv(table: ResultTable, path: str | Path) -> None:
    """RFC-4180-style CSV: UTF-8, LF endings, header first, deterministic bytes;
    a cell holding ',', '"', CR or LF is quoted, so csv.reader reads it back."""
    columns = map(_format_column, zip(*table.rows))
    lines = [",".join(map(_quote, table.header)), *map(",".join, zip(*columns))]
    text = "\n".join([line or '""' for line in lines]) + "\n"  # csv's "" for one empty cell
    write_text(path, text)


def write_text(path: str | Path, text: str) -> None:
    """UTF-8 text over the file's old bytes, cut to length: on ext4, truncating on
    open makes close flush the rewritten file, tens of ms of wall time per file."""
    Path(path).touch()
    with Path(path).open("r+b") as handle:
        handle.write(text.encode("utf-8"))
        handle.truncate()
