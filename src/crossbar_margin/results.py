"""Column-labelled result tables and deterministic CSV emission.

A table is a header and blocks of rows.  A study's curve is one block: its
constant cells (label, engine, n) are scalars and its points are the
curve's own sequences, so no writer builds a row per point.  write_csv
formats each scalar and sequence once per block, and a Grid's cells once
per process: _grid_text keeps the text a Grid alone gives, and nothing else.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .analysis import Grid


# The types of a block entry of one cell per row (a Grid is a tuple); anything else,
# a str too, is a scalar.
_SEQUENCE = (tuple, list, np.ndarray)


@dataclass(frozen=True)
class ResultTable:
    """Header plus blocks of rows; each block gives one entry per header cell.

    An entry is a 1-d sequence (tuple, list, Grid or 1-d ndarray), one cell
    per row, or a scalar (a str too), the same cell on every row of the
    block.  A block's sequences share one length, its row count; a block of
    scalars only is one row.
    """

    header: tuple[str, ...]
    blocks: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if not self.header:
            raise ValueError("header must not be empty")
        if not all(isinstance(h, str) for h in self.header):
            raise ValueError(f"header cells must be strings, got {self.header!r}")
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        for i, block in enumerate(self.blocks):
            if len(block) != len(self.header):
                raise ValueError(
                    f"block {i} has {len(block)} entries, header has {len(self.header)}"
                )
            shapes = [np.shape(entry) if isinstance(entry, np.ndarray) else (len(entry),)
                      for entry in block if isinstance(entry, _SEQUENCE)]
            if len(set(shapes)) > 1 or any(len(shape) != 1 for shape in shapes):
                raise ValueError(
                    f"block {i} needs 1-d sequences of one length, got shapes {shapes}")


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


def _format_column(cells) -> list[str]:
    """format_cell over one sequence, by one C-level map where the types allow."""
    if isinstance(cells, np.ndarray):
        if cells.dtype.kind == "f" and cells.itemsize <= 8:  # tolist gives Python floats
            return list(map(repr, cells.tolist()))
        cells = cells.tolist()  # Python values, which format_cell reads as the numpy ones
    kinds = set(map(type, cells))
    if all(issubclass(kind, float) for kind in kinds):
        return list(map(repr, map(float, cells)))
    if kinds == {int}:
        return list(map(str, cells))
    return [_quote(format_cell(cell)) for cell in cells]


_GRID_TEXTS: dict = {}  # (id(grid), key) -> (grid, text): holding grid keeps its id its own
_GRID_TEXTS_MAX = 16


def _grid_text(grid: Grid, key, make):
    """make(grid), built once per process per Grid object and key, never per value (as
    Grid((1, 2)) == Grid((1.0, 2.0)) has other cells); emptied when full.  Shared: read only."""
    if (entry := _GRID_TEXTS.get((id(grid), key))) is None:
        if len(_GRID_TEXTS) >= _GRID_TEXTS_MAX:
            _GRID_TEXTS.clear()  # atomic: another thread at worst builds an entry again
        entry = _GRID_TEXTS[id(grid), key] = grid, make(grid)
    return entry[1]


def write_csv(table: ResultTable, path: str | Path) -> int:
    """RFC-4180-style CSV: UTF-8, LF endings, header first, deterministic bytes;
    a cell holding ',', '"', CR or LF is quoted, so csv.reader reads it back.
    Each scalar and each sequence is formatted once per block, a Grid once per process
    (module docstring).  Returns the number of rows written, the header not counted."""
    lines = [",".join(map(_quote, table.header))]
    for block in table.blocks:
        n_rows, cells = 1, []  # per entry, a sequence's cells (a list) or a scalar's text
        for entry in block:
            if isinstance(entry, _SEQUENCE):
                n_rows = len(entry)
                cells.append(_grid_text(entry, "csv", _format_column) if isinstance(entry, Grid)
                             else _format_column(entry))
            else:
                cells.append(_quote(format_cell(entry)))
        columns = (c if isinstance(c, list) else repeat(c, n_rows) for c in cells)
        lines += map(",".join, zip(*columns))
    if len(table.header) == 1:  # only a one-cell row can be empty: csv writes it ""
        lines = [line or '""' for line in lines]
    write_text(path, "\n".join(lines) + "\n")
    return len(lines) - 1


def write_text(path: str | Path, text: str) -> None:
    """UTF-8 text over the file's old bytes, cut to length: on ext4, truncating on
    open makes close flush the rewritten file, tens of ms of wall time per file.  An
    existing file keeps its mode, a missing one gets 0o666 less the umask, and a
    symlink is written through."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "wb") as handle:
        handle.write(text.encode("utf-8"))
        handle.truncate()
