"""Cell-by-cell CSV writer: csv.writer fed format_cell one cell at a time.

The reference form of results.write_csv, which formats whole sequences at
once and each Grid once per process; the tests check that both write
the same bytes.  Each block is first expanded into rows: a sequence
(tuple, list or ndarray) gives one cell per row, a scalar the same cell on
every row, and a block of scalars is one row.  Rows are written with a
CRLF terminator, so csv.writer quotes a field holding "\r" as well as
"\n", and each row's final CRLF is then turned into LF.  It returns the
number of rows it wrote, the header not counted.
"""

import csv
import io
from pathlib import Path

import numpy as np

from crossbar_margin.results import format_cell


def _rows(block):
    is_sequence = [isinstance(entry, (tuple, list, np.ndarray)) for entry in block]
    n_rows = next((len(e) for e, seq in zip(block, is_sequence) if seq), 1)
    return [
        [entry[i] if seq else entry for entry, seq in zip(block, is_sequence)]
        for i in range(n_rows)
    ]


def write_csv_reference(table, path):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = []
    rows = [row for block in table.blocks for row in _rows(block)]
    for row in (table.header, *rows):
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([format_cell(cell) for cell in row])
        lines.append(buffer.getvalue()[:-2] + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8", newline="")
    return len(rows)
