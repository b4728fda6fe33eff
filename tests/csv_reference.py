"""Cell-by-cell CSV writer: csv.writer fed format_cell one cell at a time.

The reference form of results.write_csv, which formats whole columns at
once; the tests check that both write the same bytes.  Rows are written
with a CRLF terminator, so csv.writer quotes a field holding "\r" as
well as "\n", and each row's final CRLF is then turned into LF.
"""

import csv
import io
from pathlib import Path

from crossbar_margin.results import format_cell


def write_csv_reference(table, path):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = []
    for row in (table.header, *table.rows):
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([format_cell(cell) for cell in row])
        lines.append(buffer.getvalue()[:-2] + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8", newline="")
