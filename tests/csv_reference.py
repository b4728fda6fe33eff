"""Cell-by-cell CSV writer: csv.writer fed format_cell one cell at a time.

The reference form of results.write_csv, which formats whole columns at
once; the tests check that both write the same bytes.
"""

import csv
from pathlib import Path

from crossbar_margin.results import format_cell


def write_csv_reference(table, path):
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(table.header)
        for row in table.rows:
            writer.writerow([format_cell(cell) for cell in row])
