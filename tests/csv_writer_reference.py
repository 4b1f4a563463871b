"""Reference report-CSV writer for cross-checks: one format call per cell.

This is the writer `pseudoplap.reporting.write_csv` used before it
formatted each run of rows that share their cell types with one `%` call.
Both write the same comment line and header, so the files they write must
agree byte for byte.
"""

from __future__ import annotations

import csv

import numpy as np

from pseudoplap import __version__


def format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return ""
    return str(v)


def write_csv(path, columns, rows, cfg_hash: str = "none") -> None:
    """Write a report CSV; a cell holding a comma, quote or newline is quoted."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# tool=pseudoplap-{__version__} config_hash={cfg_hash}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format_cell(v) for v in row] for row in rows)
