"""Reference field writer for cross-checks: one format call per cell.

This is the writer `pseudoplap.grid.write_field` used before it formatted
whole blocks of rows with one `%` call each.  Both write every number with
`%.17g` in the same lexicographic row order under the same header, so the
files they write must agree byte for byte.
"""

from __future__ import annotations

import numpy as np

from pseudoplap.grid import ScalarField, node_coordinates, nonexterior_mask


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_field(path, field: ScalarField) -> None:
    """Write one row per non-exterior node: x1,...,xN,value with 17 significant digits."""
    field.validate_finite()
    grid = field.grid
    idx = np.argwhere(nonexterior_mask(grid))  # argwhere is lexicographic in the multi-index
    pts = node_coordinates(grid, idx)
    vals = field.values[tuple(idx.T)]
    header = ",".join(f"x{i + 1}" for i in range(grid.dimension)) + ",value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row, v in zip(pts.reshape(len(idx), -1), vals):
            fh.write(",".join(_fmt(c) for c in row) + "," + _fmt(v) + "\n")
