"""Reference pair scan for cross-checks: the full K x K scan in 512-row blocks.

This is the scan `pseudoplap.regularity` used before it visited each unordered
pair once and served every field of a stack and every exponent from that
visit.  It scans one field at a time, evaluates each pair twice, as (i, j)
and (j, i), and rebuilds the distances per exponent; every
quotient it takes the max of is bitwise the one the shipped scan computes, so
the two maxima must agree exactly.
"""

from __future__ import annotations

import numpy as np

from pseudoplap.grid import ScalarField

_CHUNK = 512


def pair_scan(u: ScalarField, r: float, exponent: float) -> float:
    grid = u.grid
    if not r < 1.0 - 2.0 * grid.spacing:
        raise ValueError(
            f"need r < 1 - 2h = {1.0 - 2.0 * grid.spacing:.6g} for an interior scan, got {r}"
        )
    every = np.argwhere(np.ones(grid.node_shape, dtype=bool))  # lexicographic
    coords = grid.axis_coords()[every]
    r2 = coords[:, 0] ** 2
    for ax in range(1, grid.dimension):  # |x|^2 summed in axis order
        r2 = r2 + coords[:, ax] ** 2
    inside = r2 <= r * r
    if inside.sum() < 2:
        raise ValueError(f"fewer than 2 nodes inside radius {r}")
    return pair_scan_values(coords[inside], u.values[tuple(every[inside].T)], exponent)


def pair_scan_values(pts: np.ndarray, vals: np.ndarray, exponent: float) -> float:
    """The scan of one field's values `vals` at the K nodes of the (K, N) coordinates `pts`."""
    if not np.isfinite(vals).all():
        raise ValueError("field has unset values inside the scan radius")
    best = 0.0
    for lo in range(0, len(vals), _CHUNK):
        hi = min(lo + _CHUNK, len(vals))
        diff = np.abs(vals[lo:hi, None] - vals[None, :])
        dist = np.sqrt(((pts[lo:hi, None, :] - pts[None, :, :]) ** 2).sum(-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = diff / dist**exponent
        quot[dist == 0.0] = 0.0
        best = max(best, float(quot.max()))
    return best
