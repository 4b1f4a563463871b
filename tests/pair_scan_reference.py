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

from pseudoplap.grid import ScalarField, interior_ball_nodes, node_coordinates

_CHUNK = 512


def pair_scan(u: ScalarField, r: float, exponent: float) -> float:
    grid = u.grid
    if not r < 1.0 - 2.0 * grid.spacing:
        raise ValueError(
            f"need r < 1 - 2h = {1.0 - 2.0 * grid.spacing:.6g} for an interior scan, got {r}"
        )
    idx = interior_ball_nodes(grid, r)
    if len(idx) < 2:
        raise ValueError(f"fewer than 2 nodes inside radius {r}")
    pts = node_coordinates(grid, idx).reshape(len(idx), -1)
    return pair_scan_values(pts, u.values[tuple(idx.T)], exponent)


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
