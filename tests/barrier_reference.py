"""The full-field supersolution check, kept as the bitwise reference for
the slab-streamed `barrier.verify_supersolution`, and the per-(N, p) barrier
sampler that calls it once per case, the reference for `lemmas.barrier_rows`.

It evaluates the barrier and the non-divergence operator, the sliced one of
stencil_reference.py, on the whole grid at once and takes one max over the
selected nodes.
"""

import numpy as np

from pseudoplap.barrier import BarrierParams, min_barrier_M, supersolution_tolerance
from pseudoplap.barrier import _check_barrier_grid, _profile
from pseudoplap.grid import GridSpec, ScalarField, interior_mask, nonexterior_mask
from pseudoplap.grid import _radius_squared
from stencil_reference import apply_nondivergence


def barrier_field(grid: GridSpec, params: BarrierParams) -> ScalarField:
    """Barrier evaluated at every non-exterior node; ball-shaped grids only."""
    _check_barrier_grid(grid, params)
    vals = _profile(_radius_squared(grid))
    vals *= params.M
    vals += params.boundary_sup
    vals[~nonexterior_mask(grid)] = np.nan
    return ScalarField(grid, vals)


def verify_supersolution(grid: GridSpec, params: BarrierParams, f_sup: float,
                         exclusion_radius: float) -> float:
    """Max over interior nodes with |x| >= exclusion_radius of A_nondiv(b) + (p-1) f_sup."""
    h = grid.spacing
    if exclusion_radius < 2.0 * h * (1.0 - 1e-12):
        raise ValueError(f"exclusion_radius must be >= 2h = {2 * h}, got {exclusion_radius}")
    b = barrier_field(grid, params)
    op = apply_nondivergence(b, params.p)
    sel = interior_mask(grid) & (_radius_squared(grid) >= exclusion_radius**2)
    if not sel.any():
        raise ValueError("no interior nodes outside the exclusion radius")
    return float((op.values[sel] + (params.p - 1.0) * f_sup).max())


def barrier_rows(nodes: int, p_list, n_list):
    """Discrete supersolution check of the minimal barrier on the unit ball, per (N, p).

    Rows: p, N, nodes, M, violation, tolerance, pass.
    """
    rows = []
    ok = True
    for N in n_list:
        grid = GridSpec(N, nodes, "ball")
        for p in p_list:
            M = min_barrier_M(p, N, 1.0)
            params = BarrierParams(M=M, boundary_sup=0.0, p=p, N=N)
            viol = verify_supersolution(grid, params, 1.0, 3.0 * grid.spacing)
            tol = supersolution_tolerance(grid, params, 1.0)
            rows.append([p, N, nodes, M, viol, tol, viol <= tol])
            ok = ok and viol <= tol
    return rows, ok
