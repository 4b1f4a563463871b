"""Full-field supersolution checks, the references for the slab-streamed
`barrier.verify_supersolution`, and the per-(N, p) barrier sampler that
calls one per case, the reference for `lemmas.barrier_rows`.

`factored_supersolution` is the formula the shipped check evaluates,
(p-1) (M^{p-1} t + f_sup) with t the max over the selected nodes of
sum_i |D_i^c g|^{p-2} D_i^2 g on the barrier's profile g; every slab height
must give its result bit for bit.  `verify_supersolution` evaluates the
barrier b = boundary_sup + M g itself and the non-divergence operator on
it, for any boundary_sup >= 0, which the differences cancel; it agrees with
the factorised formula up to rounding.  Both use the
sliced stencil of stencil_reference.py on the whole grid at once.
"""

import numpy as np

from pseudoplap.barrier import BarrierParams, min_barrier_M, supersolution_tolerance
from pseudoplap.barrier import _profile
from pseudoplap.grid import GridSpec, ScalarField, interior_mask, nonexterior_mask
from pseudoplap.grid import radius_squared
from stencil_reference import apply_nondivergence, nondivergence_factors


def _grid_radius_squared(grid: GridSpec) -> np.ndarray:
    return radius_squared([grid.axis_coords() ** 2] * grid.dimension)


def _check_ball(grid: GridSpec) -> None:
    if grid.shape != "ball":
        raise ValueError("the barrier uses the distance to the unit sphere; ball grids only")


def barrier_field(grid: GridSpec, params: BarrierParams,
                  boundary_sup: float = 0.0) -> ScalarField:
    """Barrier boundary_sup + M g evaluated at every non-exterior node;
    ball-shaped grids only."""
    _check_ball(grid)
    vals = _profile(_grid_radius_squared(grid))
    vals *= params.M
    vals += boundary_sup
    vals[~nonexterior_mask(grid)] = np.nan
    return ScalarField(grid, vals)


def _check_exclusion(grid: GridSpec, exclusion_radius: float) -> None:
    h = grid.spacing
    if exclusion_radius < 2.0 * h * (1.0 - 1e-12):
        raise ValueError(f"exclusion_radius must be >= 2h = {2 * h}, got {exclusion_radius}")


def selected_nodes(grid: GridSpec, exclusion_radius: float) -> np.ndarray:
    """The interior nodes with |x| >= exclusion_radius, which the checks take the max over."""
    sel = interior_mask(grid) & (_grid_radius_squared(grid) >= exclusion_radius**2)
    if not sel.any():
        raise ValueError("no interior nodes outside the exclusion radius")
    return sel


def verify_supersolution(grid: GridSpec, params: BarrierParams, f_sup: float,
                         exclusion_radius: float, boundary_sup: float = 0.0) -> float:
    """Max over interior nodes with |x| >= exclusion_radius of A_nondiv(b) + (p-1) f_sup,
    with A_nondiv evaluated on the values of the barrier b = boundary_sup + M g."""
    _check_exclusion(grid, exclusion_radius)
    b = barrier_field(grid, params, boundary_sup)
    op = apply_nondivergence(b, params.p)
    sel = selected_nodes(grid, exclusion_radius)
    return float((op.values[sel] + (params.p - 1.0) * f_sup).max())


def factored_supersolution(grid: GridSpec, params: BarrierParams, f_sup: float,
                           exclusion_radius: float) -> float:
    """verify_supersolution's value by the factorised formula: (p-1) (M^{p-1} t + f_sup)."""
    _check_exclusion(grid, exclusion_radius)
    _check_ball(grid)
    g = _profile(_grid_radius_squared(grid))
    g[~nonexterior_mask(grid)] = np.nan
    total = np.zeros(grid.node_shape)
    for core, coef, second in nondivergence_factors(g, grid.spacing):
        coef **= params.p - 2.0
        coef *= second
        total[core] += coef
    t = total[selected_nodes(grid, exclusion_radius)].max()
    return float((params.p - 1.0) * (params.M ** (params.p - 1.0) * t + f_sup))


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
            params = BarrierParams(M=M, p=p)
            viol = factored_supersolution(grid, params, 1.0, 3.0 * grid.spacing)
            tol = supersolution_tolerance(grid, params, 1.0)
            rows.append([p, N, nodes, M, viol, tol, viol <= tol])
            ok = ok and viol <= tol
    return rows, ok
