"""The full-field supersolution check, kept as the bitwise reference for the
slab-streamed `barrier.verify_supersolution`.

It evaluates the barrier and the non-divergence operator on the whole grid
at once and takes one max over the selected nodes.
"""

from pseudoplap.barrier import BarrierParams, barrier_field
from pseudoplap.grid import GridSpec, interior_mask, _radius_squared
from pseudoplap.operators import apply_nondivergence


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
