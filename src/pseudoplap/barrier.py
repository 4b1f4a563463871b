"""Radial barrier supersolution, the resulting sup-norm bound, and comparison checks.

With d(x) = 1 - |x| the barrier on the unit ball is

    b(x) = boundary_sup + M (1 - 1/(1 + d(x))),

which satisfies A_nondiv(b) <= -(p-1) f_sup away from the origin once

    M^{p-1} 2^{-2p} N^{1 - p/2} > f_sup.

verify_supersolution checks this on the grid through the exact factorisation
A_nondiv(b) = (p-1) M^{p-1} sum_i |D_i^c g|^{p-2} D_i^2 g of the profile g,
so boundary_sup never enters its arithmetic and every p shares g's stencil.
It builds g, the squared radii and the node classes one slab of planes (or
one tile of a plane) at a time from the axis coordinates, so no array it
makes spans the grid.  The operator is a sum of one-axis terms, so it
commutes with each reflection x_i -> -x_i; on a grid whose axis
coordinates are mirror-symmetric (n = 2^k + 1) the check streams only the
octant x_i >= 0, whose max is the whole grid's bit for bit.

The smallest such M gives the computable sup-norm bound
|u| <= boundary_sup + M/2 for solutions, and the monotone divergence-form
scheme obeys a discrete comparison principle that comparison_check probes
on solved field pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, boundary_mask, interior_mask, mirror_axes
from .grid import node_rule, radius_squared
from .operators import apply_divergence, check_exponent, nondivergence_factors
from .solver import EnergyProblem

# Nodes per slab of the streamed supersolution check, counted on whole planes
# of the grid: at 3D n = 129 a slab is 3 planes and 2 halo planes, cropped to
# the octant's 66 by 66 rows on a mirror-symmetric grid.  A plane of the
# streamed box with more nodes is cut along axis 1 into tiles whose box,
# halos included, holds about as many: in 3D from n = 257 on for other grids,
# from n = 513 on for mirror-symmetric ones, whose box is the octant's.  Per
# slab or tile, the box's squared radii and profile, two stencil buffers over
# its inner planes and each axis's two factors at the selected nodes take at
# most about 0.6 MB each, and the closed and interior masks an eighth of
# that; none outlives its slab or tile.  Together they peak at about 12
# doubles per node of the slab: tracemalloc measured 7.33 MB for the
# 17 x 66 x 66 slabs that octant-sized heights would give at 3D n = 129, so a
# slab sized by the octant's width needs that peak reduced first.
_SLAB_ELEMENTS = 2**16


def min_barrier_M(p: float, N: int, f_sup: float) -> float:
    """Near-minimal barrier strength (f_sup 2^{2p} N^{p/2-1})^{1/(p-1)} (1 + 1e-6).

    Returns 0 for f_sup = 0; callers must treat a vanishing right-hand side
    separately (any M > 0 works there).
    """
    check_exponent(p)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if f_sup < 0:
        raise ValueError(f"f_sup must be >= 0, got {f_sup}")
    return (f_sup * 2.0 ** (2.0 * p) * N ** (p / 2.0 - 1.0)) ** (1.0 / (p - 1.0)) * (1.0 + 1e-6)


@dataclass(frozen=True)
class BarrierParams:
    """The barrier's strength M and exponent p; its dimension is the grid's."""

    M: float
    p: float

    def __post_init__(self):
        # a non-finite M makes the barrier itself non-finite
        if not (self.M > 0 and np.isfinite(self.M)):
            raise ValueError(f"M must be positive and finite, got {self.M}")
        check_exponent(self.p)


def _profile(r2: np.ndarray) -> np.ndarray:
    """1 - 1/(1 + d) with d = 1 - |x| at nodes of squared radius r2, as a new
    array: the barrier is boundary_sup + M times it."""
    # in place, so a 3D grid holds two node arrays at a time, not four
    g = np.sqrt(r2)
    np.subtract(1.0, g, out=g)
    np.add(1.0, g, out=g)
    np.divide(1.0, g, out=g)
    np.subtract(1.0, g, out=g)
    return g


def _span(mask: np.ndarray, start: int) -> slice:
    """The smallest index range from `start` on that holds every True entry
    of the 1D mask at or after it."""
    hits = np.flatnonzero(mask)
    return slice(max(start, hits[0]), hits[-1] + 1)


def _tiles(box: tuple, rows: int):
    """The box cut along axis 1 into tiles of `rows` inner rows, each with one
    halo row on either side; the box's first and last rows are halos only.
    A 1D box is its own tile."""
    if len(box) == 1:
        yield box
        return
    span = box[1]
    for first in range(span.start + 1, span.stop - 1, rows):
        yield box[:1] + (slice(first - 1, min(first + rows, span.stop - 1) + 1),) + box[2:]


def verify_supersolution(grid: GridSpec, cases, f_sup: float,
                         exclusion_radius: float) -> list:
    """For each BarrierParams in cases, the max over interior nodes with
    |x| >= exclusion_radius of A_nondiv(b) + (p-1) f_sup, in the order of cases.

    Non-positive up to discretization error; the barrier is not C^2 at the
    origin, hence the exclusion (at least 2h).  The grid must be a ball; an
    empty sequence gives an empty list.

    The differences cancel the constant boundary_sup and each axis term is
    homogeneous of degree p-1, so each case's result is exactly
    (p-1) (M^{p-1} t + f_sup), t the max over the selected nodes of
    sum_i |D_i^c g|^{p-2} D_i^2 g on the profile g (_profile); boundary_sup
    does not enter the arithmetic.  The check streams slabs of about
    _SLAB_ELEMENTS nodes (at least one plane) along axis 0, each with one
    halo plane on either side and cropped to the box of its nodes in the
    closed ball, which holds every stencil neighbour of an interior node.
    When one plane of the box holds more than _SLAB_ELEMENTS nodes, each slab
    (then one plane) is cut along axis 1 into tiles (_tiles) of about as many
    nodes with their halos.  Once per tile for all cases, it builds from the
    axis coordinates the tile's squared radii (radius_squared, added in the whole
    grid's order) and its closed and interior masks (node_rule, the halo
    planes and rows giving the neighbours along axes 0 and 1), then the
    profile (NaN outside the closed ball) and its factors |D_i^c g| and
    D_i^2 g (nondivergence_factors) over the inner planes, compressed to the
    selected nodes; each case then adds its axis terms in axis order and
    takes one max.  No array spans the grid and no grid cache is read or
    filled, so the memory is a few slabs or tiles whatever the grid.  The
    tiles' squared radii and classes are the whole grid's, bit for bit, and
    a positive scale and a shift are monotone under rounding,
    so every result is bit for bit that of the same formula on the full
    field (tests/barrier_reference.py).

    When the squared axis coordinates are mirror-symmetric (grid.mirror_axes,
    as for every n = 2^k + 1), the slabs start at the middle plane
    m = (n-1)/2 and each box along axes 1 .. N-1 at row m - 1, its halo, so
    only the octant x_i >= 0 is streamed.  That is exact: reflecting a node
    along an axis leaves its squared radius, summed in axis order, and its
    class unchanged bit for bit, and maps its stencil onto its mirror's;
    both factors are symmetric in the two neighbours (nondivergence_factors),
    so the node and its mirror images have the same terms and sum, and each
    has one image in the octant.  Row m - 1 holds the mirrors of row m + 1
    and is never interior in a box, as node_rule never makes a face row
    interior.  On other grids (n = 35, 67, 131, ...) linspace rounds the
    coordinates asymmetrically, a node's mirror need not be a node with the
    same radius, and the check streams the whole ball.

    It differs from evaluating the operator on the barrier's values by
    rounding alone (mostly the cancellation in D_i^2), up to about 2e-12
    relative at n = 129.
    """
    h = grid.spacing
    if exclusion_radius < 2.0 * h * (1.0 - 1e-12):
        raise ValueError(f"exclusion_radius must be >= 2h = {2 * h}, got {exclusion_radius}")
    if grid.shape != "ball":
        raise ValueError("the barrier uses the distance to the unit sphere; ball grids only")
    cases = list(cases)
    if not cases:
        return []
    x2, n, dim = grid.axis_coords() ** 2, grid.nodes_per_axis, grid.dimension
    # the first plane and row that the boxes' inner nodes take: on a
    # mirror-symmetric grid the middle one, which with every node beyond it
    # holds a mirror image of each node (row m - 1 is their halo), else 1
    m = (n - 1) // 2 if mirror_axes(grid) else 1
    # a slab's height counts whole planes of the grid, so an octant's slab
    # holds no more nodes than the whole grid's; tiles count the box's rows,
    # at most width (m - 1 .. n - 1) along axes 1 .. N-1
    height = max(1, _SLAB_ELEMENTS // n ** (dim - 1))
    rows = width = n - m + 1  # one tile per slab, unless a box's plane is larger
    if width ** (dim - 1) > _SLAB_ELEMENTS:  # a tile's box: 3 planes by its rows and 2 halo rows
        rows = max(1, _SLAB_ELEMENTS // (3 * width ** (dim - 2)))
    maxima = [[] for _ in cases]
    # planes 0 and n-1 lie on faces of the cube, so only halos; every plane
    # between them holds its axis node |x| = |x_0| < 1, so no box is empty
    for first in range(m, n - 1, height):
        planes = slice(first - 1, min(first + height, n - 1) + 1)
        # rounding is monotone in each term of a sum, so along axis ax the
        # least r2 of a row adds the least x_i^2 of the planes and other axes
        least = [x2[planes].min(keepdims=True)] + [x2.min(keepdims=True)] * (dim - 1)
        box = (planes,) + tuple(
            _span(radius_squared(least[:ax] + [x2] + least[ax + 1:]).ravel() <= 1.0, m - 1)
            for ax in range(1, dim))
        for tile in _tiles(box, rows):
            r2 = radius_squared([x2[axis] for axis in tile])
            closed, interior = node_rule(r2)
            sel = interior[1:-1] & (r2[1:-1] >= exclusion_radius**2)
            if not sel.any():
                continue
            profile = _profile(r2)
            profile[~closed] = np.nan
            # the factors cover the inner planes, as sel does
            sel = sel.reshape(-1)
            factors = [(coef[sel], second[sel])
                       for coef, second in nondivergence_factors(profile, h)]
            for params, found in zip(cases, maxima):
                total = np.zeros(len(factors[0][0]))
                for coef, second in factors:
                    term = coef ** (params.p - 2.0)
                    term *= second
                    total += term
                found.append(total.max())
    if not maxima[0]:
        raise ValueError("no interior nodes outside the exclusion radius")
    # np.max, not max: a NaN maximum must not be dropped
    return [float((params.p - 1.0) * (params.M ** (params.p - 1.0) * np.max(found) + f_sup))
            for params, found in zip(cases, maxima)]


def supersolution_tolerance(grid: GridSpec, params: BarrierParams, f_sup: float) -> float:
    """Discretization allowance 10 h^{1/2} scale for verify_supersolution."""
    margin_scale = params.M ** (params.p - 1.0) * 2.0 ** (-2.0 * params.p) \
        * grid.dimension ** (1.0 - params.p / 2.0)
    scale = (params.p - 1.0) * max(f_sup, margin_scale)
    return 10.0 * np.sqrt(grid.spacing) * scale


def linf_bound_check(u: ScalarField, prob: EnergyProblem, solver_tol: float = 1e-6):
    """Explicit sup-norm bound |u| <= sup|boundary| + M/2 for a solution u of
    `prob`: sup|boundary| over prob.boundary_values(), which raises ValueError
    unless they are finite, and M = min_barrier_M(p, N, sup|f| on the interior).

    Returns (bound, satisfied) where satisfied allows solver_tol slack.
    """
    bvals = prob.boundary_values()
    boundary_sup = float(np.abs(bvals).max()) if len(bvals) else 0.0
    bound = boundary_sup + 0.5 * min_barrier_M(prob.p, prob.grid.dimension,
                                               prob.f.sup_norm("interior"))
    satisfied = bool(u.sup_norm() <= bound + solver_tol)
    return bound, satisfied


@dataclass(frozen=True)
class ComparisonResult:
    premise_holds: bool
    conclusion_holds: bool
    operator_gap: float  # min over interior of A_div(u) - A_div(v)
    boundary_gap: float  # max over boundary of u - v
    interior_gap: float  # max over interior of u - v
    conclusion_tol: float


def comparison_check(u: ScalarField, v: ScalarField, p: float, tol: float) -> ComparisonResult:
    """Ordered operator values plus boundary ordering should order the fields.

    Premise: A_div(u) >= A_div(v) - tol on interior and u <= v + tol on the
    boundary band.  Conclusion: u <= v + tol' on interior, tol' scaling tol
    by the grid diameter in stencil-graph distance (slack for solver
    residuals; the exact discrete principle corresponds to tol = 0).
    """
    if u.grid != v.grid:
        raise ValueError("fields must share a grid")
    grid = u.grid
    au = apply_divergence(u, p)
    av = apply_divergence(v, p)
    imask = interior_mask(grid)
    bmask = boundary_mask(grid)
    operator_gap = float((au.values[imask] - av.values[imask]).min())
    boundary_gap = float((u.values[bmask] - v.values[bmask]).max())
    interior_gap = float((u.values[imask] - v.values[imask]).max())
    diam = grid.dimension * (grid.nodes_per_axis - 1)
    conclusion_tol = tol * diam
    premise = operator_gap >= -tol and boundary_gap <= tol
    conclusion = interior_gap <= conclusion_tol
    return ComparisonResult(premise, conclusion, operator_gap, boundary_gap,
                            interior_gap, conclusion_tol)
