"""Discrete anisotropic p-degenerate operators in divergence and non-divergence form.

With phi_p(t) = |t|^{p-2} t and h the grid spacing, the two forms at an
interior node are

* divergence:       sum_i [phi_p(D_i^+ u) - phi_p(D_i^- u)] / h
* non-divergence:   (p-1) sum_i |D_i^c u|^{p-2} D_i^2 u

using forward/backward, central, and second differences along each axis.
Both are positively homogeneous of degree p-1 and vanish on affine fields.
The divergence form is the exact gradient (per unit cell volume) of the
energy in pseudoplap.solver, which is built on the same link kernels, so
solver stationarity means a small divergence residual by construction.
"""

from __future__ import annotations

import numpy as np

from .grid import ScalarField, axis_slices, interior_mask, link_masks


def phi_p(t: np.ndarray, p: float) -> np.ndarray:
    """Odd monotone kernel |t|^{p-2} t; phi_p(0) = 0 for p > 2."""
    return np.abs(t) ** (p - 2.0) * t


def _check_apply_args(u: ScalarField, p: float) -> None:
    if not p > 2:
        raise ValueError(f"p must be > 2, got {p}")
    u.validate_finite()


def axis_difference(a: np.ndarray, ax: int) -> np.ndarray:
    """a[hi] - a[lo] along ax (see grid.axis_slices): across each link for a
    node array; for a link array, its backward differences on the core nodes."""
    lo, hi, _ = axis_slices(a.ndim, ax)
    return a[hi] - a[lo]


def link_differences(v: np.ndarray, ax: int, h: float, off: np.ndarray) -> np.ndarray:
    """D_i v = (v[hi] - v[lo]) / h along ax, one per link; 0 on the links `off`
    (those that touch an exterior node, where v may be NaN)."""
    d = axis_difference(v, ax)
    d /= h
    np.copyto(d, 0.0, where=off)
    return d


def add_divergence(out: np.ndarray, flux: np.ndarray, ax: int, h: float) -> None:
    """out[core] += (flux[hi] - flux[lo]) / h: the divergence along ax of a
    link flux, on the nodes that have a link on both sides."""
    _, _, core = axis_slices(out.ndim, ax)
    div = axis_difference(flux, ax)
    div /= h
    out[core] += div


def apply_divergence(u: ScalarField, p: float) -> ScalarField:
    """Two-point-flux divergence form on interior nodes; NaN elsewhere."""
    _check_apply_args(u, p)
    grid = u.grid
    h = grid.spacing
    out = np.zeros(grid.node_shape)
    for ax, links in enumerate(link_masks(grid)):
        flux = phi_p(link_differences(u.values, ax, h, ~links), p)
        add_divergence(out, flux, ax, h)
    out[~interior_mask(grid)] = np.nan
    return ScalarField(grid, out)


def add_nondivergence(out: np.ndarray, v: np.ndarray, p: float, h: float) -> None:
    """out[core] += |D_i^c v|^{p-2} D_i^2 v along each axis in turn, on the nodes
    with a neighbour on both sides; the factor p-1 is left to the caller."""
    for ax in range(v.ndim):
        lo, hi, core = axis_slices(v.ndim, ax)
        vl, vm, vh = v[lo][lo], v[core], v[hi][hi]  # v[i-1], v[i], v[i+1]
        # in place: two temporaries per axis instead of five, same values bit for bit
        coef = vh - vl
        coef /= 2.0 * h
        np.abs(coef, out=coef)
        coef **= p - 2.0
        second = 2.0 * vm
        np.subtract(vh, second, out=second)
        second += vl
        second /= h * h
        coef *= second
        out[core] += coef
        del coef, second


def apply_nondivergence(u: ScalarField, p: float) -> ScalarField:
    """(p-1) sum_i |D_i^c u|^{p-2} D_i^2 u on interior nodes; NaN elsewhere.

    Where the central difference vanishes the i-th term is 0, the continuous
    extension of the degenerate coefficient for p > 2.
    """
    _check_apply_args(u, p)
    grid = u.grid
    out = np.zeros(grid.node_shape)
    add_nondivergence(out, u.values, p, grid.spacing)
    out *= p - 1.0
    out[~interior_mask(grid)] = np.nan
    return ScalarField(grid, out)
