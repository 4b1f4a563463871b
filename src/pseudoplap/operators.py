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

from .grid import ScalarField, axis_strides, interior_mask, off_links


def phi_p(t: np.ndarray, p: float) -> np.ndarray:
    """Odd monotone kernel |t|^{p-2} t; phi_p(0) = 0 for p > 2."""
    return np.abs(t) ** (p - 2.0) * t


def check_exponent(p: float) -> None:
    """Raise ValueError unless p > 2 and p is finite: the library's one rule."""
    if not p > 2:
        raise ValueError(f"p must be > 2, got {p}")
    if not np.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")


def _check_apply_args(u: ScalarField, p: float) -> None:
    check_exponent(p)
    u.validate_finite()


def axis_difference(a: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """out = a[s:] - a[:-s] over flat arrays (see grid.axis_strides): across each
    link of stride s for a node array; for a link array, its backward
    differences, which land on the nodes s .. len(a) - 1."""
    return np.subtract(a[s:], a[:-s], out=out)


def link_differences(v: np.ndarray, s: int, h: float, off: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """D v = (v[j + s] - v[j]) / h on each flat link j of stride s, into out;
    0 on the links `off` (wraps, and links that touch an exterior node, where
    v may be NaN)."""
    axis_difference(v, s, out)
    out /= h
    np.copyto(out, 0.0, where=off)
    return out


def add_divergence(out: np.ndarray, flux: np.ndarray, s: int, h: float,
                   scratch: np.ndarray) -> None:
    """out[j] += (flux[j] - flux[j - s]) / h for j < len(flux): the
    divergence of a link flux of stride s, with no flux before the first
    link (j < s).  The nodes at the ends of rows get a term from a wrap
    link, and on the whole grid those and the nodes j < s lie on faces of
    the cube, never in the interior, and callers mask them; on a mirror box
    (solver) the first node along a reduced axis lies on the mirror plane,
    and its one link, counted twice, is its whole divergence.  `scratch`
    holds at least len(flux) values."""
    div = scratch[:len(flux)]
    np.divide(flux[:s], h, out=div[:s])
    axis_difference(flux, s, div[s:])
    div[s:] /= h
    out[:len(flux)] += div


def apply_divergence(u: ScalarField, p: float) -> ScalarField:
    """Two-point-flux divergence form on interior nodes; NaN elsewhere."""
    _check_apply_args(u, p)
    grid = u.grid
    h = grid.spacing
    v = u.values.reshape(-1)
    out, scratch = np.zeros(v.size), np.empty(v.size)
    for s, off in zip(axis_strides(grid.node_shape), off_links(grid, ())):
        flux = phi_p(link_differences(v, s, h, off, np.empty(off.size)), p)
        add_divergence(out, flux, s, h, scratch)
    out = out.reshape(grid.node_shape)
    out[~interior_mask(grid)] = np.nan
    return ScalarField(grid, out)


def nondivergence_factors(v: np.ndarray, h: float):
    """Per axis of the C-ordered array v in turn, yield (|D_i^c v|, D_i^2 v),
    flat over the nodes s0 .. size - s0 - 1 of the inner planes along axis 0
    (entry k is node k + s0, s0 the axis-0 stride).  The two are views of
    buffers that the next axis overwrites, so callers use or copy them
    before they advance.

    Flat, node j takes v[j - s], v[j], v[j + s] for the axis stride s.  That
    is right on every node with a neighbour on both sides along every axis;
    the others get terms from wrapped neighbours, and callers mask them.
    Both factors are symmetric in v[j - s] and v[j + s] bit for bit (the
    second difference is (v[j+s] + v[j-s]) - v[j] - v[j]), so a field
    that is mirror-symmetric along an axis gets mirror-symmetric factors.
    """
    vf = v.reshape(-1)
    strides = axis_strides(v.shape)
    s0 = strides[0]
    m = max(vf.size - 2 * s0, 0)
    coef_buf, second_buf = np.empty(m), np.empty(m)
    for s in strides:
        # v[j-s], v[j], v[j+s]
        vl, vm, vh = vf[s0 - s:s0 - s + m], vf[s0:s0 + m], vf[s0 + s:s0 + s + m]
        coef = np.subtract(vh, vl, out=coef_buf)
        coef /= 2.0 * h
        np.abs(coef, out=coef)
        second = np.add(vh, vl, out=second_buf)
        second -= vm
        second -= vm
        second /= h * h
        yield coef, second


def apply_nondivergence(u: ScalarField, p: float) -> ScalarField:
    """(p-1) sum_i |D_i^c u|^{p-2} D_i^2 u on interior nodes; NaN elsewhere.

    Where the central difference vanishes the i-th term is 0, the continuous
    extension of the degenerate coefficient for p > 2.
    """
    _check_apply_args(u, p)
    grid = u.grid
    out = np.zeros(grid.node_shape)
    of = out.reshape(-1)
    s0 = axis_strides(grid.node_shape)[0]
    for coef, second in nondivergence_factors(u.values, grid.spacing):
        coef **= p - 2.0
        coef *= second
        of[s0:s0 + coef.size] += coef
    out *= p - 1.0
    out[~interior_mask(grid)] = np.nan
    return ScalarField(grid, out)
