"""Discrete anisotropic p-degenerate operators in divergence and non-divergence form.

With phi_p(t) = |t|^{p-2} t and h the grid spacing, the two forms at an
interior node are

* divergence:       sum_i [phi_p(D_i^+ u) - phi_p(D_i^- u)] / h
* non-divergence:   (p-1) sum_i |D_i^c u|^{p-2} D_i^2 u

using forward/backward, central, and second differences along each axis.
Both are positively homogeneous of degree p-1 and vanish on affine fields.
The divergence form is the exact gradient (per unit cell volume) of the
energy in pseudoplap.solver, so solver stationarity means a small divergence
residual by construction.
"""

from __future__ import annotations

import numpy as np

from .grid import ScalarField, interior_mask, nonexterior_mask

FORMS = ("divergence", "nondivergence")


def phi_p(t: np.ndarray, p: float) -> np.ndarray:
    """Odd monotone kernel |t|^{p-2} t; phi_p(0) = 0 for p > 2."""
    return np.abs(t) ** (p - 2.0) * t


def _check_apply_args(u: ScalarField, p: float) -> None:
    if not p > 2:
        raise ValueError(f"p must be > 2, got {p}")
    mask = nonexterior_mask(u.grid)
    bad = mask & ~np.isfinite(u.values)
    if bad.any():
        node = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"stencil would touch unset node {node}")


def _core(ndim: int, axis: int):
    sl = [slice(None)] * ndim
    sl[axis] = slice(1, -1)
    return tuple(sl)


def apply_divergence(u: ScalarField, p: float) -> ScalarField:
    """Two-point-flux divergence form on interior nodes; NaN elsewhere."""
    _check_apply_args(u, p)
    grid = u.grid
    h = grid.spacing
    out = np.zeros(grid.node_shape)
    for ax in range(grid.dimension):
        flux = phi_p(np.diff(u.values, axis=ax) / h, p)
        out[_core(grid.dimension, ax)] += np.diff(flux, axis=ax) / h
    out[~interior_mask(grid)] = np.nan
    return ScalarField(grid, out)


def apply_nondivergence(u: ScalarField, p: float) -> ScalarField:
    """(p-1) sum_i |D_i^c u|^{p-2} D_i^2 u on interior nodes; NaN elsewhere.

    Where the central difference vanishes the i-th term is 0, the continuous
    extension of the degenerate coefficient for p > 2.
    """
    _check_apply_args(u, p)
    grid = u.grid
    h = grid.spacing
    v = u.values
    out = np.zeros(grid.node_shape)
    for ax in range(grid.dimension):
        lo = [slice(None)] * grid.dimension
        hi = [slice(None)] * grid.dimension
        mid = [slice(None)] * grid.dimension
        lo[ax], mid[ax], hi[ax] = slice(None, -2), slice(1, -1), slice(2, None)
        vl, vm, vh = v[tuple(lo)], v[tuple(mid)], v[tuple(hi)]
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
        out[_core(grid.dimension, ax)] += coef
        del coef, second
    out *= p - 1.0
    out[~interior_mask(grid)] = np.nan
    return ScalarField(grid, out)


def _apply(u: ScalarField, p: float, form: str) -> ScalarField:
    if form == "divergence":
        return apply_divergence(u, p)
    if form == "nondivergence":
        return apply_nondivergence(u, p)
    raise ValueError(f"form must be one of {FORMS}, got {form!r}")


def consistency_residual(u: ScalarField, f: ScalarField, p: float, form: str) -> float:
    """Sup over interior nodes of |A_form(u) - (p-1) f|."""
    op = _apply(u, p, form)
    mask = interior_mask(u.grid)
    res = np.abs(op.values[mask] - (p - 1.0) * f.values[mask])
    return float(res.max())


def homogeneity_check(u: ScalarField, p: float, lam: float, form: str) -> float:
    """Sup-norm defect of degree-(p-1) homogeneity, |A(lam u) - lam^{p-1} A(u)|.

    Contract: at most 1e-10 * max(1, lam^{p-1} * sup|A(u)|).
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    scaled = ScalarField(u.grid, lam * u.values)
    a_scaled = _apply(scaled, p, form)
    a_plain = _apply(u, p, form)
    mask = interior_mask(u.grid)
    diff = np.abs(a_scaled.values[mask] - lam ** (p - 1.0) * a_plain.values[mask])
    return float(diff.max())
