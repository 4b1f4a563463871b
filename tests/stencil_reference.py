"""The sliced stencil kernels, kept as the bitwise reference for the flat-stride
ones in `pseudoplap.operators` and `pseudoplap.solver._Workspace`.

Along axis ax the slices (lo, hi, core) drop the last, the first, and both
end entries: a[hi] - a[lo] of a node array are its differences across the
links, one per link in the compact layout (n - 1 along ax); of a link array
they are backward differences, which land on the nodes a[core].  Each kernel
allocates its temporaries, as the flat ones do not.
"""

import numpy as np

from pseudoplap.grid import GridSpec, ScalarField, interior_mask, nonexterior_mask
from pseudoplap.operators import phi_p


def axis_slices(ndim, ax):
    lo, hi, core = ([slice(None)] * ndim for _ in range(3))
    lo[ax], hi[ax], core[ax] = slice(None, -1), slice(1, None), slice(1, -1)
    return tuple(lo), tuple(hi), tuple(core)


def link_masks(grid: GridSpec):
    """Per axis, the compact links whose two end nodes are both non-exterior."""
    ok = nonexterior_mask(grid)
    masks = []
    for ax in range(grid.dimension):
        lo, hi, _ = axis_slices(grid.dimension, ax)
        masks.append(ok[lo] & ok[hi])
    return tuple(masks)


def axis_difference(a, ax):
    lo, hi, _ = axis_slices(a.ndim, ax)
    return a[hi] - a[lo]


def link_differences(v, ax, h, off):
    d = axis_difference(v, ax)
    d /= h
    np.copyto(d, 0.0, where=off)
    return d


def add_divergence(out, flux, ax, h):
    _, _, core = axis_slices(out.ndim, ax)
    div = axis_difference(flux, ax)
    div /= h
    out[core] += div


def apply_divergence(u: ScalarField, p: float) -> ScalarField:
    grid = u.grid
    h = grid.spacing
    out = np.zeros(grid.node_shape)
    for ax, links in enumerate(link_masks(grid)):
        flux = phi_p(link_differences(u.values, ax, h, ~links), p)
        add_divergence(out, flux, ax, h)
    out[~interior_mask(grid)] = np.nan
    return ScalarField(grid, out)


def nondivergence_factors(v, h):
    """Per axis in turn, (core, |D_i^c v|, D_i^2 v) on the nodes v[core]."""
    for ax in range(v.ndim):
        lo, hi, core = axis_slices(v.ndim, ax)
        vl, vm, vh = v[lo][lo], v[core], v[hi][hi]  # v[i-1], v[i], v[i+1]
        coef = vh - vl
        coef /= 2.0 * h
        np.abs(coef, out=coef)
        second = vh + vl
        second -= vm
        second -= vm
        second /= h * h
        yield core, coef, second


def add_nondivergence(out, v, p, h):
    for core, coef, second in nondivergence_factors(v, h):
        coef **= p - 2.0
        coef *= second
        out[core] += coef


def apply_nondivergence(u: ScalarField, p: float) -> ScalarField:
    grid = u.grid
    out = np.zeros(grid.node_shape)
    add_nondivergence(out, u.values, p, grid.spacing)
    out *= p - 1.0
    out[~interior_mask(grid)] = np.nan
    return ScalarField(grid, out)


class Workspace:
    """The sliced `_Workspace`: energy, residual, Hessian product and Newton step."""

    def __init__(self, prob):
        g = prob.grid
        self.p = prob.p
        self.h = g.spacing
        self.hN = self.h**g.dimension
        self.interior = interior_mask(g)
        self.outside = ~self.interior
        self.n_interior = int(self.interior.sum())
        self.f = prob.f.values
        self.off_links = tuple(~m for m in link_masks(g))
        self.v = None
        self.weights = [np.empty(m.shape) for m in self.off_links]
        self.resid, self.step, self.inv_diag, self.cg_dir, self.spare = (
            np.zeros(g.node_shape) for _ in range(5))

    def fill_weights(self, v):
        self.v = v
        diffs = []
        for ax, (off, w) in enumerate(zip(self.off_links, self.weights)):
            d = link_differences(v, ax, self.h, off)
            np.abs(d, out=w)
            w **= self.p - 2.0
            diffs.append(d)
        return diffs

    def energy(self, v):
        p = self.p
        link_sum = 0.0
        for d, w in zip(self.fill_weights(v), self.weights):
            d *= d
            link_sum += float(np.vdot(w, d))
        fu = float(np.where(self.interior, self.f * v, 0.0).sum())
        return (link_sum / p + (p - 1.0) * fu) * self.hN

    def residual(self):
        out = self.resid
        out.fill(0.0)
        for ax, (off, w) in enumerate(zip(self.off_links, self.weights)):
            flux = link_differences(self.v, ax, self.h, off)
            flux *= w
            add_divergence(out, flux, ax, self.h)
        out -= (self.p - 1.0) * self.f
        out[self.outside] = 0.0
        return out

    def _hess_apply(self, s, out):
        out.fill(0.0)
        for ax, c in enumerate(self.weights):
            _, _, core = axis_slices(out.ndim, ax)
            flux = axis_difference(s, ax)
            flux *= c
            out[core] -= axis_difference(flux, ax)
        np.copyto(out, 0.0, where=self.outside)

    def _exact_1d(self, r, t, out):
        """z = H^-1 r in 1D on the whole grid: the link flux q = c D z falls
        by r across each interior node, from the q0 that makes z vanish at
        both end nodes; z is the running sum of q t (t = 1/c) from 0 at the
        last node."""
        lo, _, _ = axis_slices(1, 0)
        q = np.cumsum(r[lo])
        q0 = float(np.vdot(q, t)) / float(t.sum())
        q = q0 - q
        q *= t
        out[0] = 0.0
        np.cumsum(q, out=out[1:])
        out -= out[-1]
        np.copyto(out, 0.0, where=self.outside)

    def newton_step(self, reg, rtol):
        scale = (self.p - 1.0) / (self.h * self.h)
        diag = self.inv_diag
        diag.fill(0.0)
        for ax, (off, c) in enumerate(zip(self.off_links, self.weights)):
            lo, hi, core = axis_slices(diag.ndim, ax)
            c += reg
            c *= scale
            np.copyto(c, 0.0, where=off)
            diag[core] += c[lo] + c[hi]
        np.divide(1.0, diag, out=diag, where=self.interior)
        np.copyto(diag, 0.0, where=self.outside)
        if diag.ndim == 1:  # the exact inverse of H, from its link weights
            t = 1.0 / self.weights[0]

            def precondition(r, out):
                self._exact_1d(r, t, out)
        else:
            def precondition(r, out):
                np.multiply(r, diag, out=out)

        s, res, d, work = self.step, self.resid, self.cg_dir, self.spare
        s.fill(0.0)
        precondition(res, d)
        rz = float(np.vdot(res, d))
        stop = rtol * rtol * float(np.vdot(res, res))
        k = 0
        while k < self.n_interior:
            k += 1
            self._hess_apply(d, work)
            curv = float(np.vdot(d, work))
            if not curv > 0.0:
                raise RuntimeError(f"PCG: curvature {curv!r} is not positive")
            alpha = rz / curv
            work *= alpha
            res -= work
            np.multiply(d, alpha, out=work)
            s += work
            if float(np.vdot(res, res)) <= stop:
                break
            precondition(res, work)
            rz_next = float(np.vdot(res, work))
            d *= rz_next / rz
            d += work
            rz = rz_next
        self._hess_apply(s, work)
        return k, float(np.vdot(s, work))
