"""Reference solver for cross-checks: Armijo gradient descent in a diagonal metric.

This is the method `solve_dirichlet` used before inexact Newton replaced it.
Its kernels are written out here from the energy's definition, apart from the
solver's: links as slices of the node arrays with their own masks, |D_i u|^p
taken directly, the residual as a divergence of fluxes, and a scaling by the
exact Hessian diagonal floored at 1.  It needs about 4x more iterations per
grid refinement, so it suits small grids only.
"""

import numpy as np

from pseudoplap.grid import interior_mask, nonexterior_mask
from pseudoplap.solver import ARMIJO_C, BACKTRACK_FACTOR, MAX_BACKTRACKS, EnergyProblem
from pseudoplap.solver import SolveConfig, _initial_values

_EPS = float(np.finfo(float).eps)


def _axis_slices(ndim, ax):
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[ax], hi[ax] = slice(None, -1), slice(1, None)
    return tuple(lo), tuple(hi)


def _core(ndim, ax):
    core = [slice(None)] * ndim
    core[ax] = slice(1, -1)
    return tuple(core)


class _Kernels:
    def __init__(self, prob: EnergyProblem):
        g = prob.grid
        self.p, self.h, self.ndim = prob.p, g.spacing, g.dimension
        self.hN = self.h**g.dimension
        self.interior = interior_mask(g)
        ok = nonexterior_mask(g)
        # per axis, the links whose two end nodes are both non-exterior
        self.links = [ok[lo] & ok[hi] for lo, hi in
                      (_axis_slices(self.ndim, ax) for ax in range(self.ndim))]
        self.f_int = np.where(self.interior, prob.f.values, 0.0)

    def energy(self, v):
        p, h = self.p, self.h
        link_sum = 0.0
        for ax in range(self.ndim):
            lo, hi = _axis_slices(self.ndim, ax)
            d = (v[hi] - v[lo]) / h
            link_sum += float(np.where(self.links[ax], np.abs(d) ** p, 0.0).sum())
        fu = float((self.f_int * np.where(self.interior, v, 0.0)).sum())
        return (link_sum / p + (p - 1.0) * fu) * self.hN

    def residual(self, v):
        """A_div(v) - (p-1) f on interior nodes, zero elsewhere."""
        p, h = self.p, self.h
        out = np.zeros_like(v)
        for ax in range(self.ndim):
            lo, hi = _axis_slices(self.ndim, ax)
            d = (v[hi] - v[lo]) / h
            flux = np.where(self.links[ax], np.abs(d) ** (p - 2.0) * d, 0.0)
            out[_core(self.ndim, ax)] += (flux[hi] - flux[lo]) / h
        out -= (p - 1.0) * self.f_int
        out[~self.interior] = 0.0
        return out

    def inv_scaling(self, v):
        """Per-node Hessian diagonal per unit volume, floored at 1."""
        p, h = self.p, self.h
        total = np.zeros_like(v)
        for ax in range(self.ndim):
            lo, hi = _axis_slices(self.ndim, ax)
            dabs = np.where(self.links[ax], np.abs((v[hi] - v[lo]) / h), 0.0) ** (p - 2.0)
            total[_core(self.ndim, ax)] += dabs[lo] + dabs[hi]
        return np.maximum(1.0, (p - 1.0) * total / (h * h))


def descent_solve(prob: EnergyProblem, cfg: SolveConfig):
    """Minimize J by scaled gradient descent; returns (values, iterations, converged).

    Same stop rule as `solve_dirichlet` (sup|residual| <= grad_tol), same
    Armijo test with the same rounding slack; stops early when no step can
    be certified.
    """
    ws = _Kernels(prob)
    u = _initial_values(prob)
    J_u = ws.energy(u)
    r_u = ws.residual(u)
    converged = float(np.abs(r_u).max()) <= cfg.grad_tol
    iterations = 0
    while not converged and iterations < cfg.max_iters:
        iterations += 1
        d = r_u / ws.inv_scaling(u)
        slope = -ws.hN * float((r_u * d).sum())
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            z = u + alpha * d
            J_z = ws.energy(z)
            if J_z <= J_u + ARMIJO_C * alpha * slope + 8.0 * _EPS * max(abs(J_u), abs(J_z)):
                break
            alpha *= BACKTRACK_FACTOR
        else:
            break  # cannot certify descent at rounding level
        u, J_u = z, J_z
        r_u = ws.residual(u)
        converged = float(np.abs(r_u).max()) <= cfg.grad_tol
    return u, iterations, converged
