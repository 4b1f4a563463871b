"""Dirichlet solver by minimization of the convex grid energy.

The energy of a field u with fixed boundary values is

    J(u) = (1/p) sum_links |D_i^+ u|^p h^N  +  (p-1) sum_interior f u h^N,

links being forward differences whose two endpoints are both non-exterior.
Its exact gradient at an interior node is [-A_div(u) + (p-1) f] h^N with
A_div the divergence-form operator, so driving the gradient per unit volume
to zero solves the discrete equation A_div(u) = (p-1) f.

The minimizer is found by an inexact Newton method.  Each step solves
H s = r for the residual r = A_div(u) - (p-1) f, where

    H s = -div((p-1) (|D_i u|^(p-2) + reg) D_i s)      per link

is the energy Hessian per unit volume with its degenerate link weights lifted
by reg = clip(sup|r|, 1e-12, 1e-2).  Conjugate gradients preconditioned by
the diagonal of H solve it to the relative tolerance min(0.5, sqrt(sup|r|)),
an Eisenstat-Walker forcing term, so far-off steps stay cheap and the last
ones converge superlinearly.  The step is taken with Armijo backtracking on J
from unit step.  Accepted iterates have non-increasing energy up to a
floating-point rounding slack of a few ulps of J, which keeps the line search
honest when the target residual sits near the arithmetic floor.

A solve stops for one of three reasons, kept in `SolveReport.reason`:
"converged" when sup|r| <= grad_tol; "max_iters" when it runs out of Newton
steps; "stalled" at the rounding floor, when a step changes J by no more
than the rounding slack without lowering sup|r| (that step is not taken), or
when the line search cannot certify any step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, axis_slices, boundary_mask, interior_mask, link_masks
from .grid import node_coordinates, nonexterior_mask
from .operators import add_divergence, axis_difference, link_differences

_EPS = float(np.finfo(float).eps)
# Armijo line search: sufficient decrease, step shrink, halvings before "stalled".
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60


@dataclass
class EnergyProblem:
    """One Dirichlet instance: grid, exponent, right-hand side, boundary data."""

    grid: GridSpec
    p: float
    f: ScalarField
    boundary_data: object  # callable points (k, N) -> (k,)

    def __post_init__(self):
        if not self.p > 2:
            raise ValueError(f"p must be > 2, got {self.p}")
        if self.f.grid != self.grid:
            raise ValueError("right-hand side lives on a different grid")
        mask = interior_mask(self.grid)
        if not np.isfinite(self.f.values[mask]).all():
            raise ValueError("right-hand side not finite on all interior nodes")

    def boundary_values(self) -> np.ndarray:
        """Boundary data evaluated on the boundary band, in lexicographic node order."""
        idx = np.argwhere(boundary_mask(self.grid))
        vals = np.asarray(self.boundary_data(node_coordinates(self.grid, idx)), dtype=float)
        if vals.shape != (len(idx),) or not np.isfinite(vals).all():
            raise ValueError("boundary data must be finite on every boundary node")
        return vals


@dataclass
class SolveConfig:
    grad_tol: float = 1e-8  # sup-norm of the energy gradient per unit cell volume
    max_iters: int = 1_000  # Newton steps
    initial_field: ScalarField | None = None  # None: the boundary mean extended inside

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveReport:
    converged: bool
    reason: str  # "converged", "max_iters" or "stalled"
    iterations: int  # Newton steps
    inner_iterations: int  # PCG iterations over all Newton steps
    backtracks: int  # step halvings over all line searches
    final_energy: float
    final_grad_sup: float  # sup |gradient| / h^N == sup |A_div(u) - (p-1) f|
    wall_time: float


class _Workspace:
    """Raw-array kernels and buffers shared by the public energy/gradient/solver entry points.

    `fill_weights(v)` keeps v and its link weights |D_i v|^(p-2); `energy(v)`
    does so on its way to J(v).  `residual()` reuses them, and `newton_step`
    turns the weights into the Hessian's, so the power is taken once per
    evaluated field.  The buffers are allocated once per solve; `spare`
    serves PCG as scratch and, between Newton steps, the line search as its
    trial point.
    """

    def __init__(self, prob: EnergyProblem):
        g = prob.grid
        self.p = prob.p
        self.h = g.spacing
        self.hN = self.h**g.dimension
        self.interior = interior_mask(g)
        self.outside = ~self.interior
        self.n_interior = int(self.interior.sum())
        self.f = prob.f.values  # finite on the interior; may be NaN elsewhere
        self.off_links = tuple(~m for m in link_masks(g))
        self.v = None
        self.weights = [np.empty(m.shape) for m in self.off_links]
        self.resid, self.step, self.inv_diag, self.cg_dir, self.spare = (
            np.zeros(g.node_shape) for _ in range(5))

    def fill_weights(self, v: np.ndarray) -> list:
        """Keep v and write its link weights |D_i v|^(p-2) for `residual` and
        `newton_step`; returns the differences D_i v, one array per axis."""
        self.v = v
        diffs = []
        for ax, (off, w) in enumerate(zip(self.off_links, self.weights)):
            d = link_differences(v, ax, self.h, off)
            np.abs(d, out=w)
            w **= self.p - 2.0
            diffs.append(d)
        return diffs

    def energy(self, v: np.ndarray) -> float:
        """J(v); keeps v and its link weights, as `fill_weights` does."""
        p = self.p
        link_sum = 0.0
        for d, w in zip(self.fill_weights(v), self.weights):
            d *= d
            link_sum += float(np.vdot(w, d))  # |d|^(p-2) d^2 = |d|^p
        fu = float(np.where(self.interior, self.f * v, 0.0).sum())
        return (link_sum / p + (p - 1.0) * fu) * self.hN

    def residual(self) -> np.ndarray:
        """A_div(v) - (p-1) f on interior nodes, zero elsewhere (= -gradient/h^N),
        for the v of the last `fill_weights` or `energy` call; written into
        `self.resid`."""
        out = self.resid
        out.fill(0.0)
        for ax, (off, w) in enumerate(zip(self.off_links, self.weights)):
            flux = link_differences(self.v, ax, self.h, off)
            flux *= w
            add_divergence(out, flux, ax, self.h)
        out -= (self.p - 1.0) * self.f
        out[self.outside] = 0.0
        return out

    def _hess_apply(self, s: np.ndarray, out: np.ndarray) -> None:
        out.fill(0.0)
        for ax, c in enumerate(self.weights):
            _, _, core = axis_slices(out.ndim, ax)
            flux = axis_difference(s, ax)
            flux *= c
            out[core] -= axis_difference(flux, ax)
        np.copyto(out, 0.0, where=self.outside)

    def newton_step(self, reg: float, rtol: float) -> tuple:
        """Solve H s = r into `self.step` by Jacobi-preconditioned CG, r being the
        last `residual()`; returns (CG iterations, r.s).

        H is the Hessian per unit volume at the v of the last `fill_weights`
        or `energy` call, with reg added to every link weight; the weights are
        overwritten by H's, and `self.resid` by CG's residual.  H is symmetric
        positive definite on the interior, so a curvature that is not positive
        means non-finite input and raises.  CG starts from s = 0 and stops once
        |r - H s| <= rtol |r| in the 2-norm, or after one iteration per
        interior node.  Every CG iterate s has r.s = s.H s > 0, so it is a
        descent direction for J.
        """
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

        # work holds H d, then the preconditioned residual z
        s, res, d, work = self.step, self.resid, self.cg_dir, self.spare
        s.fill(0.0)
        np.multiply(res, diag, out=d)
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
            np.multiply(res, diag, out=work)
            rz_next = float(np.vdot(res, work))
            d *= rz_next / rz
            d += work
            rz = rz_next
        self._hess_apply(s, work)
        return k, float(np.vdot(s, work))


def energy(u: ScalarField, prob: EnergyProblem) -> float:
    """Grid energy J(u); raises if a needed stencil value is unset."""
    u.validate_finite()
    return _Workspace(prob).energy(u.values)


def energy_gradient(u: ScalarField, prob: EnergyProblem) -> ScalarField:
    """Exact discrete gradient dJ/du = [-A_div(u) + (p-1) f] h^N on interior nodes."""
    u.validate_finite()
    ws = _Workspace(prob)
    ws.fill_weights(u.values)
    g = -ws.residual() * ws.hN
    g[~ws.interior] = np.nan
    return ScalarField(prob.grid, g)


def _initial_values(prob: EnergyProblem, cfg: SolveConfig) -> np.ndarray:
    grid = prob.grid
    bmask = boundary_mask(grid)
    bvals = prob.boundary_values()
    if cfg.initial_field is not None:
        if cfg.initial_field.grid != grid:
            raise ValueError("initial field lives on a different grid")
        try:
            cfg.initial_field.validate_finite()
        except ValueError as exc:
            raise ValueError(f"initial_field: {exc}") from exc
        v = cfg.initial_field.values.astype(float).copy()
    else:
        # Boundary mean extended constantly inside: matches the scale the
        # comparison principle allows for the solution.
        v = np.full(grid.node_shape, float(bvals.mean()) if len(bvals) else 0.0)
    v[bmask] = bvals  # argwhere order == boolean-mask assignment order (both C-order)
    v[~nonexterior_mask(grid)] = np.nan
    return v


def solve_dirichlet(prob: EnergyProblem, cfg: SolveConfig | None = None):
    """Minimize J over interior values; returns (ScalarField, SolveReport).

    Stops when sup|gradient|/h^N <= grad_tol, after max_iters Newton steps,
    or when stalled at the rounding floor; non-convergence is reported in
    `SolveReport.reason`, not raised.  A non-finite value in
    `cfg.initial_field` on a non-exterior node raises ValueError; a
    non-finite energy, at the start or in the line search, raises
    RuntimeError.
    """
    cfg = cfg or SolveConfig()
    ws = _Workspace(prob)
    t0 = time.perf_counter()
    u = _initial_values(prob, cfg)

    J_u = ws.energy(u)
    if not np.isfinite(J_u):
        raise RuntimeError("non-finite energy at the starting field")
    sup_r = float(np.abs(ws.residual()).max())
    iterations = inner = backtracks = 0
    reason = "converged" if sup_r <= cfg.grad_tol else "max_iters"  # until it ends otherwise

    while reason == "max_iters" and iterations < cfg.max_iters:
        iterations += 1
        cg_iters, r_dot_s = ws.newton_step(min(max(sup_r, 1e-12), 1e-2), min(0.5, np.sqrt(sup_r)))
        inner += cg_iters
        slope = -ws.hN * r_dot_s  # <grad J, s>, negative
        z = ws.spare  # the trial point; swapped with u when accepted
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            np.multiply(ws.step, alpha, out=z)
            z += u
            J_z = ws.energy(z)
            if np.isnan(J_z):
                raise RuntimeError("non-finite energy in line search")
            slack = 8.0 * _EPS * max(abs(J_u), abs(J_z))
            if J_z <= J_u + ARMIJO_C * alpha * slope + slack:
                break
            alpha *= BACKTRACK_FACTOR
            backtracks += 1
        else:
            reason = "stalled"  # cannot certify descent at rounding level
            break
        sup_z = float(np.abs(ws.residual()).max())
        if J_u - J_z <= slack and not sup_z < sup_r:
            reason = "stalled"  # no progress above rounding level: keep u
            break
        u, ws.spare = z, u
        J_u, sup_r = J_z, sup_z
        if sup_r <= cfg.grad_tol:
            reason = "converged"

    report = SolveReport(
        converged=reason == "converged",
        reason=reason,
        iterations=iterations,
        inner_iterations=inner,
        backtracks=backtracks,
        final_energy=J_u,
        final_grad_sup=sup_r,
        wall_time=time.perf_counter() - t0,
    )
    return ScalarField(prob.grid, u), report
