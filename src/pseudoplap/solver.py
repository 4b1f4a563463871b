"""Dirichlet solver by minimization of the convex grid energy.

The energy of a field u with fixed boundary values is

    J(u) = (1/p) sum_links |D_i^+ u|^p h^N  +  (p-1) sum_interior f u h^N,

links being forward differences whose two endpoints are both non-exterior.
Its exact gradient at an interior node is [-A_div(u) + (p-1) f] h^N with
A_div the divergence-form operator, so driving the gradient per unit volume
to zero solves the discrete equation A_div(u) = (p-1) f.

The minimizer is found by gradient descent in the diagonally scaled metric
(the exact Hessian diagonal, floored at one, as the scaling) with Armijo
backtracking from unit step.  Accepted iterates have non-increasing energy
up to a floating-point rounding slack of a few ulps of J, which keeps the
line search honest when the target residual sits near the arithmetic floor.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, ScalarField, boundary_mask, interior_mask, node_coordinates
from .grid import nonexterior_mask

_EPS = float(np.finfo(float).eps)


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
    max_iters: int = 200_000
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_guess: str = "zero_extended_boundary"
    initial_field: ScalarField | None = None
    max_backtracks: int = 60
    track_energy: bool = False

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.armijo_c < 1:
            raise ValueError("armijo_c must be in (0, 1)")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if self.initial_guess not in ("zero_extended_boundary", "user_field"):
            raise ValueError(f"unknown initial_guess {self.initial_guess!r}")
        if self.initial_guess == "user_field" and self.initial_field is None:
            raise ValueError("initial_guess='user_field' requires initial_field")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_energy: float
    final_grad_sup: float  # sup |gradient| / h^N == sup |A_div(u) - (p-1) f|
    wall_time: float
    energy_history: list = field(default_factory=list, repr=False)


@functools.lru_cache(maxsize=64)
def _link_masks(grid: GridSpec) -> tuple:
    """Per axis, the links (forward differences) with both endpoints non-exterior."""
    ok = nonexterior_mask(grid)
    masks = []
    for ax in range(grid.dimension):
        lo = [slice(None)] * grid.dimension
        hi = [slice(None)] * grid.dimension
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        m = ok[tuple(lo)] & ok[tuple(hi)]
        m.setflags(write=False)
        masks.append(m)
    return tuple(masks)


class _Workspace:
    """Raw-array kernels shared by the public energy/gradient/solver entry points."""

    def __init__(self, prob: EnergyProblem):
        g = prob.grid
        self.grid = g
        self.p = prob.p
        self.h = g.spacing
        self.hN = self.h**g.dimension
        self.ndim = g.dimension
        self.interior = interior_mask(g)
        self.links = _link_masks(g)
        self.f_int = np.where(self.interior, prob.f.values, 0.0)

    def _axis_slices(self, ax):
        lo = [slice(None)] * self.ndim
        hi = [slice(None)] * self.ndim
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        return tuple(lo), tuple(hi)

    def energy(self, v: np.ndarray) -> float:
        p, h = self.p, self.h
        link_sum = 0.0
        for ax in range(self.ndim):
            lo, hi = self._axis_slices(ax)
            d = (v[hi] - v[lo]) / h
            link_sum += float(np.where(self.links[ax], np.abs(d) ** p, 0.0).sum())
        fu = float((self.f_int * np.where(self.interior, v, 0.0)).sum())
        return (link_sum / p + (p - 1.0) * fu) * self.hN

    def residual(self, v: np.ndarray) -> np.ndarray:
        """A_div(v) - (p-1) f on interior nodes, zero elsewhere (= -gradient/h^N)."""
        p, h = self.p, self.h
        out = np.zeros_like(v)
        for ax in range(self.ndim):
            lo, hi = self._axis_slices(ax)
            d = (v[hi] - v[lo]) / h
            flux = np.where(self.links[ax], np.abs(d) ** (p - 2.0) * d, 0.0)
            core = [slice(None)] * self.ndim
            core[ax] = slice(1, -1)
            flo, fhi = self._axis_slices(ax)
            out[tuple(core)] += (flux[fhi] - flux[flo]) / h
        out -= (p - 1.0) * self.f_int
        out[~self.interior] = 0.0
        return out

    def inv_scaling(self, v: np.ndarray) -> np.ndarray:
        """Per-node diagonal of the energy Hessian per unit volume, floored at 1.

        The exact diagonal is (p-1) sum over the node's links of
        |D_i^+ v|^{p-2} / h^2; flooring keeps steps finite where every
        incident gradient degenerates.
        """
        p, h = self.p, self.h
        total = np.zeros_like(v)
        for ax in range(self.ndim):
            lo, hi = self._axis_slices(ax)
            dabs = np.where(self.links[ax], np.abs((v[hi] - v[lo]) / h), 0.0) ** (p - 2.0)
            core = [slice(None)] * self.ndim
            core[ax] = slice(1, -1)
            clo = [slice(None)] * self.ndim
            chi = [slice(None)] * self.ndim
            clo[ax], chi[ax] = slice(None, -1), slice(1, None)
            total[tuple(core)] += dabs[tuple(clo)] + dabs[tuple(chi)]
        return np.maximum(1.0, (p - 1.0) * total / (h * h))


def energy(u: ScalarField, prob: EnergyProblem) -> float:
    """Grid energy J(u); raises if a needed stencil value is unset."""
    ws = _Workspace(prob)
    mask = nonexterior_mask(prob.grid)
    if not np.isfinite(u.values[mask]).all():
        node = tuple(int(i) for i in np.argwhere(mask & ~np.isfinite(u.values))[0])
        raise ValueError(f"energy stencil touches unset node {node}")
    return ws.energy(u.values)


def energy_gradient(u: ScalarField, prob: EnergyProblem) -> ScalarField:
    """Exact discrete gradient dJ/du = [-A_div(u) + (p-1) f] h^N on interior nodes."""
    ws = _Workspace(prob)
    mask = nonexterior_mask(prob.grid)
    if not np.isfinite(u.values[mask]).all():
        node = tuple(int(i) for i in np.argwhere(mask & ~np.isfinite(u.values))[0])
        raise ValueError(f"gradient stencil touches unset node {node}")
    g = -ws.residual(u.values) * ws.hN
    g[~ws.interior] = np.nan
    return ScalarField(prob.grid, g)


def _initial_values(prob: EnergyProblem, cfg: SolveConfig) -> np.ndarray:
    grid = prob.grid
    bmask = boundary_mask(grid)
    bvals = prob.boundary_values()
    if cfg.initial_guess == "user_field":
        if cfg.initial_field.grid != grid:
            raise ValueError("initial field lives on a different grid")
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

    Stops when sup|gradient|/h^N <= grad_tol or after max_iters iterations;
    non-convergence is reported, not raised.  A NaN appearing in the line
    search raises RuntimeError.
    """
    cfg = cfg or SolveConfig()
    ws = _Workspace(prob)
    t0 = time.perf_counter()
    u = _initial_values(prob, cfg)
    c, shrink = cfg.armijo_c, cfg.backtrack_factor

    J_u = ws.energy(u)
    history = [J_u] if cfg.track_energy else []
    r_u = ws.residual(u)
    sup_r = float(np.abs(r_u).max())
    iterations = 0
    converged = sup_r <= cfg.grad_tol
    stalled = False

    while not converged and not stalled and iterations < cfg.max_iters:
        iterations += 1
        d = r_u / ws.inv_scaling(u)
        slope = -ws.hN * float((r_u * d).sum())  # <grad J, d>, negative
        alpha = 1.0
        stalled = True
        for _ in range(cfg.max_backtracks):
            z = u + alpha * d
            J_z = ws.energy(z)
            if np.isnan(J_z):
                raise RuntimeError("non-finite energy in line search")
            slack = 8.0 * _EPS * max(abs(J_u), abs(J_z))
            if J_z <= J_u + c * alpha * slope + slack:
                u, J_u, stalled = z, J_z, False
                break
            alpha *= shrink
        if stalled:
            break  # cannot certify descent at rounding level
        r_u = ws.residual(u)
        sup_r = float(np.abs(r_u).max())
        if cfg.track_energy:
            history.append(J_u)
        converged = sup_r <= cfg.grad_tol

    report = SolveReport(
        converged=converged,
        iterations=iterations,
        final_energy=J_u,
        final_grad_sup=sup_r,
        wall_time=time.perf_counter() - t0,
        energy_history=history,
    )
    return ScalarField(prob.grid, u), report

