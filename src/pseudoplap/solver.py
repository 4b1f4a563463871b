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
by reg = clip(sup|r|, 1e-12, 1e-2).  In 1D, where H is tridiagonal, the step
is H's exact inverse applied to r, by two running sums.  In 2D and 3D
conjugate gradients, preconditioned by the diagonal of H, solve it until
|r - H s| <= max(rtol |r|, grad_tol / 2) in the 2-norm, rtol = min(0.5,
sqrt(sup|r|)) being an Eisenstat-Walker forcing term, so far-off steps stay
cheap and the last ones converge superlinearly; the absolute floor stops the
last steps once the linearized residual is below what sup|r| <= grad_tol
needs (the 2-norm bounds the sup-norm).

In 2D and 3D, CG runs in float32 on copies of H's link weights and of r,
each scaled by a power of 2 so that its largest entry is near 1; the step
is scaled back into float64 and certified there before it is returned: its
slope s.Hs and the check r.s > 0 come from the float64 step and H.  The
energy, the residual, the Armijo test, the curvature guard and the stop
rule sup|r| <= grad_tol stay float64 too.  A step reruns through the same
CG loop in float64, counted in `SolveReport.float64_reruns`, when H's
weights do not fit float32's normal range, or when a float32 curvature, the
float64 r.s or s.Hs is not positive and finite.  1D steps are float64.
The step is taken with Armijo backtracking on J from unit step.
Accepted iterates have non-increasing energy up to a floating-point rounding
slack of a few ulps of J, which keeps the line search honest when the target
residual sits near the arithmetic floor.

A solve stops for one of three reasons, kept in `SolveReport.reason`:
"converged" when sup|r| <= grad_tol; "max_iters" when it runs out of Newton
steps; "stalled" at the rounding floor, when a step changes J by no more
than the rounding slack without lowering sup|r| (that step is not taken), or
when the line search cannot certify any step.

J is invariant under each reflection x_i -> -x_i, so its minimizer is
mirror-symmetric along each axis along which the grid, f and the boundary
data are (grid.mirror_axes).  A solve runs on the mirror box of those axes
(grid.mirror_box), counting each node and link by its multiplicity
(grid.multiplicities) in J, the Hessian and the right-hand side: CG and the
Armijo slope take the whole grid's sums, the residual is the whole grid's
bit for bit, and the result is unfolded.  With no such axis it is the grid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, ScalarField, axis_strides, boundary_mask, interior_mask
from .grid import mirror_axes, mirror_box, multiplicities, node_coordinates, nonexterior_mask
from .grid import off_links, unfold
from .operators import add_divergence, check_exponent, link_differences

_EPS = float(np.finfo(float).eps)
_FLOAT32_TINY = float(np.finfo(np.float32).tiny)
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
    # ((grid, p), the whole grid's _Workspace) of energy() and energy_gradient()
    _workspace: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_exponent(self.p)
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

    def __post_init__(self):
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveReport:
    converged: bool
    reason: str  # "converged", "max_iters" or "stalled"
    iterations: int  # Newton steps
    inner_iterations: int  # CG iterations over all Newton steps, one per 1D step
    backtracks: int  # step halvings over all line searches
    float64_reruns: int  # 2D/3D Newton steps whose CG reran in float64 (module docstring)
    final_energy: float
    final_grad_sup: float  # sup |gradient| / h^N == sup |A_div(u) - (p-1) f|
    mirror_axes: tuple  # the axes the solve was reduced along (module docstring)


# CG's data in one precision, in 2D and 3D only: H's link weights, the
# padded link buffer (zeros before the first link), the divergence scratch,
# the inverse of H's diagonal, CG's residual, direction, H d / z and step,
# and on a box the inverse multiplicities
_CG = namedtuple("_CG", "weights flux div inv_diag res d work s inv_mult")


class _Workspace:
    """Flat-stride kernels and buffers shared by the public energy/gradient/solver entry points.

    It works on the mirror box of `axes`, whose node arrays are C-ordered
    and used flat: along axis ax of stride s
    (grid.axis_strides), link j joins nodes j and j + s, and grid.off_links
    marks the links that carry no flux.  Every kernel is a contiguous slice
    operation into one of these buffers, each one node array long:

    * `weights[ax]`: the link weights |D_ax v|^(p-2) of the last field given
      to `energy`, times their upper nodes' counts on a box; `newton_step`
      turns them into H's;
    * `flux`: one link array, shared by the axes in turn, behind zeros for
      the flux before the first link;
    * `scratch`: one more, for divergences, reg times the links' counts and
      the f-term;
    * `resid`: the last `residual()`, and the float64 CG's residual;
    * `step`: the Newton step;
    * `spare`: the float64 CG's H d and preconditioned residual, then H s
      for the step's s.Hs, and between Newton steps the line search's trial
      point;
    * in 1D the link arrays `inv_link` and `flow` of `_exact_1d`, which
      gives the step; in 2D and 3D CG's search direction `cg_dir` and its
      Jacobi preconditioner `inv_diag`, the inverse of H's diagonal.

    Each buffer keeps that role.  A 1D workspace runs no CG: `cg64` and
    `cg32` are None.  In 2D and 3D `cg64` names CG's float64 buffers and
    `cg32` the float32 halves of those that the float32 loop leaves idle.
    `step`, `cg_dir`, `inv_diag` and `scratch` are the four rows of one
    block; its eight float32 rows hold H's weights (one per axis), then
    `inv_diag`, `res` and `d`, and in row 6 CG's step `s`, in row 7 `work`.
    The padded `flux` holds the float32 flux and divergence scratch.
    `scratch` carries only `s` and `work`, first written once the scaled
    weights and residual have passed through it, and `step` only data that
    are dead before the float32 step is copied into it.  So float32 CG costs
    no memory.  `resid`, the float64 weights and `spare` are never shared.

    `outside_at` holds the flat indices of the nodes off the interior, which
    every kernel zeroes, and on a box `mult` the nodes' multiplicities, of
    which the links of stride s read `mult[s:]`, and `inv_mult` their
    inverses (`cg32` has their float32 copy).  On the whole grid (no axis)
    the multiplicities are 1: `mult` and `inv_mult` are None, and no array
    of them is made or applied.

    `residual()` reuses the weights, and `newton_step` turns them into the
    Hessian's, so the power is taken once per evaluated field.  Everything
    is allocated here: no kernel, and no CG iteration, allocates a node
    array.
    """

    def __init__(self, prob: EnergyProblem, axes: tuple = (), cg_floor: float = 0.0):
        g = prob.grid
        self.p = prob.p
        self.h = g.spacing
        self.hN = self.h**g.dimension
        self.box = mirror_box(g, axes)
        self.interior = interior_mask(g)[self.box]
        self.inside = self.interior.reshape(-1)
        self.outside_at = np.flatnonzero(~self.inside)
        self.n_interior = int(self.inside.sum())
        self.f = prob.f.values[self.box].reshape(-1)  # finite on the interior; may be NaN elsewhere
        self.mult = self.inv_mult = None
        if axes:
            self.mult = multiplicities(g, axes)
            self.f = self.f * self.mult
            self.inv_mult = 1.0 / self.mult
        self.strides = axis_strides(self.interior.shape)
        self.off_links = off_links(g, axes)
        size = self.inside.size
        self.cg_floor = cg_floor  # CG's absolute stop floor: grad_tol / 2 in a solve
        self.float64_reruns = 0
        self.v = None
        self.weights = [np.empty(size) for _ in self.off_links]
        pad = self.strides[0]
        self._flux = np.empty(pad + size)
        self._flux[:pad] = 0.0  # the flux before the first link; never written again
        self.flux = self._flux[pad:]
        self.resid, self.spare = np.empty(size), np.zeros(size)
        self.cg64 = self.cg32 = None
        if g.dimension == 1:  # _exact_1d: every link on, interior nodes 0 (box) or 1 .. size - 2
            assert not self.off_links[0].any() and np.array_equal(
                np.flatnonzero(self.inside), np.arange(0 if axes else 1, size - 1)), "1D grid"
            self.step, self.scratch = np.zeros((2, size))
            self.flow, self.inv_link = np.empty((2, size - 1))
        else:  # CG's block, and the float32 CG in the halves of its rows and of the padded flux
            self.step, self.cg_dir, self.inv_diag, self.scratch = block = np.zeros((4, size))
            rows = block.view(np.float32).reshape(8, size)
            flux32, n = self._flux.view(np.float32)[pad:], len(self.weights)  # pad's top half: 0
            self.cg32 = _CG(tuple(rows[:n]), flux32[:pad + size], flux32[pad + size:],
                            *rows[n:n + 3], rows[7], rows[6],
                            None if self.inv_mult is None else self.inv_mult.astype(np.float32))
            self.cg64 = _CG(self.weights, self._flux, self.scratch, self.inv_diag, self.resid,
                            self.cg_dir, self.spare, self.step, self.inv_mult)

    def energy(self, v: np.ndarray) -> float:
        """J(v); keeps v and writes its link weights |D_i v|^(p-2), times
        their upper nodes' counts on a box, for `residual` and `newton_step`.
        Each axis' link terms are summed by one dot over its flat links, 0 on
        the off ones."""
        p = self.p
        self.v = v.reshape(-1)
        link_sum = 0.0
        for s, off, w in zip(self.strides, self.off_links, self.weights):
            d = link_differences(self.v, s, self.h, off, self.flux[:off.size])
            w = w[:off.size]
            np.abs(d, out=w)
            w **= p - 2.0  # 0 on the off links, where d = 0 and p > 2
            if self.mult is not None:
                w *= self.mult[s:]
            d *= d
            link_sum += float(np.vdot(w, d))  # |d|^(p-2) d^2 = |d|^p
        fv = self.scratch
        fv.fill(0.0)
        np.multiply(self.f, self.v, out=fv, where=self.inside)
        fu = float(fv.sum())
        return (link_sum / p + (p - 1.0) * fu) * self.hN

    def residual(self) -> np.ndarray:
        """A_div(v) - (p-1) f on interior nodes, zero elsewhere (= -gradient/h^N),
        for the v of the last `energy` call; written into
        `self.resid`, of which it returns the node-shaped view.  With the
        multiplicities in the weights and f it is first the box energy's
        gradient: the multiplicity times the residual, exactly."""
        out = self.resid
        out.fill(0.0)
        for ax, (s, off, w) in enumerate(zip(self.strides, self.off_links, self.weights)):
            flux = link_differences(self.v, s, self.h, off, self.flux[:off.size])
            flux *= w[:off.size]
            add_divergence(out, flux, s, self.h, self.scratch)
        np.multiply(self.f, self.p - 1.0, out=self.scratch)
        out -= self.scratch
        out[self.outside_at] = 0.0
        if self.mult is not None:
            out /= self.mult
        return out.reshape(self.interior.shape)

    def residual_sup(self) -> float:
        """sup |residual()|, computed without a temporary."""
        self.residual()
        np.abs(self.resid, out=self.scratch)
        return float(self.scratch.max())

    def _hess_slices(self, s: np.ndarray, out: np.ndarray, weights, padded, div) -> tuple:
        """Per axis, the slices of s, `out`, H's link `weights` and the padded
        link buffer that `_hess_apply` works on, and the divergence scratch
        `div`, all of one precision; taken once per product set-up, so that
        the CG loop makes none."""
        slices = []
        size, pad = out.size, self.strides[0]
        # the flux's tail: no link of axis 0 writes it, and its old contents
        # may be the other precision's bits; only masked nodes read it
        padded[size:] = 0.0
        for stride, c in zip(self.strides, weights):
            # flux[k] is link k - stride: zeros before the first link, which
            # the mirror plane's nodes of a box read (add_divergence)
            flux = padded[pad - stride:pad + size]
            slices.append((s[stride:], s[:-stride], flux[stride:size], c[:size - stride],
                           flux[stride:], flux[:size]))
        return slices, div

    def _hess_apply(self, slices: tuple, out: np.ndarray) -> None:
        """out = H s per unit volume for the s and out of `_hess_slices`.

        The first axis writes every node of `out` outright; the last nodes
        read flux beyond the links, but lie on the end planes along axis 0
        and are zeroed with every other node off the interior."""
        slices, div = slices
        subtract = np.subtract
        for ax, (s_hi, s_lo, links, c, flux_at, flux_before) in enumerate(slices):
            subtract(s_hi, s_lo, out=links)  # operators.axis_difference, on fixed slices
            links *= c
            if ax:
                subtract(flux_at, flux_before, out=div)
                out -= div
            else:
                subtract(flux_before, flux_at, out=out)
        out[self.outside_at] = 0.0

    def _jacobi_diagonal(self, cg: _CG) -> None:
        """cg's `inv_diag` = 1 / diag(H) on the interior, 0 elsewhere, for
        H's link weights in cg's `weights`."""
        diag = cg.inv_diag
        diag.fill(0.0)
        for s, off, c in zip(self.strides, self.off_links, cg.weights):
            c = c[:off.size]
            diag[:s] += c[:s]  # no link before these along the axis
            diag[s:off.size] += np.add(c[:-s], c[s:], out=cg.div[:off.size - s])
        np.divide(1.0, diag, out=diag, where=self.inside)
        diag[self.outside_at] = 0.0

    def _exact_1d(self, r: np.ndarray, out: np.ndarray) -> None:
        """out = z = H^-1 r in 1D, r being 0 off the interior.  The flux
        q = c (z[j+1] - z[j]) on link j (c: H's link weights, t = 1/c) falls
        by r[j] across node j: q = q0 - R, R = cumsum(r) over the links' lower
        nodes.  q0 = 0 on a mirror box, the flux before its first node, and
        (R.t) / sum(t) on the whole grid, so that z = 0 at both ends; z is the
        running sum of q t, anchored to 0 at the last node."""
        q, t = self.flow, self.inv_link
        np.cumsum(r[:q.size], out=q)
        q0 = float(np.vdot(q, t)) / float(t.sum()) if self.mult is None else 0.0
        np.subtract(q0, q, out=q)
        q *= t
        out[0] = 0.0
        np.cumsum(q, out=out[1:])
        out -= out[-1]
        out[self.outside_at] = 0.0

    def _pcg(self, cg: _CG, rtol: float, floor: float) -> tuple:
        """Jacobi-preconditioned CG on H s = r in cg's buffers, which only a
        2D or 3D workspace has, r being cg's `res` (times the multiplicities
        on a box) and H its link weights, with cg's `inv_diag` refreshed;
        returns (iterations, last curvature d.Hd).  Starts from s = 0 and
        stops once |r - H s| <= max(rtol |r|, floor) in the 2-norm (weighted
        by the inverse multiplicities on a box), after one iteration per
        interior node, or at a curvature that is not positive and finite."""
        self._jacobi_diagonal(cg)
        # work holds H d, then (on a box) r over the multiplicities, then the
        # preconditioned residual z
        s, res, d, work, inv_diag, inv_mult = cg.s, cg.res, cg.d, cg.work, cg.inv_diag, cg.inv_mult
        hess_d = self._hess_slices(d, work, cg.weights, cg.flux, cg.div)
        s.fill(0.0)
        # names bound once: each iteration is a few small numpy calls, whose
        # lookups would cost about as much as the stop test's weighting
        vdot, multiply, hess = np.vdot, np.multiply, self._hess_apply
        weigh = inv_mult is not None  # on a box, the stop norm is r.(r / mult)
        weighted = work if weigh else res
        if weigh:
            multiply(res, inv_mult, out=work)
        multiply(res, inv_diag, out=d)
        rz = float(vdot(res, d))
        stop = max(rtol * rtol * float(vdot(res, weighted)), floor * floor)
        k, most, curv = 0, self.n_interior, math.nan
        while k < most:
            k += 1
            hess(hess_d, work)
            curv = float(vdot(d, work))
            if not 0.0 < curv < math.inf:
                break
            alpha = rz / curv
            work *= alpha
            res -= work
            multiply(d, alpha, out=work)
            s += work
            if weigh:
                multiply(res, inv_mult, out=work)
            if float(vdot(res, weighted)) <= stop:
                break
            multiply(res, inv_diag, out=work)
            rz_next = float(vdot(res, work))
            d *= rz_next / rz
            d += work
            rz = rz_next
        return k, curv

    def _float32_step(self, reg: float, scale: float, rtol: float) -> tuple:
        """`newton_step`'s CG in float32, its step written into `self.step`;
        returns (CG iterations, s.Hs), or (CG iterations, None) when the step
        must rerun in float64: when the data do not fit float32, when a
        curvature is not positive and finite, or when the float64 s.Hs or r.s
        of the float64 step is not.  H's float64 weights and r are scaled by
        powers of 2, a and b, that bring their largest entries into [1/2, 1):
        H's weights must then stay at or above float32's least normal number,
        which reg bounds from below (reg scale is H's least weight on a link
        that carries flux).  CG solves (a H) s' = b r, so s = (a / b) s',
        exactly."""
        cg, tmp = self.cg32, self.scratch
        top = max(float(c[:off.size].max()) for c, off in zip(self.weights, self.off_links))
        sup_r = float(np.abs(self.resid, out=tmp).max())
        if not (top < math.inf and 0.0 < sup_r < math.inf):
            return 0, None
        a, b = math.ldexp(1.0, -math.frexp(top)[1]), math.ldexp(1.0, -math.frexp(sup_r)[1])
        if not reg * scale * a >= _FLOAT32_TINY:
            return 0, None
        for c, c32, off in zip(self.weights, cg.weights, self.off_links):
            n = off.size
            np.multiply(c[:n], a, out=tmp[:n])
            np.copyto(c32[:n], tmp[:n])
        np.multiply(self.resid, b, out=tmp)
        if self.mult is not None:
            tmp *= self.mult
        np.copyto(cg.res, tmp)
        k, curv = self._pcg(cg, rtol, self.cg_floor * b)
        if not 0.0 < curv < math.inf:
            return k, None
        np.copyto(self.step, cg.s)
        self.step *= a / b
        r = self.resid if self.mult is None else np.multiply(self.resid, self.mult, out=tmp)
        r_s, s_hs = float(np.vdot(r, self.step)), self._step_curvature()
        return k, s_hs if 0.0 < s_hs < math.inf and 0.0 < r_s < math.inf else None

    def _step_curvature(self) -> float:
        """s.Hs in float64 for the step s in `self.step` and H's weights,
        H s written into `self.spare`."""
        step, hs = self.step, self.spare
        self._hess_apply(self._hess_slices(step, hs, self.weights, self._flux, self.scratch), hs)
        return float(np.vdot(step, hs))

    def _hessian_weights(self, reg: float, scale: float) -> None:
        """Turns the weights into H's: (w + reg) scale on each link that
        carries flux, times its count on a box, and 0 on the others."""
        for s, off, c in zip(self.strides, self.off_links, self.weights):
            c = c[:off.size]
            c += reg if self.mult is None else np.multiply(self.mult[s:], reg,
                                                           out=self.scratch[:off.size])
            np.copyto(c, 0.0, where=off)
            c *= scale

    def newton_step(self, reg: float, rtol: float) -> tuple:
        """Solve H s = r into `self.step`, r being the last `residual()`;
        returns (CG iterations, s.Hs), one iteration for a 1D step.

        H is the Hessian per unit volume at the v of the last `energy` call,
        with reg added to every link weight; the weights are overwritten by
        H's.  On a box, H and r count by the multiplicities, so r.s, d.Hd
        and r.z are the whole grid's sums, and so is the 2-norm, weighted by
        their inverses; `self.resid` is then left holding r times them.  H
        is symmetric positive definite on the interior, so an s.Hs or a
        float64 curvature that is not positive and finite means non-finite
        input and raises.

        In 1D, where the workspace has no CG state, the step is H's exact
        inverse applied to r (`_exact_1d`).  In 2D and 3D Jacobi-
        preconditioned CG solves H s = r until |r - H s| <= max(rtol |r|,
        cg_floor) in the 2-norm, or for one iteration per interior node.  It
        runs in float32 (`_float32_step`), and reruns in float64 (`cg64`)
        only when that fails, counted in `float64_reruns`; the float64 loop
        overwrites `self.resid` by CG's residual.  Every exact CG iterate s
        has r.s = s.H s > 0, so it is a descent direction for J.
        """
        scale = (self.p - 1.0) / (self.h * self.h)
        self._hessian_weights(reg, scale)
        if self.cg64 is None:  # 1D: no CG state
            if self.mult is not None:
                self.resid *= self.mult
            np.divide(1.0, self.weights[0][:self.inv_link.size], out=self.inv_link)
            self._exact_1d(self.resid, self.step)
            s_hs = self._step_curvature()
            if not 0.0 < s_hs < math.inf:
                raise RuntimeError(f"exact 1D step: s.Hs {s_hs!r} is not positive and finite")
            return 1, s_hs
        k32, s_hs = self._float32_step(reg, scale, rtol)
        if s_hs is not None:
            return k32, s_hs
        self.float64_reruns += 1
        if self.mult is not None:
            self.resid *= self.mult
        k, curv = self._pcg(self.cg64, rtol, self.cg_floor)
        if not 0.0 < curv < math.inf:
            raise RuntimeError(f"PCG: curvature {curv!r} is not positive and finite")
        return k32 + k, self._step_curvature()


def _whole_grid_workspace(prob: EnergyProblem) -> _Workspace:
    """prob's whole-grid _Workspace, rebuilt only when its grid or p has
    changed, so repeated calls allocate no buffers; f is read every call."""
    key = (prob.grid, prob.p)
    if prob._workspace is None or prob._workspace[0] != key:
        prob._workspace = (key, _Workspace(prob))
    ws = prob._workspace[1]
    ws.f = prob.f.values.reshape(-1)
    return ws


def energy(u: ScalarField, prob: EnergyProblem) -> float:
    """Grid energy J(u); raises if a needed stencil value is unset."""
    u.validate_finite()
    return _whole_grid_workspace(prob).energy(u.values)


def energy_gradient(u: ScalarField, prob: EnergyProblem) -> ScalarField:
    """Exact discrete gradient dJ/du = [-A_div(u) + (p-1) f] h^N on interior nodes."""
    u.validate_finite()
    ws = _whole_grid_workspace(prob)
    ws.energy(u.values)
    g = -ws.residual() * ws.hN
    g[~ws.interior] = np.nan
    return ScalarField(prob.grid, g)


def _initial_values(prob: EnergyProblem) -> np.ndarray:
    grid = prob.grid
    bmask = boundary_mask(grid)
    bvals = prob.boundary_values()
    # Boundary mean extended constantly inside: matches the scale the
    # comparison principle allows for the solution.  Equal boundary values
    # start at that value, which their mean can miss by an ulp.
    level = 0.0 if not len(bvals) else bvals[0] if (bvals == bvals[0]).all() else bvals.mean()
    v = np.full(grid.node_shape, float(level))
    v[bmask] = bvals  # argwhere order == boolean-mask assignment order (both C-order)
    v[~nonexterior_mask(grid)] = np.nan
    return v


def solve_dirichlet(prob: EnergyProblem, cfg: SolveConfig | None = None):
    """Minimize J over interior values; returns (ScalarField, SolveReport).

    Stops when sup|gradient|/h^N <= grad_tol, after max_iters Newton steps,
    or when stalled at the rounding floor; non-convergence is reported in
    `SolveReport.reason`, not raised.  A non-finite energy, at the start or
    in the line search, raises RuntimeError.  `SolveReport.mirror_axes`
    names the axes of the mirror box it solved on (module docstring).
    """
    cfg = cfg or SolveConfig()
    start = _initial_values(prob)
    axes = mirror_axes(prob.grid, prob.f.values, start)
    ws = _Workspace(prob, axes, cg_floor=0.5 * cfg.grad_tol)
    u = start[ws.box].reshape(-1)

    J_u = ws.energy(u)
    if not np.isfinite(J_u):
        raise RuntimeError("non-finite energy at the starting field")
    sup_r = ws.residual_sup()
    iterations = inner = backtracks = 0
    reason = "converged" if sup_r <= cfg.grad_tol else "max_iters"  # until it ends otherwise

    while reason == "max_iters" and iterations < cfg.max_iters:
        iterations += 1
        cg_iters, s_hs = ws.newton_step(min(max(sup_r, 1e-12), 1e-2), min(0.5, np.sqrt(sup_r)))
        inner += cg_iters
        slope = -ws.hN * s_hs  # <grad J, s>, negative
        z = ws.spare  # the trial point; copied into u when accepted
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
        sup_z = ws.residual_sup()
        if J_u - J_z <= slack and not sup_z < sup_r:
            reason = "stalled"  # no progress above rounding level: keep u
            break
        np.copyto(u, z)
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
        float64_reruns=ws.float64_reruns,
        mirror_axes=axes,
    )
    return ScalarField(prob.grid, unfold(axes, u.reshape(ws.interior.shape))), report
