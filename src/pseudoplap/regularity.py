"""Empirical interior seminorms and the normalized regularity quotient.

Seminorms are exact maxima over all node pairs inside |x| <= r.  One pass
over the unordered pairs, in row blocks of bounded memory, serves every
field of a stack and every exponent, Lipschitz and Hölder, so a sweep scans
once; it is still an exhaustive O(K^2) scan, and K stays desk-scale for the
grids used here.  The regularity quotient of an experiment is

    ratio = Lip_r(u) / (sup|u| + sup|f|^{1/(p-1)}),

which is invariant under the exact degree-(p-1) scaling of the equation;
the empirical constant for a family of runs sharing (p, N, r) is the max
ratio, the falsifiable proxy for a uniform interior estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import ScalarField, node_coordinates, radius_squared
from .manufactured import sweep_presets, zero_boundary
from .reporting import write_csv
from .solver import EnergyProblem, solve_dirichlet

# Entries per row block: 2^15 float64 values, 256 KB per temporary, so a block stays in cache.
_BLOCK_ELEMENTS = 1 << 15


def _distances(axes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """|x_i - x_j| for rows lo:hi against columns lo:, from per-axis coordinates.

    The squares are summed in axis order, as numpy's sum over the last axis
    of an (i, j, axis) array does, so every entry is bitwise that sum's sqrt.
    """
    dist = np.square(axes[0][lo:hi, None] - axes[0][None, lo:])
    for x in axes[1:]:
        dist += np.square(x[lo:hi, None] - x[None, lo:])
    return np.sqrt(dist, out=dist)


def scan_nodes(grid, r: float) -> tuple:
    """(index, axes) of the nodes in |x| <= r, in lexicographic order:
    `u.values[index]` gathers a field's values there, and `axes` holds their
    coordinates, one row per axis.  Raises ValueError unless 0 < r < 1 - 2h
    and at least 2 nodes lie inside.  Each such node is interior, on the ball
    and the cube: it and its axis neighbours lie within r + h < 1 of 0."""
    r_max = 1.0 - 2.0 * grid.spacing
    if not 0.0 < r < r_max:
        raise ValueError(f"radius must be in (0, 1 - 2h) = (0, {r_max:.6g}), got {r}")
    idx = np.argwhere(radius_squared([grid.axis_coords() ** 2] * grid.dimension) <= r * r)
    if len(idx) < 2:
        raise ValueError(f"fewer than 2 nodes inside radius {r}")
    return tuple(idx.T), node_coordinates(grid, idx).reshape(len(idx), -1).T.copy()


def _pair_scan(axes: np.ndarray, vals: np.ndarray, exponents) -> np.ndarray:
    """(F, E) maxima: per row of the (F, K) field values at the scan nodes and
    per exponent e, the max over node pairs of |u(x) - u(y)| / |x - y|^e.

    Each unordered pair is visited once: a block of rows meets only the
    columns from its first row on.  A block's distances and their powers
    serve every field, whose |u(x) - u(y)| and quotients go into two block
    buffers made once per scan.  Quotient, distance and difference are
    symmetric in IEEE arithmetic and the squares are summed in axis order,
    so every quotient is bitwise the one the full K x K scan computes.  The
    diagonal's zero distances are set to inf, which makes their quotients 0.
    """
    if not np.isfinite(vals).all():
        raise ValueError("field has unset values inside the scan radius")
    K = vals.shape[1]
    rows = max(1, _BLOCK_ELEMENTS // K)
    best = np.zeros((len(vals), len(exponents)))
    buffers = np.empty((2, rows * K))
    for lo in range(0, K, rows):
        hi = min(lo + rows, K)
        dist = _distances(axes, lo, hi)
        diag = np.arange(hi - lo)
        dist[diag, diag] = np.inf
        powers = [dist if e == 1.0 else dist**e for e in exponents]  # x**1 == x exactly
        diff, quot = (buf[:dist.size].reshape(dist.shape) for buf in buffers)
        for v, b in zip(vals, best):
            np.abs(np.subtract(v[lo:hi, None], v[None, lo:], out=diff), out=diff)
            for k, power in enumerate(powers):
                b[k] = max(b[k], np.divide(diff, power, out=quot).max())
    return best


def scan_exponents(gammas) -> tuple:
    """(1.0, *gammas): the Lipschitz exponent, then each gamma.  Raises
    ValueError unless every gamma is in (0, 1) with a column of its own in holder_columns."""
    for gamma in gammas:
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"every gamma must be in (0, 1), got {gamma}")
    holder_columns(gammas)
    return (1.0, *gammas)


def seminorms(u: ScalarField, r: float, gammas) -> tuple:
    """(Lipschitz seminorm, {gamma: Hölder seminorm}) over node pairs in |x| <= r,
    all from one scan of a one-field stack."""
    exponents = scan_exponents(gammas)
    index, axes = scan_nodes(u.grid, r)
    lip, *holder = _pair_scan(axes, u.values[index][None], exponents)[0].tolist()
    return lip, dict(zip(exponents[1:], holder))


def lipschitz_seminorm(u: ScalarField, r: float) -> float:
    """Max over node pairs in |x| <= r of |u(x) - u(y)| / |x - y|."""
    return seminorms(u, r, ())[0]


def holder_seminorm(u: ScalarField, r: float, gamma: float) -> float:
    """Max over node pairs in |x| <= r of |u(x) - u(y)| / |x - y|^gamma."""
    return seminorms(u, r, [gamma])[1][gamma]


@dataclass(frozen=True)
class ExperimentRecord:
    """One solved (p, f, boundary) run with its measured norms and quotient."""

    p: float
    N: int
    r: float
    f_label: str
    u_sup: float
    f_sup: float
    lip_seminorm: float
    holder_seminorms: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = [self.u_sup, self.f_sup, self.lip_seminorm, *self.holder_seminorms.values()]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("record entries must be finite")

    @property
    def ratio(self) -> float:
        return self.lip_seminorm / (self.u_sup + self.f_sup ** (1.0 / (self.p - 1.0)))


def estimate_constant(records) -> float:
    """Empirical uniform constant: the max ratio over records sharing (p, N, r)."""
    records = list(records)
    if not records:
        raise ValueError("need at least one record")
    key = (records[0].p, records[0].N, records[0].r)
    for rec in records[1:]:
        if (rec.p, rec.N, rec.r) != key:
            raise ValueError(
                f"records mix (p, N, r): {key} vs {(rec.p, rec.N, rec.r)}"
            )
    return max(rec.ratio for rec in records)


def holder_columns(gammas) -> list:
    """The records.csv column of the Hölder seminorm at each gamma.  Raises
    ValueError when two gammas share one."""
    columns = [f"holder_{gamma:g}" for gamma in gammas]
    if len(set(columns)) < len(columns):
        raise ValueError(f"two gammas share a records.csv column: {columns}")
    return columns


def scaling_factors(p: float, lambdas) -> list:
    """lambda^(p-1) of each lambda, the factor of f and of grad_tol in
    preset_sweep's scaled copies.  Raises ValueError unless every lambda and
    its lambda^(p-1) are finite and > 0."""
    factors = []
    for lam in lambdas:
        if not (np.isfinite(lam) and lam > 0.0):
            raise ValueError(f"every lambda must be finite and > 0, got {lam}")
        try:
            factor = lam ** (p - 1.0)
        except OverflowError:
            factor = np.inf
        if not (np.isfinite(factor) and factor > 0.0):
            raise ValueError(f"every lambda^(p-1) must be finite and > 0, got {lam} at p = {p}")
        factors.append(factor)
    return factors


def records_to_csv(path, records, cfg_hash: str = "none") -> None:
    """Stable column order: p,N,r,f_label,u_sup,f_sup,lip_seminorm,ratio,holder_<g>...

    Raises the ValueError of holder_columns."""
    records = list(records)
    gammas = sorted({g for rec in records for g in rec.holder_seminorms})
    holder = holder_columns(gammas)
    columns = ["p", "N", "r", "f_label", "u_sup", "f_sup", "lip_seminorm", "ratio"] + holder
    rows = []
    for rec in records:
        row = [rec.p, rec.N, rec.r, rec.f_label, rec.u_sup, rec.f_sup,
               rec.lip_seminorm, rec.ratio]
        row += [rec.holder_seminorms.get(g) for g in gammas]
        rows.append(row)
    write_csv(path, columns, rows, cfg_hash)


def preset_sweep(grid, p: float, r: float, gammas, lambdas, solver_cfg, rng):
    """The experiment of `measure-regularity`: solve and measure each
    `sweep_presets(grid, rng)` field with zero boundary data, then, per lambda,
    lambda^(p-1) times the first one with grad_tol scaled alike.

    A solve keeps only its values at the scan nodes and its sup norm, and one
    stacked scan measures every solution.  Returns (records, scaling_rows,
    converged): a record per preset; rows [lambda, ratio, drift from the base
    ratio] led by [1.0, base ratio, 0.0], drift NaN when the base ratio is 0;
    a converged flag per solve, presets first.  Raises the ValueErrors of
    scan_exponents, scan_nodes and scaling_factors before any solve.
    """
    exponents = scan_exponents(gammas)
    index, axes = scan_nodes(grid, r)
    factors = scaling_factors(p, lambdas)
    presets = sweep_presets(grid, rng)
    (label0, f0), runs = presets[0], [(label, f, solver_cfg) for label, f in presets]
    for factor in factors:
        runs.append((label0, ScalarField(grid, factor * f0.values),
                     replace(solver_cfg, grad_tol=solver_cfg.grad_tol * factor)))
    stack, sups, converged = [], [], []
    for _, f, cfg in runs:
        u, rep = solve_dirichlet(EnergyProblem(grid, p, f, zero_boundary), cfg)
        stack.append(u.values[index])
        sups.append((u.sup_norm(), f.sup_norm("interior")))
        converged.append(rep.converged)
    maxima = _pair_scan(axes, np.array(stack), exponents).tolist()
    measured = [ExperimentRecord(p=p, N=grid.dimension, r=r, f_label=label, u_sup=u_sup,
                                 f_sup=f_sup, lip_seminorm=lip,
                                 holder_seminorms=dict(zip(exponents[1:], holder)))
                for (label, _, _), (u_sup, f_sup), (lip, *holder) in zip(runs, sups, maxima)]
    records, base = measured[:len(presets)], measured[0]
    scaling_rows = [[1.0, base.ratio, 0.0]]
    for lam, rec in zip(lambdas, measured[len(presets):]):
        # a solve stopped before u moved off 0 inside the radius leaves no ratio to compare
        drift = abs(rec.ratio - base.ratio) / base.ratio if base.ratio else np.nan
        scaling_rows.append([lam, rec.ratio, drift])
    return records, scaling_rows, converged
