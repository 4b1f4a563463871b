"""Seeded samplers for the lemma checks, one per family.

Every sampling decision lives here: the distributions drawn from, the rule
for rejecting a draw, and the attempt cap.  The `verify-lemmas` subcommand
and the acceptance suite call the same functions, so the suite certifies the
sampler the CLI ships.  Each sampler returns the CSV rows of its family plus
either the worst relative slack (the check passes when it stays above a
small negative tolerance), a pass flag, or the claims verdict and selectors.
"""

from __future__ import annotations

import numpy as np

from .barrier import BarrierParams, comparison_check, min_barrier_M
from .barrier import supersolution_tolerance, verify_supersolution
from .claims import DEFAULT_REGIME_P, REGIMES, claims_scale_sweep, evaluate_claims_sweep
from .claims import regime_params, zt_check
from .eig import row_dots, vector_norm
from .grid import GridSpec, ScalarField
from .jets import feasible_pair_conclusions, jet_scalars, min_eig_checks
from .manufactured import gaussian_field
from .moduli import HolderModulus, LipschitzModulus, ModulusMix, stacked
from .solver import EnergyProblem, SolveConfig, solve_dirichlet


def lipschitz_modulus(tau: float) -> LipschitzModulus:
    """The sampled Lipschitz modulus: omega0 = 1/(2(1+tau)) keeps w' in [1/2, 1) on (0, 1)."""
    return LipschitzModulus(tau, 0.5 / (1.0 + tau))


def barrier_rows(nodes: int, p_list, n_list):
    """Discrete supersolution check of the minimal barrier on the unit ball, per (N, p),
    every p of one N in one verify_supersolution call.

    Rows: p, N, nodes, M, violation, tolerance, pass.
    """
    rows = []
    ok = True
    for N in n_list:
        grid = GridSpec(N, nodes, "ball")
        cases = [BarrierParams(M=min_barrier_M(p, N, 1.0), p=p) for p in p_list]
        for params, viol in zip(cases, verify_supersolution(grid, cases, 1.0,
                                                            3.0 * grid.spacing)):
            tol = supersolution_tolerance(grid, params, 1.0)
            rows.append([params.p, N, nodes, params.M, viol, tol, viol <= tol])
            ok = ok and viol <= tol
    return rows, ok


def min_eig_rows(rng: np.random.Generator, samples: int):
    """`samples` accepted draws per branch (small p, then large p) of the eigenvalue bound.

    A branch draws in blocks, each of as many draws as its quota still
    lacks.  A block of k draws comes from rng as one vector call per
    variable, in this order: N in {1, 2, 3} (integers(1, 4)), gamma
    (uniform(0.1, 0.9)), p (uniform(2.05, 4) on the small branch,
    uniform(4, 8) on the large); on the small branch only, the Lipschitz
    mask (random() < 0.3) and its tau (uniform(0.05, 0.45), read where the
    mask is set); s (10**uniform(-4, -0.33) small, 10**uniform(-6, -1.5)
    large); then x, standard_normal((k, 3)) with the axes >= N set to zero,
    scaled to |x| = s.  A draw's modulus is lipschitz_modulus(tau) where the
    mask is set, else HolderModulus(gamma); the large branch's eps is
    (1 - gamma) / (2 max(p - 4, 1/4)).  min_eig_checks screens the block on
    its scalars, rejecting the large-branch draws whose index set is empty
    or whose damped inequality fails, and checks the accepted draws, one
    stack of matrices per N.  Rows keep the order of the draws.
    Rows: branch, p, N, gamma, s, rayleigh, bound, slack, rel_slack.
    """
    rows = []
    worst = np.inf
    for branch in ("small", "large"):
        done = 0
        while done < samples:
            k = samples - done
            N = rng.integers(1, 4, size=k)
            gamma = rng.uniform(0.1, 0.9, size=k)
            if branch == "small":
                p = rng.uniform(2.05, 4.0, size=k)
                lipschitz = rng.random(k) < 0.3  # Lipschitz moduli satisfy the same bound
                modulus = ModulusMix(HolderModulus(gamma),
                                     lipschitz_modulus(rng.uniform(0.05, 0.45, size=k)), lipschitz)
                s = 10.0 ** rng.uniform(-4.0, -0.33, size=k)
                eps = None
            else:
                p = rng.uniform(4.0, 8.0, size=k)
                modulus = HolderModulus(gamma)
                eps = (1.0 - gamma) / (2.0 * np.maximum(p - 4.0, 0.25))
                s = 10.0 ** rng.uniform(-6.0, -1.5, size=k)
            x = rng.standard_normal((k, 3))
            x[np.arange(3) >= N[:, None]] = 0.0
            x *= (s / np.sqrt(row_dots(x, x)))[:, None]
            ok, ray, bound, slack = min_eig_checks(x, N, p, eps, modulus)
            rel = slack / np.maximum(1.0, np.abs(bound))
            rows += [[branch, *row] for row in zip(
                p[ok].tolist(), N[ok].tolist(), gamma[ok].tolist(), s[ok].tolist(),
                ray.tolist(), bound.tolist(), slack.tolist(), rel.tolist())]
            worst = min(worst, float(rel.min(initial=np.inf)))
            done += len(rel)
    return rows, worst


def pair_rows(rng: np.random.Generator, samples: int):
    """`samples // 4` feasible doubling pairs per regime, at most 50 draws of a jet per pair.

    A regime draws its jets in blocks, each of as many draws as its quota
    still lacks.  A draw is (N, p, s, x, M), drawn one at a time, with its
    regime's eps at p.  Once a block is drawn, it is one Jets (jet_scalars)
    that carries each draw's M, p and eps, and Jets.large_branch screens it:
    a draw that fails the large branch's preconditions is rejected before
    any matrix is built or any pair drawn.  feasible_pair_conclusions then
    gives every surviving jet of the block its first feasible pair and that
    pair's conclusions, one stack of matrices per N, so no block reaches
    past the quota.  Rows keep the order of the draws.
    Raises RuntimeError when a regime's draws run out.
    Rows: regime, p, N, M, s, slack_all, slack_small, slack_large, slack_norm, rel_slack.
    """
    per = max(1, samples // len(REGIMES))
    rows = []
    for regime in REGIMES:
        done = 0
        attempts = 0
        while done < per and attempts < 50 * per:
            k = min(per - done, 50 * per - attempts)
            attempts += k
            heads, moduli, eps = [], [], []
            x = np.zeros((k, 3))
            for i in range(k):
                N = int(rng.integers(1, 4))
                p = DEFAULT_REGIME_P[regime] + float(rng.uniform(-0.4, 0.4))
                p = min(max(p, 2.1), 8.0)
                p = min(p, 4.0) if regime.endswith("small_p") else max(p, 4.0)
                params = regime_params(regime, p, N)
                # p >= 4 needs the damped inequality: sample below the regime threshold
                if params.eps is not None:
                    s = params.delta_N * 10.0 ** rng.uniform(-1.5, -0.1)
                else:
                    s = 10.0 ** rng.uniform(-4.0, -1.5)
                xi = rng.standard_normal(N)
                x[i, :N] = xi * (s / vector_norm(xi))
                M = float(rng.uniform(1.5, 50.0))
                heads.append([regime, p, N, M, s])
                moduli.append(params.modulus())
                eps.append(params.eps)
            _, p, N, M, _ = map(np.array, zip(*heads))
            jets = jet_scalars(x, N, M, p, eps, stacked(moduli))
            kept = np.flatnonzero(jets.large_branch()[1]).tolist()
            reps = feasible_pair_conclusions(jets.take(kept), rng)
            for j, rep in zip(kept, reps):
                rows.append(heads[j] + [rep.slack_all, rep.slack_small, rep.slack_large,
                                        rep.slack_norm, rep.min_relative_slack()])
            done += len(kept)
        if done < per:
            raise RuntimeError(f"could not draw {per} feasible pairs for {regime}")
    worst = np.inf
    for row in rows:
        worst = min(worst, row[-1])
    return rows, worst


def uncovered_pairs(rows) -> list:
    """The (regime, N) that pair_rows' rows leave without a row, as 'regime:N<k>'.

    In 1D, lipschitz_large_p draws never pass: the alpha term of
    eq_n_epsilon grows like s^-tau there, though it bounds a tangential part
    that one dimension lacks.
    """
    seen = {(row[0], row[2]) for row in rows}
    return [f"{regime}:N{N}" for regime in REGIMES for N in (1, 2, 3) if (regime, N) not in seen]


def zt_rows(rng: np.random.Generator, samples: int):
    """`samples` random draws of the power-gap (Z/T) inequality over p in [2.05, 8),
    drawn as one stack and checked by one zt_check call.

    The draws come from rng as one vector call per variable, in this order:
    N in {1, 2, 3} (integers(1, 4)), p (uniform(2.05, 8)), the theta factor
    (uniform(1e-3, 1), times min(1, p-2)); then Z's standard_normal((S, 3)),
    whose axes >= N are set to zero, and Z's scale 10**uniform(-3, 2); then
    T the same way.  A row's relative slack is slack / max(1, rhs).
    Rows: p, N, theta, slack, rel_slack.
    """
    N = rng.integers(1, 4, size=samples)
    p = rng.uniform(2.05, 8.0, size=samples)
    theta = rng.uniform(1e-3, 1.0, size=samples) * np.minimum(1.0, p - 2.0)
    padding = np.arange(3) >= N[:, None]

    def vectors():
        V = rng.standard_normal((samples, 3))
        V[padding] = 0.0
        return V * 10.0 ** rng.uniform(-3.0, 2.0, size=samples)[:, None]

    Z = vectors()
    T = vectors()
    slack = zt_check(Z, T, theta, p)
    nz, nt = (np.sqrt((V * V).sum(axis=1)) for V in (Z, T))
    rel = slack / np.maximum(1.0, slack + np.abs(nz ** (p - 2.0) - nt ** (p - 2.0)))
    rows = [list(row) for row in zip(p.tolist(), N.tolist(), theta.tolist(), slack.tolist(),
                                     rel.tolist())]
    return rows, float(rel.min(initial=np.inf))


def claims_rows(rng: np.random.Generator, regime: str, N: int, M: float, scales):
    """The claims scale sweep of one regime at its default p: (rows, verdict, params),
    the verdict from `evaluate_claims_sweep`, the regime's selectors as params.

    Rows: regime, p, N, M, s, ratio1, ratio2, ratio3, in_delta, eq_n_epsilon_ok.
    """
    params = regime_params(regime, DEFAULT_REGIME_P[regime], N)
    reports = claims_scale_sweep(params, M, scales, rng)
    rows = [[regime, rep.p, rep.N, rep.M, rep.s, rep.ratio1, rep.ratio2, rep.ratio3,
             rep.in_delta, rep.eq_n_epsilon_ok] for rep in reports]
    return rows, evaluate_claims_sweep(reports), params


def comparison_rows(rng: np.random.Generator, nodes: int, p: float, pairs: int):
    """Solved pairs on the 2D ball with f1 >= f2 and shared affine boundary data.

    Returns (rows, ok, solves): rows are trial, premise, conclusion,
    operator_gap, boundary_gap, interior_gap, conclusion_tol; solves lists
    (u, report, f, boundary) for each of the 2 * pairs solves.
    """
    grid = GridSpec(2, nodes, "ball")
    solver_cfg = SolveConfig(grad_tol=1e-6)
    rows = []
    ok = True
    solves = []
    for trial in range(pairs):
        f2 = gaussian_field(grid, amp=float(rng.uniform(-2, 2)),
                            center=rng.uniform(-0.5, 0.5, 2),
                            sigma=float(rng.uniform(0.2, 0.5)))
        bump = gaussian_field(grid, amp=float(rng.uniform(0.1, 2.0)),
                              center=rng.uniform(-0.5, 0.5, 2),
                              sigma=float(rng.uniform(0.2, 0.5)))
        f1 = ScalarField(grid, f2.values + bump.values)  # f1 >= f2 nodewise
        a = rng.uniform(-0.5, 0.5, 3)
        boundary = lambda pts, a=a: a[0] + a[1] * pts[:, 0] + a[2] * pts[:, 1]
        u, rep_u = solve_dirichlet(EnergyProblem(grid, p, f1, boundary), solver_cfg)
        v, rep_v = solve_dirichlet(EnergyProblem(grid, p, f2, boundary), solver_cfg)
        solves += [(u, rep_u, f1, boundary), (v, rep_v, f2, boundary)]
        res = comparison_check(u, v, p, tol=1e-5)
        rows.append([trial, res.premise_holds, res.conclusion_holds, res.operator_gap,
                     res.boundary_gap, res.interior_gap, res.conclusion_tol])
        ok = ok and res.premise_holds and res.conclusion_holds
    return rows, ok, solves
