"""Acceptance suite: every exit criterion, each as one standalone test.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line and asserts the
criterion at its stated tolerance and runtime budget.  Solves performed by
the suite register themselves so the barrier criterion can also verify the
explicit sup-norm bound on every converged solve.

Known honest failure: the claims criterion for the lipschitz_large_p regime
(see notes in the repository-external decisions ledger): with the pinned
parameter selectors, tau + (p-4) eps = 5/16 for every p >= 4, so the
normalized first eigenvalue must drift by at least 10^(15/16) ~ 8.7 > 4
across |xbar-ybar| in {1e-1..1e-4}; the regime's claims hold only below its
smallness threshold delta_N (~1e-33 at p = 6), which the mandated absolute
scales cannot reach.
"""

import time

import numpy as np
import pytest

from pseudoplap.barrier import linf_bound_check
from pseudoplap.claims import REGIMES, regime_params
from pseudoplap.grid import GridSpec, ScalarField, interior_mask, node_coordinates
from pseudoplap.grid import nonexterior_mask
from pseudoplap.lemmas import barrier_rows, claims_rows, comparison_rows, min_eig_rows
from pseudoplap.lemmas import pair_rows, zt_rows
from pseudoplap.manufactured import closed_form_1d, constant_field, gaussian_field
from pseudoplap.manufactured import separable_reference, separable_trace, zero_boundary
from pseudoplap.operators import apply_divergence, apply_nondivergence
from pseudoplap.regularity import estimate_constant, preset_sweep
from pseudoplap.solver import EnergyProblem, SolveConfig, solve_dirichlet

SOLVES = []  # (u, EnergyProblem) for every converged solve in the suite


def _solve(grid, p, f, boundary, grad_tol, register=True):
    prob = EnergyProblem(grid, p, f, boundary)
    u, rep = solve_dirichlet(prob, SolveConfig(grad_tol=grad_tol))
    assert rep.converged, f"solver did not converge (residual {rep.final_grad_sup:.3e})"
    if register:
        SOLVES.append((u, prob))
    return u, rep


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_oracle_1d():
    t0 = time.perf_counter()
    g = GridSpec(1, 257)
    u, rep = _solve(g, 3.0, constant_field(g, 1.0), zero_boundary, 1e-8)
    u_fn, _ = closed_form_1d(3.0, 1.0)
    err = np.abs(u.values - u_fn(g.axis_coords()))[nonexterior_mask(g)].max()
    elapsed = time.perf_counter() - t0
    ok = err <= 5.0 * g.spacing and elapsed < 60.0
    _report("1d_oracle", ok, f"Linf err {err:.3e} <= {5 * g.spacing:.3e}, {elapsed:.1f}s")


def test_criterion_02_manufactured_2d():
    # the separable reference w(x)+w(y) cannot vanish on the whole cube
    # boundary, so the Dirichlet data is its trace (decision ledgered)
    t0 = time.perf_counter()
    u_star, f_const = separable_reference(3.0, 2)
    errs = {}
    for n in (33, 65):
        g = GridSpec(2, n, "cube")
        u, _ = _solve(g, 3.0, constant_field(g, f_const), separable_trace(3.0), 1e-7)
        idx = np.argwhere(nonexterior_mask(g))
        exact = u_star(node_coordinates(g, idx))
        errs[n] = np.abs(u.values[tuple(idx.T)] - exact).max()
    ratio = errs[33] / errs[65]
    elapsed = time.perf_counter() - t0
    ok = ratio >= 1.4 and elapsed < 300.0
    _report("2d_manufactured", ok,
            f"errors {errs[33]:.3e} -> {errs[65]:.3e}, ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_03_homogeneity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.choice([9, 17]))
        g = GridSpec(int(rng.integers(1, 3)), n)
        vals = np.where(nonexterior_mask(g), rng.standard_normal(g.node_shape), np.nan)
        u = ScalarField(g, vals)
        lam = float(10.0 ** rng.uniform(-1, 1))
        p = float(rng.uniform(2.1, 6.0))
        for apply in (apply_divergence, apply_nondivergence):
            # sup over interior nodes of |A(lam u) - lam^{p-1} A(u)|
            base = apply(u, p).values
            scaled = apply(ScalarField(g, lam * u.values), p).values
            mask = interior_mask(g)
            defect = float(np.abs(scaled[mask] - lam ** (p - 1.0) * base[mask]).max())
            scale = max(1.0, lam ** (p - 1.0) * np.nanmax(np.abs(base)))
            worst = max(worst, defect / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report("homogeneity", ok, f"worst relative defect {worst:.3e}, {elapsed:.1f}s")


def test_criterion_04_comparison():
    t0 = time.perf_counter()
    rows, _, solves = comparison_rows(np.random.default_rng(2024), 65, 3.0, 50)
    for u, rep, f, boundary in solves:
        assert rep.converged, f"solver did not converge (residual {rep.final_grad_sup:.3e})"
        SOLVES.append((u, EnergyProblem(u.grid, 3.0, f, boundary)))
    failures = [row for row in rows if not (row[1] and row[2])]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    _report("comparison", ok, f"50 pairs, {len(failures)} counterexamples, {elapsed:.0f}s")


def test_criterion_05_barrier():
    t0 = time.perf_counter()
    rows, _ = barrier_rows(129, (2.5, 3.0, 4.0, 5.0, 6.0), (1, 2, 3))
    for p, N, _, _, viol, tol, _ in rows:
        assert viol <= tol, (p, N, viol, tol)
    worst_gap = max(viol - tol for *_, viol, tol, _ in rows)
    # explicit sup-norm bound on representative solves plus everything the
    # suite has solved so far
    g1 = GridSpec(1, 129)
    _solve(g1, 3.0, constant_field(g1, 1.0), zero_boundary, 1e-7)
    g2 = GridSpec(2, 65)
    _solve(g2, 4.0, gaussian_field(g2, amp=2.0, sigma=0.4), zero_boundary, 1e-6)
    bad = []
    for u, prob in SOLVES:
        bound, satisfied = linf_bound_check(u, prob, solver_tol=1e-5)
        if not satisfied:
            bad.append((prob.p, u.sup_norm(), bound))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    _report("barrier", ok,
            f"15 (p,N) supersolution checks, worst margin {worst_gap:.3e}; "
            f"linf bound on {len(SOLVES)} solves, {len(bad)} violations, {elapsed:.0f}s")


def test_criterion_06_min_eig_bounds():
    t0 = time.perf_counter()
    rows, worst = min_eig_rows(np.random.default_rng(7_001), 1000)
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 2000 and worst >= -1e-9 and elapsed < 30.0
    _report("min_eig_bounds", ok,
            f"{len(rows)} samples, worst rel slack {worst:.3e}, {elapsed:.1f}s")


def test_criterion_07_pair_conclusions():
    t0 = time.perf_counter()
    rows, worst = pair_rows(np.random.default_rng(7_002), 500)
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 500 and worst >= -1e-9 and elapsed < 60.0
    _report("pair_conclusions", ok,
            f"{len(rows)} feasible pairs, worst rel slack {worst:.3e}, {elapsed:.1f}s")


def test_criterion_08_zt_inequality():
    t0 = time.perf_counter()
    _, worst = zt_rows(np.random.default_rng(7_003), 10_000)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 5.0
    _report("zt_inequality", ok, f"10^4 samples, worst rel slack {worst:.3e}, {elapsed:.1f}s")


@pytest.mark.parametrize("regime", REGIMES)
def test_criterion_09_claims_scaffold(regime):
    t0 = time.perf_counter()
    _, verdict, params = claims_rows(np.random.default_rng(7_004), regime, 2, 10.0,
                                     [1e-1, 1e-2, 1e-3, 1e-4])
    assert params.exponents_ordered()
    elapsed = time.perf_counter() - t0
    ok = verdict["ok"] and elapsed < 30.0
    _report(f"claims_{regime}", ok, verdict["detail"] + f", {elapsed:.1f}s")


def test_criterion_09b_claims_exponent_sweep():
    t0 = time.perf_counter()
    for regime in REGIMES:
        small = regime.endswith("small_p")
        for p in np.linspace(2.1, 4.0, 8) if small else np.linspace(4.0, 8.0, 8):
            for N in (1, 2, 3):
                gammas = (0.2, 0.5, 0.8) if regime.startswith("holder") else (None,)
                for gamma in gammas:
                    rp = regime_params(regime, float(p), N, gamma=gamma)
                    assert rp.exponents_ordered(), (regime, p, N, gamma)
    elapsed = time.perf_counter() - t0
    _report("claims_exponent_orderings", elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_10_regularity_estimate():
    t0 = time.perf_counter()
    g = GridSpec(2, 65)
    cfg = SolveConfig(grad_tol=1e-8)
    # seed 1234 also checks the ratio's invariance under lambda in {0.1, 10}
    records, scale_rows, conv_a = preset_sweep(g, 3.0, 0.5, (), (0.1, 10.0), cfg,
                                               np.random.default_rng(1234))
    c_a = estimate_constant(records)
    records_b, _, conv_b = preset_sweep(g, 3.0, 0.5, (), (), cfg, np.random.default_rng(99))
    c_b = estimate_constant(records_b)
    assert all(conv_a + conv_b), "solver did not converge"
    seed_drift = abs(c_a - c_b) / c_a
    scale_drift = max(row[2] for row in scale_rows)
    elapsed = time.perf_counter() - t0
    ok = (np.isfinite(c_a) and seed_drift < 0.01 and scale_drift <= 1e-6
          and elapsed < 900.0)
    _report("regularity_estimate", ok,
            f"C = {c_a:.6g}, seed drift {seed_drift:.2e}, "
            f"scaling drift {scale_drift:.2e}, {elapsed:.0f}s")


def test_criterion_11_determinism(tmp_path):
    from pseudoplap.cli import main

    cfg_text = """
[lemmas]
run_barrier = true
barrier_nodes = 33
barrier_p_list = 3, 5
barrier_N_list = 1, 2
run_min_eig = true
min_eig_samples = 60
run_pair = true
pair_samples = 20
run_zt = true
zt_samples = 500
run_claims = true
claims_scales = 0.01, 0.001
"""
    cfg = tmp_path / "lemmas.ini"
    cfg.write_text(cfg_text)
    solve_cfg = tmp_path / "solve.ini"
    solve_cfg.write_text(
        "[problem]\np = 3.0\ndimension = 1\nnodes = 65\nf = constant\nf_value = 1.0\n"
        "boundary = zero\n\n[solver]\ngrad_tol = 1e-7\n")
    outs = []
    for sub, conf in (("verify-lemmas", cfg), ("solve", solve_cfg)):
        pair = []
        for rep in ("x", "y"):
            out = tmp_path / f"{sub}-{rep}"
            code = main([sub, "--config", str(conf), "--seed", "77", "--out", str(out)])
            assert code in (0, 1)
            blob = b"".join(sorted(
                f.read_bytes() for f in out.iterdir() if f.suffix == ".csv"))
            pair.append(blob)
        outs.append(pair[0] == pair[1])
    _report("determinism", all(outs), f"verify-lemmas and solve reruns byte-identical")
