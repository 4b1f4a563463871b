import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_reference import descent_solve
from pseudoplap.grid import GridSpec, ScalarField, boundary_mask, interior_mask
from pseudoplap.grid import mirror_axes, node_coordinates, nonexterior_mask
from pseudoplap.manufactured import closed_form_1d, constant_boundary, constant_field
from pseudoplap.manufactured import separable_trace
from pseudoplap.manufactured import sweep_presets, zero_boundary
from pseudoplap.operators import apply_divergence
from pseudoplap.solver import EnergyProblem, SolveConfig, _Workspace, energy
from pseudoplap.solver import energy_gradient, solve_dirichlet


def shared_boundary_field(grid, seed, boundary_vals=None):
    rng = np.random.default_rng(seed)
    vals = np.where(nonexterior_mask(grid), rng.standard_normal(grid.node_shape), np.nan)
    if boundary_vals is not None:
        vals[boundary_mask(grid)] = boundary_vals
    return ScalarField(grid, vals)


def test_energy_zero_field():
    g = GridSpec(2, 9)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    u = ScalarField.from_function(g, lambda pts: np.zeros(len(pts)))
    assert energy(u, prob) == 0.0


def test_energy_1d_hand_sum():
    g = GridSpec(1, 9)  # h = 0.25, 8 links
    prob = EnergyProblem(g, 3.0, constant_field(g, 0.0), zero_boundary)
    u = ScalarField.from_function(g, lambda pts: pts[:, 0])
    assert abs(energy(u, prob) - 2.0 / 3.0) < 1e-14


def test_energy_convex_midpoint():
    g = GridSpec(2, 17)
    prob = EnergyProblem(g, 3.5, constant_field(g, 0.7), zero_boundary)
    bvals = np.zeros(boundary_mask(g).sum())
    for seed in range(100):
        u = shared_boundary_field(g, 2 * seed, bvals)
        w = shared_boundary_field(g, 2 * seed + 1, bvals)
        mid = ScalarField(g, 0.5 * (u.values + w.values))
        lhs = energy(mid, prob)
        rhs = 0.5 * (energy(u, prob) + energy(w, prob))
        assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def test_gradient_matches_finite_differences():
    g = GridSpec(2, 17)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.3), zero_boundary)
    u = shared_boundary_field(g, 5)
    grad = energy_gradient(u, prob)
    rng = np.random.default_rng(8)
    nodes = np.argwhere(interior_mask(g))
    eps = 1e-6 * max(1.0, u.sup_norm())
    for k in rng.choice(len(nodes), size=100, replace=False):
        node = tuple(nodes[k])
        up, dn = ScalarField(g, u.values.copy()), ScalarField(g, u.values.copy())
        up.values[node] += eps
        dn.values[node] -= eps
        fd = (energy(up, prob) - energy(dn, prob)) / (2.0 * eps)
        g_val = grad.values[node]
        assert abs(fd - g_val) <= 1e-6 * max(1.0, abs(g_val))


def test_gradient_linear_in_f_shift():
    g = GridSpec(2, 17)
    p, c = 3.0, 0.8
    f = constant_field(g, 1.0)
    prob1 = EnergyProblem(g, p, f, zero_boundary)
    prob2 = EnergyProblem(g, p, ScalarField(g, f.values + c), zero_boundary)
    u = shared_boundary_field(g, 1)
    g1 = energy_gradient(u, prob1)
    g2 = energy_gradient(u, prob2)
    mask = interior_mask(g)
    shift = (p - 1.0) * c * g.spacing**g.dimension
    assert np.allclose(g2.values[mask] - g1.values[mask], shift, rtol=0,
                       atol=64 * np.finfo(float).eps * np.abs(g1.values[mask]).max())


def test_energy_reuses_the_problems_workspace_and_reads_changes():
    # repeated calls share one workspace; a changed p, f (replaced or written
    # in place) or grid gives what a fresh problem gives, bit for bit
    g = GridSpec(2, 17)
    prob = EnergyProblem(g, 3.0, constant_field(g, 0.7), zero_boundary)
    u = shared_boundary_field(g, 3)
    energy(u, prob)
    ws = prob._workspace[1]
    energy_gradient(u, prob)
    assert prob._workspace[1] is ws

    def fresh():
        return EnergyProblem(prob.grid, prob.p, prob.f, zero_boundary)

    prob.p = 3.5
    assert energy(u, prob) == energy(u, fresh())
    prob.f = constant_field(g, -0.2)
    assert energy(u, prob) == energy(u, fresh())
    prob.f.values[interior_mask(g)] += 1.0
    assert energy(u, prob) == energy(u, fresh())
    assert np.array_equal(energy_gradient(u, prob).values, energy_gradient(u, fresh()).values,
                          equal_nan=True)
    g3 = GridSpec(3, 9)
    prob.grid, prob.f, u = g3, constant_field(g3, 0.5), shared_boundary_field(g3, 4)
    assert energy(u, prob) == energy(u, fresh())


@pytest.mark.parametrize("dim,nodes,p", [(1, 33, 3.0), (2, 17, 2.5), (3, 9, 4.0)])
def test_gradient_equals_energy_path_bitwise(dim, nodes, p):
    # energy_gradient is the residual of the weights that the energy fills,
    # read from the problem's cached workspace, to the bit
    g = GridSpec(dim, nodes, "ball")
    prob = EnergyProblem(g, p, constant_field(g, 0.9), zero_boundary)
    u = shared_boundary_field(g, 11)
    ws = _Workspace(prob)
    ws.energy(u.values)
    expected = -ws.residual() * ws.hN
    expected[~ws.interior] = np.nan
    assert np.array_equal(energy_gradient(u, prob).values, expected, equal_nan=True)


@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("dim,nodes", [(1, 35), (2, 19), (3, 11)])
def test_residual_is_divergence_form_bitwise(dim, nodes, shape):
    # the solver's residual and apply_divergence share their flux kernels, so
    # residual = A_div(u) - (p-1) f to the bit on interior nodes; the test
    # subtracts, since (r + c) - c need not give r back in floating point.
    # h is not a power of 2, so a reordered division by h would show.
    g = GridSpec(dim, nodes, shape)
    u = shared_boundary_field(g, 7)
    f = ScalarField(g, np.random.default_rng(8).standard_normal(g.node_shape))
    mask = interior_mask(g)
    for p in (2.3, 3.0, 5.7):
        ws = _Workspace(EnergyProblem(g, p, f, zero_boundary))
        ws.energy(u.values)
        expected = apply_divergence(u, p).values - (p - 1.0) * f.values
        assert np.array_equal(ws.residual()[mask], expected[mask])


def test_solve_trivial_converges_immediately():
    g = GridSpec(2, 17)
    prob = EnergyProblem(g, 3.0, constant_field(g, 0.0), zero_boundary)
    u, rep = solve_dirichlet(prob)
    assert rep.converged and rep.reason == "converged" and rep.iterations == 0
    assert np.allclose(u.values[nonexterior_mask(g)], 0.0)


def test_solve_1d_closed_form():
    u_fn, _ = closed_form_1d(3.0, 1.0)
    for n in (129, 513, 1025):
        g = GridSpec(1, n)
        prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
        u, rep = solve_dirichlet(prob, SolveConfig(grad_tol=1e-8))
        assert rep.converged, (n, rep)
        err = np.abs(u.values - u_fn(g.axis_coords()))[nonexterior_mask(g)].max()
        assert err <= 5.0 * g.spacing


def test_solve_report_contract():
    g = GridSpec(1, 65)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    cfg = SolveConfig(grad_tol=1e-7)
    u, rep = solve_dirichlet(prob, cfg)
    assert rep.converged
    assert rep.final_grad_sup <= cfg.grad_tol
    # stationarity: gradient sup-norm is the residual times h^N
    grad = energy_gradient(u, prob)
    assert np.nanmax(np.abs(grad.values)) <= cfg.grad_tol * g.spacing**g.dimension
    # accepted iterates have non-increasing energy up to rounding slack; the
    # solve is deterministic, so stopping it after k steps gives the k-th iterate
    assert rep.iterations > 1
    E = np.array([solve_dirichlet(prob, dataclasses.replace(cfg, max_iters=k))[1].final_energy
                  for k in range(1, rep.iterations + 1)])
    assert E[-1] == rep.final_energy
    assert (np.diff(E) <= 1e-12 * np.maximum(1.0, np.abs(E[:-1]))).all()


def test_solve_nonconvergence_reported_not_raised():
    g = GridSpec(1, 129)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    u, rep = solve_dirichlet(prob, SolveConfig(grad_tol=1e-12, max_iters=2))
    assert not rep.converged
    assert rep.reason == "max_iters" and rep.iterations == 2


def test_solve_stalls_at_rounding_floor():
    # a residual of 1e-16 is below what double precision resolves here (~1e-12)
    g = GridSpec(1, 129)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    _, rep = solve_dirichlet(prob, SolveConfig(grad_tol=1e-16))
    assert not rep.converged
    assert rep.reason == "stalled" and rep.iterations <= 100


@pytest.mark.parametrize("dim, nodes", [(1, 129), (1, 131), (2, 33)])
def test_solve_matches_descent_reference(dim, nodes):
    # Both solves stop at sup|A_div(u) - (p-1) f| <= tol, so their residuals
    # differ by at most 2 tol.  To first order u_newton - u_descent =
    # H^-1 (r_newton - r_descent), H the Hessian at the solution; H is an
    # M-matrix, so sup|H^-1 g| <= sup|g| sup(H^-1 1).  sup(H^-1 1) is
    # 1/(3 sqrt 2) ~ 0.236 in 1D (the closed form of -(2 sqrt(2|x|) w')' = 1
    # with w(+-1) = 0) and measures 0.17 on the 2D n=33 ball; 0.25 covers both.
    g = GridSpec(dim, nodes)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    cfg = SolveConfig(grad_tol=1e-8)
    u, rep = solve_dirichlet(prob, cfg)
    # descent needs far more steps than the Newton default allows
    ref, _, ref_converged = descent_solve(prob, dataclasses.replace(cfg, max_iters=200_000))
    assert rep.converged and ref_converged
    mask = nonexterior_mask(g)
    assert np.abs(u.values - ref)[mask].max() <= 2.0 * cfg.grad_tol * 0.25


@pytest.mark.parametrize("nodes", [257, 513])
def test_solve_1d_takes_one_cg_iteration_per_newton_step(nodes):
    g = GridSpec(1, nodes)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    _, rep = solve_dirichlet(prob, SolveConfig(grad_tol=1e-8))
    assert rep.converged and rep.inner_iterations == rep.iterations


@pytest.mark.parametrize("p", [2.3, 3.0, 6.0])
@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("nodes", [129, 131])
def test_exact_1d_preconditioner_inverts_the_hessian(nodes, shape, p):
    # n = 129 with f = 1 takes the mirror box, n = 131 with an asymmetric f
    # the whole grid; the field's slopes lie in [-1, 1], so that at p = 6
    # H's link weights spread over about five decades
    g = GridSpec(1, nodes, shape)
    rng = np.random.default_rng(1)
    f = constant_field(g, 1.0) if nodes == 129 else ScalarField(g, rng.standard_normal(nodes))
    prob = EnergyProblem(g, p, f, zero_boundary)
    axes = mirror_axes(g, f.values)
    assert axes == ((0,) if nodes == 129 else ())
    ws = _Workspace(prob, axes)
    ws.energy(np.cumsum(rng.uniform(-1.0, 1.0, ws.inside.size)) * g.spacing)
    ws.residual()
    ws.newton_step(1e-3, 0.5)  # sets H's link weights and their inverses
    r = np.where(ws.inside, rng.standard_normal(ws.inside.size), 0.0)
    z, hz = np.empty(r.size), np.full(r.size, np.nan)
    ws._exact_1d(r, z)
    ws._hess_apply(ws._hess_slices(z, hz, ws.weights, ws._flux, ws.scratch), hz)
    assert np.linalg.norm(hz - r) <= 1e-12 * np.linalg.norm(r)


def test_solve_small_scale_copy_converges():
    # the lambda = 1e-4 copy of measure-regularity's first preset: f and
    # grad_tol scaled by lambda^(p-1) = 1e-8.  Descent, whose step metric was
    # floored at 1, had not converged here after 20,000 iterations.
    g = GridSpec(2, 33)
    _, f0 = sweep_presets(g, np.random.default_rng(0))[0]
    f = ScalarField(g, 1e-8 * f0.values)
    _, rep = solve_dirichlet(EnergyProblem(g, 3.0, f, zero_boundary),
                             SolveConfig(grad_tol=1e-16))
    assert rep.converged, rep


def test_solve_scaling_relation():
    # solving with (lam^{p-1} f, lam * boundary) yields lam * u
    g = GridSpec(2, 33)
    p, lam = 3.0, 2.5
    f = constant_field(g, 1.0)
    base_cfg = SolveConfig(grad_tol=1e-8)
    u, _ = solve_dirichlet(EnergyProblem(g, p, f, lambda pts: 0.1 * pts[:, 0]), base_cfg)
    f_l = ScalarField(g, lam ** (p - 1.0) * f.values)
    cfg_l = SolveConfig(grad_tol=1e-8 * lam ** (p - 1.0))
    u_l, _ = solve_dirichlet(
        EnergyProblem(g, p, f_l, lambda pts: lam * 0.1 * pts[:, 0]), cfg_l)
    mask = nonexterior_mask(g)
    assert np.abs(u_l.values[mask] - lam * u.values[mask]).max() < 1e-7


def test_solve_nan_in_line_search_raises(monkeypatch):
    g = GridSpec(1, 9)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    real_step = _Workspace.newton_step

    def poisoned_step(ws, reg, rtol):
        out = real_step(ws, reg, rtol)
        ws.step[4] = np.nan  # the trial point's energy is NaN
        return out

    monkeypatch.setattr(_Workspace, "newton_step", poisoned_step)
    with pytest.raises(RuntimeError, match="non-finite energy in line search"):
        solve_dirichlet(prob, SolveConfig())


def test_line_search_rejects_a_rise_beyond_its_rounding_slack(monkeypatch):
    # the Armijo test forgives a rise of 8 eps |J| for rounding, no more: the
    # full step of the last Newton step is made to read 100 eps |J_u| above
    # J_u, so it must be halved, and the solve takes one backtrack more
    g = GridSpec(2, 33)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    cfg = SolveConfig(grad_tol=1e-8)
    _, plain = solve_dirichlet(prob, cfg)
    real_energy, real_step = _Workspace.energy, _Workspace.newton_step
    seen = {"steps": 0, "J_u": None, "raise": False}

    def energy_raised_once(ws, v):
        J = real_energy(ws, v)  # its link weights are still written
        if seen["raise"]:
            seen["raise"] = False
            return seen["J_u"] + 100.0 * np.finfo(float).eps * abs(seen["J_u"])
        seen["J_u"] = J  # the last energy before a Newton step is J_u
        return J

    def counted_step(ws, reg, rtol):
        seen["steps"] += 1
        seen["raise"] = seen["steps"] == plain.iterations
        return real_step(ws, reg, rtol)

    monkeypatch.setattr(_Workspace, "energy", energy_raised_once)
    monkeypatch.setattr(_Workspace, "newton_step", counted_step)
    _, raised = solve_dirichlet(prob, cfg)
    assert plain.converged and raised.converged
    assert seen["steps"] >= plain.iterations and not seen["raise"]
    assert raised.backtracks == plain.backtracks + 1


@pytest.mark.parametrize("dim, axes", [(1, ()), (1, (0,)), (2, ()), (2, (0, 1))])
def test_workspace_is_freed_without_the_garbage_collector(dim, axes):
    # a workspace holds no reference cycle, so its node arrays go as soon as
    # a solve drops it, not when the collector next runs
    g = GridSpec(dim, 17)
    ws = _Workspace(EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary), axes)
    ws.energy(np.zeros(ws.inside.size))
    ws.residual()
    ws.newton_step(1e-2, 0.5)
    freed = weakref.ref(ws)
    gc.disable()
    try:
        del ws
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("axes", [(), (0,)], ids=["grid", "box"])
def test_1d_workspace_builds_no_cg_state(axes):
    # the 1D step is H's exact inverse applied to r, so a 1D workspace, on
    # the whole grid or on a mirror box, has neither CG set nor CG's direction
    g = GridSpec(1, 17)
    ws = _Workspace(EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary), axes)
    assert ws.cg64 is None and ws.cg32 is None
    assert not hasattr(ws, "cg_dir")


@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("dim, axes", [(2, ()), (2, (0, 1)), (3, ()), (3, (0,))],
                         ids=["2d-grid", "2d-box", "3d-grid", "3d-box"])
def test_hessian_weights_are_zero_on_off_links(dim, axes, shape):
    # newton_step leaves H's link weights behind: 0 on every off link (the
    # wraps across rows, and the links to exterior nodes), and (w + reg)
    # scale on the others, w's count being its upper node's on a box
    g = GridSpec(dim, 17, shape)
    p, reg = 3.0, 1e-3
    ws = _Workspace(EnergyProblem(g, p, constant_field(g, 1.0), zero_boundary), axes)
    ws.energy(shared_boundary_field(g, 7).values[ws.box])
    w = [c[:off.size].copy() for c, off in zip(ws.weights, ws.off_links)]
    ws.residual()
    ws.newton_step(reg, 0.1)
    counts = ws.mult if axes else np.ones(ws.inside.size)
    assert any(off.any() for off in ws.off_links)
    for s, off, w, c in zip(ws.strides, ws.off_links, w, ws.weights):
        c, on = c[:off.size], ~off
        assert (c[off] == 0).all()
        assert np.array_equal(c[on], (w[on] + counts[s:][on] * reg) * ((p - 1.0) / g.spacing**2))


@pytest.mark.parametrize("dim, message", [(1, "exact 1D step: s.Hs nan"),
                                          (2, "PCG: curvature nan")], ids=["1d", "2d"])
def test_pcg_raises_on_nan(dim, message):
    # a NaN in r at the centre node: the 1D step, H's exact inverse applied
    # to r, fails its s.Hs guard; in 2D the float32 step declines r, and the
    # float64 CG that reruns it fails its curvature guard
    g = GridSpec(dim, 9)
    ws = _Workspace(EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary))
    ws.energy(np.zeros(g.node_shape))
    ws.residual()[(4,) * dim] = np.nan
    with pytest.raises(RuntimeError, match=message):
        ws.newton_step(1e-2, 0.5)
    assert ws.float64_reruns == dim - 1


def test_float32_step_with_negative_r_s_reruns_in_float64(monkeypatch):
    # every float32 step is turned into its negative, which keeps s.Hs > 0
    # but has r.s < 0, so no step is a descent direction: each must rerun in
    # float64, and the solve still converges
    pcg = _Workspace._pcg

    def negated(self, cg, rtol, floor):
        k, curv = pcg(self, cg, rtol, floor)
        if cg is self.cg32:
            np.negative(cg.s, out=cg.s)
        return k, curv

    g = GridSpec(2, 17)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    monkeypatch.setattr(_Workspace, "_pcg", negated)
    u, rep = solve_dirichlet(prob, SolveConfig(grad_tol=1e-8))
    assert rep.converged and rep.iterations > 1
    assert rep.float64_reruns == rep.iterations


def test_solver_stationarity_matches_divergence_form():
    g = GridSpec(2, 33)
    f = constant_field(g, 2.0)
    prob = EnergyProblem(g, 3.0, f, zero_boundary)
    u, rep = solve_dirichlet(prob, SolveConfig(grad_tol=1e-7))
    out = apply_divergence(u, 3.0)
    mask = interior_mask(g)
    res = np.abs(out.values[mask] - 2.0 * f.values[mask]).max()
    assert res <= rep.final_grad_sup * (1 + 1e-12)


@st.composite
def random_problems(draw):
    """(problem, whether f is mirror-symmetrised): p in (2, 8]; 1D n = 9, 17
    or 33, 2D n = 9, 11, 15, 17 or 19, or 3D n = 9 or 11 (n = 11, 15 and 19
    are not 2^k + 1, so they never take a mirror box); the ball or the cube;
    f of amplitude at most 4 (0 for some draws), symmetrised along every
    axis or not; zero or constant boundary data, or, for some draws,
    separable_trace data of some c > 0."""
    dim = draw(st.sampled_from([1, 2, 3]))
    nodes = {1: [9, 17, 33], 2: [9, 11, 15, 17, 19], 3: [9, 11]}[dim]
    g = GridSpec(dim, draw(st.sampled_from(nodes)), draw(st.sampled_from(["ball", "cube"])))
    p = draw(st.floats(2.0, 8.0, exclude_min=True))
    amp = draw(st.one_of(st.just(0.0), st.floats(0.25, 4.0)))
    symmetric = draw(st.booleans())
    if draw(st.integers(0, 3)):
        boundary = constant_boundary(draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))))
    else:
        boundary = separable_trace(p, draw(st.floats(0.1, 2.0)))
    f = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-amp, amp, g.node_shape)
    if symmetric:  # a + flip(a) equals its flip bit for bit; 1/2 is exact
        for ax in range(dim):
            f = 0.5 * (f + np.flip(f, ax))
    return EnergyProblem(g, p, ScalarField(g, f), boundary), symmetric


@given(random_problems())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_solve_is_certified_on_random_problems(drawn):
    # every solve converges with no float64 rerun, and its sup|r| bounds the
    # divergence-form residual of the unfolded field.  It takes the mirror
    # box of every axis exactly when n = 2^k + 1 and f is symmetric or zero
    # (all the boundary data drawn are mirror-exact), and unfolds to a field
    # equal to its flips; it takes no Newton step exactly when f = 0 and
    # the boundary values are constant (separable_trace data are 0 at both
    # ends in 1D), whose value is then the solution from the start
    prob, symmetric = drawn
    tol = 1e-8
    u, rep = solve_dirichlet(prob, SolveConfig(grad_tol=tol))
    assert rep.converged and rep.float64_reruns == 0
    g, f = prob.grid, prob.f.values
    mask = interior_mask(g)
    res = np.abs(apply_divergence(u, prob.p).values[mask] - (prob.p - 1.0) * f[mask]).max()
    assert res <= rep.final_grad_sup * (1 + 1e-12)
    n = g.nodes_per_axis
    if (n - 1) & (n - 2) == 0 and (symmetric or not f.any()):
        assert rep.mirror_axes == tuple(range(g.dimension))
        for ax in rep.mirror_axes:
            assert np.array_equal(u.values, np.flip(u.values, ax), equal_nan=True)
    else:
        assert rep.mirror_axes == ()
    bvals = prob.boundary_values()
    constant_start = not f.any() and (bvals == bvals[0]).all()
    assert (rep.iterations == 0) == constant_start
    if constant_start:
        assert (u.values[nonexterior_mask(g)] == bvals[0]).all()


def hessian_inverse_sup(u: ScalarField, p: float) -> float:
    """sup(H^-1 1) for the unlifted Hessian per unit volume at u, whose link
    weights are (p-1) |D u|^(p-2) / h^2, assembled and inverted densely on
    the interior nodes (the boundary values are fixed)."""
    g, h = u.grid, u.grid.spacing
    interior, ok = interior_mask(g), nonexterior_mask(g)
    index = np.full(g.node_shape, -1)
    index[interior] = np.arange(interior.sum())
    H = np.zeros((interior.sum(),) * 2)
    for ax in range(g.dimension):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        on = ok[lo] & ok[hi]
        c = (p - 1.0) * np.abs((u.values[hi] - u.values[lo])[on] / h) ** (p - 2.0) / (h * h)
        for a, b in ((index[lo][on], index[hi][on]), (index[hi][on], index[lo][on])):
            row = a >= 0
            np.add.at(H, (a[row], a[row]), c[row])
            row &= b >= 0
            np.add.at(H, (a[row], b[row]), -c[row])
    return float(np.linalg.solve(H, np.ones(len(H))).max())


@st.composite
def descent_problems(draw):
    """(problem, whether f is mirror-symmetrised): 2D n = 9, 11, 15 or 17,
    or 3D n = 9, on the ball; p in (2, 8]; f of amplitude in [0.25, 4],
    symmetrised along every axis or not, so that n = 9 and 17 take the
    mirror box or the whole grid; zero or constant boundary data."""
    dim = draw(st.sampled_from([2, 3]))
    g = GridSpec(dim, draw(st.sampled_from([9, 11, 15, 17] if dim == 2 else [9])))
    p = draw(st.floats(2.0, 8.0, exclude_min=True))
    amp = draw(st.floats(0.25, 4.0))
    symmetric = draw(st.booleans())
    boundary = constant_boundary(draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))))
    f = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-amp, amp, g.node_shape)
    if symmetric:
        for ax in range(dim):
            f = 0.5 * (f + np.flip(f, ax))
    return EnergyProblem(g, p, ScalarField(g, f), boundary), symmetric


@given(descent_problems())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_solve_matches_descent_reference_on_random_problems(drawn):
    # test_solve_matches_descent_reference's first-order bound, with
    # sup(H^-1 1) computed per case at the Newton solution in place of 0.25
    prob, symmetric = drawn
    cfg = SolveConfig(grad_tol=1e-8)
    u, rep = solve_dirichlet(prob, cfg)
    n = prob.grid.nodes_per_axis
    assert rep.converged
    assert rep.mirror_axes == (tuple(range(prob.grid.dimension)) if symmetric and n in (9, 17)
                               else ())
    ref, _, ref_converged = descent_solve(prob, dataclasses.replace(cfg, max_iters=200_000))
    assert ref_converged
    mask = nonexterior_mask(prob.grid)
    bound = 2.0 * cfg.grad_tol * hessian_inverse_sup(u, prob.p)
    assert np.abs(u.values - ref)[mask].max() <= bound


def test_energy_problem_validation():
    g = GridSpec(2, 9)
    with pytest.raises(ValueError, match="p must be > 2"):
        EnergyProblem(g, 2.0, constant_field(g, 1.0), zero_boundary)
    bad = ScalarField(g, np.full(g.node_shape, np.nan))
    with pytest.raises(ValueError, match="interior"):
        EnergyProblem(g, 3.0, bad, zero_boundary)
    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0),
                         lambda pts: np.full(len(pts), np.inf))
    with pytest.raises(ValueError, match="boundary"):
        prob.boundary_values()


def _off_both_planes(g, mask):
    """The first node of the mask that lies on no mirror plane."""
    m = (g.nodes_per_axis - 1) // 2
    return next(tuple(i) for i in np.argwhere(mask) if (i != m).all())


def _one_ulp_off(prob, in_boundary):
    """The problem with f, or the boundary data, one ulp up at one node off
    every mirror plane: mirror-exact to one ulp, so it is solved on the
    whole grid."""
    g = prob.grid
    if not in_boundary:
        f = prob.f.values.copy()
        node = _off_both_planes(g, interior_mask(g))
        f[node] = np.nextafter(f[node], np.inf)
        return EnergyProblem(g, prob.p, ScalarField(g, f), prob.boundary_data)
    node = np.array(_off_both_planes(g, boundary_mask(g)))

    def nudged(points):
        vals = np.array(prob.boundary_data(points), dtype=float)
        at = (points == node_coordinates(g, node[None])).all(axis=1)
        vals[at] = np.nextafter(vals[at], np.inf)
        return vals

    return EnergyProblem(g, prob.p, prob.f, nudged)


def _tilt(g):
    return dict(sweep_presets(g, np.random.default_rng(0)))["tilt"]


# (grid, f, boundary data, grad_tol, the axes the solve reduces)
REDUCED_CASES = {
    "1d": (GridSpec(1, 129), lambda g: constant_field(g, 1.0), zero_boundary, 1e-8, (0,)),
    "2d": (GridSpec(2, 33), lambda g: constant_field(g, 1.0), zero_boundary, 1e-8, (0, 1)),
    "3d": (GridSpec(3, 17), lambda g: constant_field(g, 1.0), zero_boundary, 1e-6, (0, 1, 2)),
    "tilt": (GridSpec(2, 33), _tilt, zero_boundary, 1e-8, (1,)),
    "cube": (GridSpec(2, 33, "cube"), lambda g: constant_field(g, -0.7), zero_boundary, 1e-8,
             (0, 1)),
    "separable_trace": (GridSpec(2, 33), lambda g: constant_field(g, 2.0),
                        separable_trace(3.0), 1e-8, (0, 1)),
}


@pytest.mark.parametrize("case", sorted(REDUCED_CASES))
def test_reduced_solve_matches_full_grid_solve(case):
    # The same problem one ulp off mirror-exact takes the whole grid; both
    # stop at sup|r| <= tol, so they agree within the bound of
    # test_solve_matches_descent_reference.  The unfolded solution is
    # mirror-exact, the box's residual is the whole grid's at its nodes bit
    # for bit, and the box's energy is J of the unfolded field to rounding.
    g, make_f, boundary, tol, axes = REDUCED_CASES[case]
    prob = EnergyProblem(g, 3.0, make_f(g), boundary)
    cfg = SolveConfig(grad_tol=tol)
    u, rep = solve_dirichlet(prob, cfg)
    full_prob = _one_ulp_off(prob, in_boundary=case == "separable_trace")
    ref, ref_rep = solve_dirichlet(full_prob, cfg)
    assert rep.mirror_axes == axes and ref_rep.mirror_axes == ()
    assert rep.converged and ref_rep.converged
    mask = nonexterior_mask(g)
    assert np.abs(u.values - ref.values)[mask].max() <= 2.0 * tol * 0.25
    for ax in axes:
        assert np.array_equal(u.values, np.flip(u.values, ax), equal_nan=True)

    full, box = _Workspace(prob), _Workspace(prob, axes)
    full.energy(u.values)
    box.energy(u.values[box.box])
    assert np.array_equal(box.residual(), full.residual()[box.box])
    assert box.residual_sup() == full.residual_sup() == rep.final_grad_sup
    J = energy(u, prob)
    assert box.energy(u.values[box.box]) == pytest.approx(J, rel=8 * np.finfo(float).eps, abs=0)
    assert rep.final_energy == pytest.approx(J, rel=8 * np.finfo(float).eps, abs=0)
