"""The flat-stride stencil kernels against the sliced ones of stencil_reference.py.

Every comparison is `==`: each node sees the reference's operations in its
order, and the reference puts the energy's link terms into the flat layout
before its dot, as the workspace sums them.  The cube matters most: its face
nodes are finite boundary nodes, so a link that wraps across a row joins two
real values and must still be off.  A spacing that is no power of 2 (n = 19,
35) makes a reordered division by h show.
"""

import tracemalloc

import numpy as np
import pytest

import stencil_reference
from pseudoplap.grid import GridSpec, ScalarField, nonexterior_mask
from pseudoplap.manufactured import zero_boundary
from pseudoplap.operators import apply_divergence, apply_nondivergence
from pseudoplap.solver import EnergyProblem, _Workspace

P_LIST = (2.3, 3.0, 5.7)


def random_problem(dim, nodes, shape, p, seed=3):
    g = GridSpec(dim, nodes, shape)
    rng = np.random.default_rng(seed)
    u = np.where(nonexterior_mask(g), rng.standard_normal(g.node_shape), np.nan)
    f = ScalarField(g, rng.standard_normal(g.node_shape))
    return EnergyProblem(g, p, f, zero_boundary), u


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("p", P_LIST)
@pytest.mark.parametrize("nodes", [17, 19, 35])
@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_workspace_matches_sliced_reference(dim, shape, nodes, p):
    prob, u = random_problem(dim, nodes, shape, p)
    ws, ref = _Workspace(prob), stencil_reference.Workspace(prob)
    assert ws.energy(u) == ref.energy(u)
    assert_bitwise(ws.residual(), ref.residual())
    assert ws.residual_sup() == float(np.abs(ref.residual()).max())
    # one Newton step: its CG iterations, r.s and step, then one Hessian
    # product with the Hessian's weights it left behind
    got, want = ws.newton_step(1e-3, 0.1), ref.newton_step(1e-3, 0.1)
    assert got == want
    assert ws.float64_reruns == ref.float64_reruns == 0  # float32 CG in 2D and 3D
    assert_bitwise(ws.step.reshape(prob.grid.node_shape), ref.step)
    s = np.random.default_rng(5).standard_normal(prob.grid.node_shape)
    # out starts as NaN, so a node that the product leaves unwritten shows
    out, ref_out = np.full(s.size, np.nan), np.empty(s.shape)
    ws._hess_apply(ws._hess_slices(s.reshape(-1), out, ws.weights, ws._flux, ws.scratch), out)
    ref._hess_apply(s, ref_out)
    assert_bitwise(out.reshape(s.shape), ref_out)
    assert np.array_equal(np.signbit(out.reshape(s.shape)), np.signbit(ref_out))


@pytest.mark.parametrize("p", P_LIST)
@pytest.mark.parametrize("nodes", [17, 19, 35])
@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_apply_operators_match_sliced_reference(dim, shape, nodes, p):
    prob, u = random_problem(dim, nodes, shape, p)
    field = ScalarField(prob.grid, u)
    assert_bitwise(apply_divergence(field, p).values,
                   stencil_reference.apply_divergence(field, p).values)
    assert_bitwise(apply_nondivergence(field, p).values,
                   stencil_reference.apply_nondivergence(field, p).values)


@pytest.mark.parametrize("dim, nodes, box", [(1, 1025, False), (1, 1025, True),
                                             (2, 65, False), (2, 65, True),
                                             (3, 17, False), (3, 33, True)])
def test_first_newton_step_allocates_no_node_array(dim, nodes, box):
    # the workspace allocates every buffer of a solve when it is made, so
    # even the first step on a fresh one, on the whole grid or on a mirror
    # box, allocates no array of the box's size
    prob, u = random_problem(dim, nodes, "ball", 3.0)
    ws = _Workspace(prob, tuple(range(dim)) if box else ())
    ws.energy(u[ws.box])
    ws.residual()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        iterations, _ = ws.newton_step(1e-2, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iterations >= 1
    assert peak - before < 8 * ws.inside.size, peak - before


def test_newton_step_allocates_no_node_array():
    # a later step, to a tight tolerance, may allocate Python scalars and
    # views but no array of the grid's size.
    # In 1D the step is H's exact inverse applied to r, one iteration, and the
    # grid is long enough that the step's views and scalars (about 2 KB)
    # stay below one node array.
    for dim, nodes, min_iterations in ((3, 17, 11), (1, 1025, 1)):
        prob, u = random_problem(dim, nodes, "ball", 3.0)
        ws = _Workspace(prob)
        ws.energy(u)
        ws.residual()
        ws.newton_step(1e-2, 0.5)
        ws.energy(u)
        ws.residual()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            iterations, _ = ws.newton_step(1e-3, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iterations >= min_iterations
        assert peak - before < 8 * u.size


def float64_residual_gap(ws, r):
    """|r - H s|, |r| and |H| |s| in the 2-norm, in float64, for the step and
    the Hessian's weights that `newton_step` left behind; |H| <= 2 diag(H)."""
    hs = np.empty(r.size)
    ws._hess_apply(ws._hess_slices(ws.step, hs, ws.weights, ws._flux, ws.scratch), hs)
    h_norm = 2.0 * 2 * len(ws.weights) * max(float(c[:off.size].max())
                                             for c, off in zip(ws.weights, ws.off_links))
    return (float(np.linalg.norm(r - hs)), float(np.linalg.norm(r)),
            h_norm * float(np.linalg.norm(ws.step)))


@pytest.mark.parametrize("floor", [0.0, 0.3])
@pytest.mark.parametrize("p", P_LIST)
@pytest.mark.parametrize("dim, nodes", [(2, 35), (3, 19)])
def test_float32_step_meets_its_tolerance_in_float64(dim, nodes, p, floor):
    # the float32 step solves H s = r to rtol |r| (or to the absolute floor,
    # here a share of |r|) when r - H s is measured in float64, up to
    # float32's rounding: of H's weights and r once, and of each iteration
    prob, u = random_problem(dim, nodes, "ball", p)
    ws = _Workspace(prob)
    ws.energy(u)
    r = ws.residual().reshape(-1).copy()
    ws.cg_floor = floor * float(np.linalg.norm(r))
    rtol = 1e-2
    iterations, s_hs = ws.newton_step(1e-3, rtol)
    assert ws.float64_reruns == 0 and 1 <= iterations < ws.n_interior
    gap, r_norm, hs_bound = float64_residual_gap(ws, r)
    eps32 = float(np.finfo(np.float32).eps)
    assert gap <= max(rtol * r_norm, ws.cg_floor) + iterations * eps32 * (r_norm + hs_bound)
    # the rounding allowance is far below the tolerance itself
    assert iterations * eps32 * (r_norm + hs_bound) < 0.1 * rtol * r_norm
    assert s_hs == pytest.approx(float(np.vdot(r, ws.step)), rel=1e-3)


@pytest.mark.parametrize("dim, nodes, box", [(2, 17, False), (2, 17, True),
                                             (3, 9, False), (3, 9, True)])
def test_float32_buffers_share_no_certified_data(dim, nodes, box):
    # the float32 CG lives in idle halves of float64 buffers: none of it may
    # overlap the residual, H's float64 weights or `spare`, so a float32
    # step leaves r and H's weights, which certify it, bit for bit as they were
    prob, u = random_problem(dim, nodes, "ball", 3.0)
    ws = _Workspace(prob, tuple(range(dim)) if box else ())
    kept = [ws.resid, ws.spare, *ws.weights]
    float32 = [a for a in (*ws.cg32.weights, *ws.cg32) if isinstance(a, np.ndarray)]
    assert float32 and all(a.dtype == np.float32 for a in float32)
    assert not any(np.shares_memory(a, b) for a in float32 for b in kept)
    ws.energy(u[ws.box])
    ws.residual()
    reg, scale = 1e-3, (ws.p - 1.0) / (ws.h * ws.h)
    ws._hessian_weights(reg, scale)
    before = [a.copy() for a in (ws.resid, *ws.weights)]
    iterations, s_hs = ws._float32_step(reg, scale, 0.1)
    assert iterations >= 1 and s_hs is not None
    for got, want in zip((ws.resid, *ws.weights), before):
        assert_bitwise(got, want)


def test_step_beyond_float32_range_reruns_in_float64():
    # with u of order 1e12 at p = 5.7, H's weights |D u|^3.7 reach 1e50 while
    # reg keeps its least ones near 1e-9: no power of 2 brings both into
    # float32's normal range, so the step takes the float64 loop, bit for
    # bit as the sliced one, and is counted
    prob, u = random_problem(2, 19, "ball", 5.7)
    u *= 1e12
    ws, ref = _Workspace(prob), stencil_reference.Workspace(prob)
    ws.energy(u)
    ref.energy(u)
    ws.residual()
    ref.residual()
    got, want = ws.newton_step(1e-12, 0.1), ref.newton_step(1e-12, 0.1)
    assert ws.float64_reruns == ref.float64_reruns == 1
    assert got == want
    assert_bitwise(ws.step.reshape(prob.grid.node_shape), ref.step)
    # the same weights scaled down fit float32, and its step is not the float64 one
    ws.energy(u * 1e-12)
    ws.residual()
    ws.newton_step(1e-3, 0.1)
    assert ws.float64_reruns == 1
