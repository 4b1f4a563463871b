import functools
import tracemalloc

import numpy as np
import pytest

import barrier_reference
import stencil_reference
from pseudoplap import barrier
from pseudoplap import grid as grid_module
from pseudoplap.barrier import (
    BarrierParams,
    comparison_check,
    linf_bound_check,
    min_barrier_M,
    supersolution_tolerance,
    verify_supersolution,
)
from pseudoplap.grid import GridSpec, ScalarField, mirror_axes, nonexterior_mask
from pseudoplap.manufactured import constant_boundary, constant_field, zero_boundary
from pseudoplap.solver import EnergyProblem, SolveConfig, solve_dirichlet


def test_min_barrier_values():
    assert min_barrier_M(3.0, 1, 0.0) == 0.0
    assert abs(min_barrier_M(3.0, 2, 1.0) - (2.0**6 * 2.0**0.5) ** 0.5 * (1 + 1e-6)) < 1e-9
    assert abs(min_barrier_M(4.0, 1, 1.0) - 256.0 ** (1.0 / 3.0) * (1 + 1e-6)) < 1e-9


def test_min_barrier_strict_inequality():
    for p in (2.5, 3.0, 5.0):
        for N in (1, 2, 3):
            M = min_barrier_M(p, N, 1.0)
            assert M ** (p - 1.0) * 2.0 ** (-2.0 * p) * N ** (1.0 - p / 2.0) > 1.0


def test_barrier_field_values():
    g = GridSpec(1, 9)
    params = BarrierParams(M=2.0, p=3.0)
    b = barrier_reference.barrier_field(g, params, boundary_sup=0.5)
    assert abs(b.values[0] - 0.5) < 1e-15  # |x| = 1, d = 0
    assert abs(b.values[4] - (0.5 + 1.0)) < 1e-15  # origin, d = 1 -> M/2
    # monotone non-increasing in |x| along the ray
    right = b.values[4:]
    assert (np.diff(right) <= 1e-15).all()


def test_supersolution_rejects_cube():
    with pytest.raises(ValueError, match="ball"):
        verify_supersolution(GridSpec(2, 9, "cube"), [BarrierParams(1.0, 3.0)],
                             0.0, 0.5)


def test_supersolution_at_selected_pairs():
    for p, N in ((3.0, 2), (2.5, 1), (5.0, 2)):
        g = GridSpec(N, 65)
        M = min_barrier_M(p, N, 1.0)
        params = BarrierParams(M=M, p=p)
        [viol] = verify_supersolution(g, [params], 1.0, 3.0 * g.spacing)
        assert viol <= supersolution_tolerance(g, params, 1.0)
        assert viol <= 0.0  # concavity makes every discrete term non-positive


def test_supersolution_homogeneous_rhs():
    g = GridSpec(2, 65)
    params = BarrierParams(M=1.0, p=3.0)
    [viol] = verify_supersolution(g, [params], 0.0, 3.0 * g.spacing)
    assert viol <= supersolution_tolerance(g, params, 0.0)


def test_supersolution_fails_when_M_too_small():
    # For p = 5, N = 1 halving the minimal M breaks the inequality
    # (4 N^{p/2-1} < 2^{p-1}); near p = 3 halving still leaves margin.
    g = GridSpec(1, 129)
    M = min_barrier_M(5.0, 1, 1.0)
    params = BarrierParams(M=0.5 * M, p=5.0)
    [viol] = verify_supersolution(g, [params], 1.0, 3.0 * g.spacing)
    assert viol > 0.0


def test_supersolution_margin_survives_halving_at_small_p():
    # the factor-4 gap between the operator's actual size and the worst-case
    # chain keeps the halved constant a supersolution here
    g = GridSpec(2, 129)
    M = min_barrier_M(3.0, 2, 1.0)
    params = BarrierParams(M=0.5 * M, p=3.0)
    [viol] = verify_supersolution(g, [params], 1.0, 3.0 * g.spacing)
    assert viol <= 0.0


def test_supersolution_rejects_small_exclusion():
    g = GridSpec(2, 65)
    params = BarrierParams(M=1.0, p=3.0)
    with pytest.raises(ValueError, match="exclusion_radius"):
        verify_supersolution(g, [params], 0.0, g.spacing)


def test_linf_bound_trivial_and_1d():
    g = GridSpec(1, 129)
    f0 = constant_field(g, 0.0)
    u0 = ScalarField.from_function(g, lambda pts: np.zeros(len(pts)))
    bound, ok = linf_bound_check(u0, EnergyProblem(g, 3.0, f0, zero_boundary))
    assert bound == 0.0 and ok

    prob = EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary)
    u, rep = solve_dirichlet(prob, SolveConfig(grad_tol=1e-7))
    bound, ok = linf_bound_check(u, prob)
    assert abs(bound - 4.0 * (1 + 1e-6) / 1.0) < 1e-5  # M(3,1,1)/2 = 8/2
    assert ok and u.sup_norm() <= bound


def test_linf_bound_rejects_nonfinite_boundary_data():
    g = GridSpec(1, 17)
    u = ScalarField.from_function(g, lambda pts: np.zeros(len(pts)))
    prob = EnergyProblem(g, 3.0, constant_field(g, 0.0), constant_boundary(np.inf))
    with pytest.raises(ValueError, match="boundary data must be finite"):
        linf_bound_check(u, prob)


def test_linf_bound_scaling_preserved():
    g = GridSpec(1, 65)
    p, lam = 3.0, 5.0
    f = constant_field(g, 1.0)
    prob = EnergyProblem(g, p, f, zero_boundary)
    u, _ = solve_dirichlet(prob, SolveConfig(grad_tol=1e-7))
    _, ok = linf_bound_check(u, prob)
    u_l = ScalarField(g, lam * u.values)
    prob_l = EnergyProblem(g, p, ScalarField(g, lam ** (p - 1.0) * f.values), zero_boundary)
    _, ok_l = linf_bound_check(u_l, prob_l, solver_tol=lam * 1e-6)
    assert ok and ok_l


def test_comparison_reflexive():
    g = GridSpec(2, 17)
    rng = np.random.default_rng(0)
    vals = np.where(nonexterior_mask(g), rng.standard_normal(g.node_shape), np.nan)
    u = ScalarField(g, vals)
    res = comparison_check(u, u, 3.0, tol=1e-12)
    assert res.premise_holds and res.conclusion_holds


def test_comparison_constructed_violation():
    g = GridSpec(2, 17)
    rng = np.random.default_rng(1)
    vals = np.where(nonexterior_mask(g), rng.standard_normal(g.node_shape), np.nan)
    v = ScalarField(g, vals)
    u = ScalarField(g, vals + 1.0)
    res = comparison_check(u, v, 3.0, tol=1e-6)
    assert not res.premise_holds  # boundary ordering fails
    assert abs(res.operator_gap) < 1e-10  # translation invariance up to rounding
    assert not res.conclusion_holds


def test_comparison_solved_pair():
    g = GridSpec(2, 33)
    cfg = SolveConfig(grad_tol=1e-7)
    u, _ = solve_dirichlet(EnergyProblem(g, 3.0, constant_field(g, 1.0), zero_boundary), cfg)
    v, _ = solve_dirichlet(EnergyProblem(g, 3.0, constant_field(g, 0.0), zero_boundary), cfg)
    res = comparison_check(u, v, 3.0, tol=1e-5)
    assert res.premise_holds and res.conclusion_holds
    assert res.interior_gap <= 0.0  # u solved with larger f sits below v


def test_comparison_requires_same_grid():
    u = ScalarField(GridSpec(1, 9), np.zeros(9))
    v = ScalarField(GridSpec(1, 17), np.zeros(17))
    with pytest.raises(ValueError):
        comparison_check(u, v, 3.0, 1e-6)


P_LIST = (2.5, 3.0, 4.0, 5.0, 6.0)
GRIDS = ((1, 129), (2, 65), (3, 33))


def assert_same_max(got, want):
    assert got == want and np.signbit(got) == np.signbit(want), (got, want)


def assert_matches_reference(grid, params, f_sup, exclusion_radius):
    [got] = verify_supersolution(grid, [params], f_sup, exclusion_radius)
    assert_same_max(got, barrier_reference.factored_supersolution(grid, params, f_sup,
                                                                  exclusion_radius))


def minimal_params(p, N):
    return BarrierParams(M=min_barrier_M(p, N, 1.0), p=p)


@functools.lru_cache(maxsize=None)
def reference_max(N, n, p, f_sup, exclusion_radius):
    """The full-field max, which the slab heights below share."""
    return barrier_reference.factored_supersolution(
        GridSpec(N, n), minimal_params(p, N), f_sup, exclusion_radius)


def box_width(n):
    """Rows of the streamed box along axes 1 .. N-1: the octant's and its
    halo row on the mirror-symmetric grids (n = 2^k + 1), else all n."""
    return n - (n - 1) // 2 + 1 if mirror_axes(GridSpec(1, n)) else n


# slab heights: one slab for the whole grid, 1 plane, and 3 planes (at 3D
# n = 33, n - 2 = 31 is no multiple of 3); the spacing of the last two grids
# is no power of 2, so x_i^2 and their sums round, in 3D in an order that
# the slabs must keep
@pytest.mark.parametrize("slab_planes", [None, 1, 3])
@pytest.mark.parametrize("N, n", GRIDS + ((2, 67), (3, 35)))
@pytest.mark.parametrize("p", P_LIST)
def test_supersolution_matches_full_field_reference(monkeypatch, slab_planes, N, n, p):
    # every p in one call, starting at p: the cases share the slabs'
    # profile, and no case may see another's
    grid = GridSpec(N, n)
    assert n ** N < barrier._SLAB_ELEMENTS  # the default slab holds the whole grid
    if slab_planes is not None:
        monkeypatch.setattr(barrier, "_SLAB_ELEMENTS", slab_planes * n ** (N - 1))
    h = grid.spacing
    first = P_LIST.index(p)
    cases = [minimal_params(q, N) for q in P_LIST[first:] + P_LIST[:first]]
    for f_sup in (1.0, 0.0):
        # the smallest radius allowed, the default, and ever thinner outer shells
        for exclusion_radius in (2.0 * h, 3.0 * h, 0.5, 0.8, 1.0 - 3.0 * h):
            got = verify_supersolution(grid, cases, f_sup, exclusion_radius)
            assert len(got) == len(cases)
            for params, viol in zip(cases, got):
                assert_same_max(viol, reference_max(N, n, params.p, f_sup,
                                                    exclusion_radius))


# planes of more than _SLAB_ELEMENTS nodes: tiles of 10 and 3 rows in 2D, of
# 5 and 1 rows in 3D; the spacing of n = 67 and 35 is no power of 2
@pytest.mark.parametrize("N, n, elements", [(2, 65, 32), (2, 67, 9), (3, 33, 270),
                                            (3, 35, 100)])
def test_supersolution_tiles_match_full_field_reference(monkeypatch, N, n, elements):
    monkeypatch.setattr(barrier, "_SLAB_ELEMENTS", elements)
    assert box_width(n) ** (N - 1) > elements  # every plane of the box is cut into tiles
    tiles = _record_tiles(monkeypatch)
    grid = GridSpec(N, n)
    h = grid.spacing
    cases = [minimal_params(q, N) for q in P_LIST]
    for f_sup in (1.0, 0.0):
        for exclusion_radius in (2.0 * h, 3.0 * h, 0.5, 0.8, 1.0 - 3.0 * h):
            got = verify_supersolution(grid, cases, f_sup, exclusion_radius)
            for params, viol in zip(cases, got):
                assert_same_max(viol, reference_max(N, n, params.p, f_sup,
                                                    exclusion_radius))
            # the planes of the dyadic grids' octant, as the whole ball's, are cut
            assert tiles and all(len(cut) > 1 for cut in tiles), tiles
            tiles.clear()


def _record_tiles(monkeypatch) -> list:
    """The tiles of each box that verify_supersolution streams, box by box."""
    tiles = []

    def recording(box, rows):
        tiles.append(list(barrier_tiles(box, rows)))
        return iter(tiles[-1])

    barrier_tiles = barrier._tiles
    monkeypatch.setattr(barrier, "_tiles", recording)
    return tiles


@pytest.mark.parametrize("n", [33, 35])
def test_supersolution_streams_the_mirror_octant(monkeypatch, n):
    # the axis coordinates of n = 33 = 2^5 + 1 are mirror-symmetric, so the
    # stencil sees the nodes from the middle row m on along every axis and
    # the halo row m - 1 before it; those of n = 35 round, so it sees the
    # box of the whole ball
    seen = []

    def counting(v, h):
        seen.append(v.size)
        return barrier_factors(v, h)

    barrier_factors = barrier.nondivergence_factors
    monkeypatch.setattr(barrier, "nondivergence_factors", counting)
    grid = GridSpec(3, n)
    x2 = grid.axis_coords() ** 2
    assert np.array_equal(x2, x2[::-1]) == (n == 33)
    [got] = verify_supersolution(grid, [minimal_params(3.0, 3)], 1.0, 3.0 * grid.spacing)
    assert_same_max(got, reference_max(3, n, 3.0, 1.0, 3.0 * grid.spacing))
    rows = n - (n - 1) // 2 + 1 if n == 33 else n  # 18 rows of 33, or all 35
    assert seen == [rows**3], seen


def test_supersolution_tiles_by_the_octant_rows(monkeypatch):
    # at 3D n = 33 a plane of the octant's box is at most 18 by 18 = 324
    # nodes with its halo rows, so a budget of 400 nodes streams its 16
    # planes in slabs of one plane, none cut into tiles (a whole plane of
    # 33 by 33 would be); the boxes shrink with the ball towards its edge
    seen = []

    def counting(v, h):
        seen.append(v.shape)
        return barrier_factors(v, h)

    barrier_factors = barrier.nondivergence_factors
    monkeypatch.setattr(barrier, "nondivergence_factors", counting)
    monkeypatch.setattr(barrier, "_SLAB_ELEMENTS", 400)
    grid = GridSpec(3, 33)
    [got] = verify_supersolution(grid, [minimal_params(3.0, 3)], 1.0, 3.0 * grid.spacing)
    assert_same_max(got, reference_max(3, 33, 3.0, 1.0, 3.0 * grid.spacing))
    assert len(seen) == 16 and seen[0] == (3, 18, 18), seen
    assert all(shape[0] == 3 and shape[1] <= 18 for shape in seen), seen


def test_supersolution_exclusion_radius_edge():
    # nodes at exactly the exclusion radius count, and 2h passes with its 1e-12 slack
    grid = GridSpec(2, 65)
    params = minimal_params(3.0, 2)
    h = grid.spacing
    for exclusion_radius in (2.0 * h * (1.0 - 1e-12), 0.5, np.nextafter(0.5, 1.0),
                             np.nextafter(0.5, 0.0)):
        assert_matches_reference(grid, params, 1.0, exclusion_radius)
    with pytest.raises(ValueError, match="exclusion_radius"):
        verify_supersolution(grid, params, 1.0, 2.0 * h * (1.0 - 2e-12))


@pytest.mark.parametrize("grid, N, exclusion_radius, match", [
    (GridSpec(2, 65), 2, 1.0 / 32.0, "exclusion_radius"),
    (GridSpec(2, 65, "cube"), 2, 0.1, "ball"),
    (GridSpec(2, 65), 2, 0.999, "no interior nodes"),
])
def test_supersolution_errors_match_reference(grid, N, exclusion_radius, match):
    params = minimal_params(3.0, N)
    for reference in (barrier_reference.verify_supersolution,
                      barrier_reference.factored_supersolution):
        with pytest.raises(ValueError, match=match):
            reference(grid, params, 1.0, exclusion_radius)
    with pytest.raises(ValueError, match=match):
        verify_supersolution(grid, [params], 1.0, exclusion_radius)


def rounding_bound(grid, params, boundary_sup, f_sup, exclusion_radius, value):
    """A bound on how far the factorised formula may round away from the
    operator evaluated on the barrier's values b = boundary_sup + M g, whose
    max is value.

    Per selected node and axis, with A = |D_i^c b|, D = D_i^2 b and q = p-2,
    the differences add up sigma_A = (|b_h| + |b_l|) / 2h and
    sigma_D = (|b_h| + 2|b_m| + |b_l|) / h^2 in magnitude.  The two forms
    round A and D apart by a few eps times sigma_A and sigma_D, which the
    term A^q D carries to first order as A^q sigma_D + q A^{q-1} sigma_A |D|
    (0 where A = 0: mirror nodes hold equal radii, so both forms read a zero
    difference there).  Counting roundings (the barrier's values, the
    differences, power, product, axis sum, scale and shift) gives at most 8
    eps times these sums, times p-1, plus the same of the value itself.
    """
    h, q = grid.spacing, params.p - 2.0
    b = barrier_reference.barrier_field(grid, params, boundary_sup).values
    g = barrier_reference.barrier_field(grid, BarrierParams(1.0, params.p)).values
    sel = barrier_reference.selected_nodes(grid, exclusion_radius)
    sums = np.zeros(grid.node_shape)
    for ax, ((core, A, D), (_, a, _)) in enumerate(zip(
            stencil_reference.nondivergence_factors(b, h),
            stencil_reference.nondivergence_factors(g, h))):
        assert np.array_equal(A[sel[core]] == 0.0, a[sel[core]] == 0.0)
        lo, hi, _ = stencil_reference.axis_slices(b.ndim, ax)
        bl, bm, bh = np.abs(b[lo][lo]), np.abs(b[core]), np.abs(b[hi][hi])
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(A > 0.0, q * A ** (q - 1.0), 0.0)
        sums[core] += A**q * (bh + 2.0 * bm + bl) / (h * h) \
            + slope * (bh + bl) / (2.0 * h) * np.abs(D)
    return 8.0 * np.finfo(float).eps * ((params.p - 1.0) * sums[sel].max() + abs(value))


@pytest.mark.parametrize("N, n", GRIDS)
@pytest.mark.parametrize("p", P_LIST)
def test_factorised_check_matches_operator_on_barrier(N, n, p):
    # boundary_sup does not enter the arithmetic, and M only as M^{p-1}: the
    # shipped check agrees with A_nondiv of the barrier itself, shifted by
    # any boundary_sup, up to rounding
    grid = GridSpec(N, n)
    exclusion_radius = 3.0 * grid.spacing
    params = minimal_params(p, N)
    for boundary_sup in (0.0, 0.75):
        for f_sup in (0.0, 1.0):
            [got] = verify_supersolution(grid, [params], f_sup, exclusion_radius)
            want = barrier_reference.verify_supersolution(grid, params, f_sup,
                                                          exclusion_radius, boundary_sup)
            bound = rounding_bound(grid, params, boundary_sup, f_sup, exclusion_radius, want)
            assert abs(got - want) <= bound, (boundary_sup, f_sup, got, want, bound)


def test_supersolution_memory_is_a_few_slabs(monkeypatch):
    # both grids span many slabs and no other test uses them, so the first
    # call finds nothing cached: its peak stays a fixed multiple of a slab,
    # whatever the grid, and it leaves no whole-grid array in the grid caches;
    # with 2**13 nodes a slab, a plane of n = 131 is cut into tiles, as one of
    # n = 257 is at the default
    caches = (grid_module.node_masks,)
    for n, elements in ((75, None), (131, None), (131, 2**13)):
        if elements is not None:
            monkeypatch.setattr(barrier, "_SLAB_ELEMENTS", elements)
            assert n**2 > barrier._SLAB_ELEMENTS
        grid = GridSpec(3, n)
        assert n**3 > 4 * barrier._SLAB_ELEMENTS
        cases = [minimal_params(p, 3) for p in P_LIST]
        before = [cache.cache_info() for cache in caches]
        tracemalloc.start()
        try:
            verify_supersolution(grid, cases, 1.0, 3.0 * grid.spacing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * barrier._SLAB_ELEMENTS * 8, (n, peak)
        assert [cache.cache_info() for cache in caches] == before


def test_supersolution_empty_sequence():
    grid = GridSpec(2, 65)
    assert verify_supersolution(grid, [], 1.0, 3.0 * grid.spacing) == []


def test_barrier_params_reject_non_finite():
    with pytest.raises(ValueError, match="M"):
        BarrierParams(M=np.inf, p=3.0)
    with pytest.raises(ValueError, match="M"):
        BarrierParams(M=np.nan, p=3.0)
    with pytest.raises(ValueError, match="p"):
        BarrierParams(M=1.0, p=np.nan)

