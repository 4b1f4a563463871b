import numpy as np
import pytest

from pseudoplap.barrier import BarrierParams, min_barrier_M
from pseudoplap.grid import GridSpec, ScalarField, interior_mask, nonexterior_mask
from pseudoplap.manufactured import closed_form_1d, zero_boundary
from pseudoplap.operators import (
    apply_divergence,
    apply_nondivergence,
    phi_p,
)
from pseudoplap.solver import EnergyProblem


def random_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = np.where(nonexterior_mask(grid), scale * rng.standard_normal(grid.node_shape),
                    np.nan)
    return ScalarField(grid, vals)


def test_phi_p_odd_monotone():
    t = np.linspace(-2, 2, 41)
    for p in (2.5, 3.0, 4.0):
        y = phi_p(t, p)
        assert np.allclose(y, -phi_p(-t, p))
        assert (np.diff(y) >= 0).all()
        assert phi_p(np.array(0.0), p) == 0.0


@pytest.mark.parametrize("apply", [apply_divergence, apply_nondivergence])
@pytest.mark.parametrize("shape", ["ball", "cube"])
def test_constant_maps_to_zero(apply, shape):
    g = GridSpec(2, 9, shape)
    u = ScalarField.from_function(g, lambda pts: np.full(len(pts), 3.7))
    out = apply(u, 3.0)
    assert np.allclose(out.values[interior_mask(g)], 0.0)


@pytest.mark.parametrize("apply", [apply_divergence, apply_nondivergence])
def test_affine_kernel(apply):
    g = GridSpec(2, 17)
    u = ScalarField.from_function(g, lambda pts: 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1])
    out = apply(u, 3.5)
    assert np.abs(out.values[interior_mask(g)]).max() < 1e-12


def test_divergence_1d_closed_form():
    g = GridSpec(1, 257)  # h = 1/128
    u_fn, _ = closed_form_1d(3.0, 1.0)
    u = ScalarField.from_function(g, lambda pts: u_fn(pts[:, 0]))
    out = apply_divergence(u, 3.0)
    c = g.axis_coords()
    away = interior_mask(g) & (np.abs(c) >= g.spacing)
    err = np.abs(out.values[away] - 2.0).max()
    assert err <= 10.0 * np.sqrt(g.spacing)


def test_nondivergence_quadratic_exact():
    g = GridSpec(2, 33, "cube")
    u = ScalarField.from_function(g, lambda pts: pts[:, 0] ** 2)
    out = apply_nondivergence(u, 4.0)
    x = g.axis_coords()[:, None] * np.ones(g.node_shape)
    mask = interior_mask(g)
    assert np.abs(out.values[mask] - 24.0 * x[mask] ** 2).max() < 1e-10


def test_nondivergence_separable_manufactured():
    # fixed off-axis exclusion: the derivative kink on the axes pollutes a band
    # whose pointwise error does not vanish at a fixed multiple of h
    p = 3.0
    u_fn, _ = closed_form_1d(p, 1.0)
    errs = {}
    for n in (65, 129):
        g = GridSpec(2, n, "cube")
        u = ScalarField.from_function(g, lambda pts: u_fn(pts[:, 0]) + u_fn(pts[:, 1]))
        out = apply_nondivergence(u, p)
        c = g.axis_coords()
        off_axis = interior_mask(g) & (np.abs(c[:, None]) >= 0.1) & (np.abs(c[None, :]) >= 0.1)
        errs[n] = np.abs(out.values[off_axis] - (p - 1.0) * 2.0).max()
    assert errs[129] <= 10.0 * np.sqrt(2.0 / 128.0)
    assert errs[129] < errs[65]


@pytest.mark.parametrize("N, n", [(1, 129), (2, 33), (2, 65), (3, 33)])
def test_nondivergence_commutes_with_reflections_bit_for_bit(N, n):
    # the coordinates of n = 2^k + 1 nodes are mirror-symmetric, and both
    # factors are symmetric in their two neighbours, so a field symmetric
    # under each x_i -> -x_i keeps that symmetry bit for bit; the barrier
    # check streams one octant of the ball on it
    g = GridSpec(N, n)
    vals = random_field(g, seed=n).values
    for ax in range(N):
        vals = vals + np.flip(vals, ax)
    for p in (2.5, 3.0, 4.7):
        out = apply_nondivergence(ScalarField(g, vals), p).values
        for ax in range(N):
            assert out.tobytes() == np.flip(out, ax).tobytes(), (p, ax)


def test_rejects_p_at_most_2():
    g = GridSpec(1, 9)
    u = ScalarField(g, np.zeros(9))
    with pytest.raises(ValueError, match="p must be > 2"):
        apply_divergence(u, 2.0)


@pytest.mark.parametrize("p, message", [(2.0, "p must be > 2"), (np.inf, "p must be finite")])
def test_every_exponent_site_has_one_rule(p, message):
    g = GridSpec(1, 9)
    u = ScalarField(g, np.zeros(9))
    sites = [
        lambda: apply_divergence(u, p),
        lambda: apply_nondivergence(u, p),
        lambda: min_barrier_M(p, 2, 1.0),
        lambda: BarrierParams(M=1.0, p=p),
        lambda: closed_form_1d(p),
        lambda: EnergyProblem(g, p, u, zero_boundary),
    ]
    for site in sites:
        with pytest.raises(ValueError, match=message):
            site()


def test_unset_stencil_value_named():
    g = GridSpec(2, 9, "cube")
    vals = np.zeros(g.node_shape)
    vals[3, 3] = np.nan
    with pytest.raises(ValueError, match=r"\(3, 3\)"):
        apply_divergence(ScalarField(g, vals), 3.0)


def sup_residual(apply, u, f, p):
    """Sup over interior nodes of |A(u) - (p-1) f|."""
    mask = interior_mask(u.grid)
    return float(np.abs(apply(u, p).values[mask] - (p - 1.0) * f.values[mask]).max())


def test_consistency_residual_convergence_order():
    # smooth manufactured u, f its analytic non-divergence image
    p = 3.0

    def u_fn(pts):
        return np.sin(1.3 * pts[:, 0]) * np.cos(0.7 * pts[:, 1])

    def f_fn(pts):
        x, y = pts[:, 0], pts[:, 1]
        ux = 1.3 * np.cos(1.3 * x) * np.cos(0.7 * y)
        uy = -0.7 * np.sin(1.3 * x) * np.sin(0.7 * y)
        uxx = -1.3**2 * np.sin(1.3 * x) * np.cos(0.7 * y)
        uyy = -0.7**2 * np.sin(1.3 * x) * np.cos(0.7 * y)
        return np.abs(ux) ** (p - 2) * uxx + np.abs(uy) ** (p - 2) * uyy

    res = {}
    for n in (33, 65, 129):
        g = GridSpec(2, n, "cube")
        u = ScalarField.from_function(g, u_fn)
        f = ScalarField.from_function(g, f_fn)
        res[n] = sup_residual(apply_nondivergence, u, f, p)
    order1 = np.log2(res[33] / res[65])
    order2 = np.log2(res[65] / res[129])
    assert res[33] > res[65] > res[129]
    assert min(order1, order2) >= 0.5


def test_consistency_residual_shift_lower_bound():
    g = GridSpec(2, 17)
    u = random_field(g, 3)
    f = ScalarField.from_function(g, lambda pts: np.cos(pts[:, 0]))
    p = 3.0
    base = sup_residual(apply_divergence, u, f, p)
    shifted = ScalarField(g, f.values + 1.0)
    bumped = sup_residual(apply_divergence, u, shifted, p)
    assert bumped >= (p - 1.0) * 1.0 - base


@pytest.mark.parametrize("form", ["divergence", "nondivergence"])
@pytest.mark.parametrize("lam,p", [(1.0, 3.0), (2.0, 3.0), (0.5, 5.0), (7.3, 2.3)])
def test_homogeneity(form, lam, p):
    # sup over interior nodes of |A(lam u) - lam^{p-1} A(u)|
    apply = apply_divergence if form == "divergence" else apply_nondivergence
    g = GridSpec(2, 17)
    u = random_field(g, 11)
    base = apply(u, p).values
    scaled = apply(ScalarField(g, lam * u.values), p).values
    mask = interior_mask(g)
    defect = float(np.abs(scaled[mask] - lam ** (p - 1.0) * base[mask]).max())
    scale = max(1.0, lam ** (p - 1.0) * np.nanmax(np.abs(base)))
    assert defect <= 1e-10 * scale
    if lam == 1.0:
        assert defect == 0.0


def test_divergence_monotone_in_neighbours():
    # raising any neighbour value weakly raises the divergence-form value
    g = GridSpec(2, 17)
    u = random_field(g, 5)
    p = 3.0
    base = apply_divergence(u, p)
    rng = np.random.default_rng(9)
    interior = np.argwhere(interior_mask(g))
    for _ in range(20):
        node = tuple(interior[rng.integers(len(interior))])
        ax = rng.integers(2)
        sign = 1 if rng.random() < 0.5 else -1
        nbr = list(node)
        nbr[ax] += sign
        nbr = tuple(nbr)
        bumped = ScalarField(g, u.values.copy())
        bumped.values[nbr] += 0.1
        out = apply_divergence(bumped, p)
        assert out.values[node] >= base.values[node] - 1e-12
