import itertools
import re

import numpy as np
import pytest

import field_writer_reference
import stencil_reference
from pseudoplap import grid
from pseudoplap.grid import (
    GridSpec,
    ScalarField,
    boundary_mask,
    interior_mask,
    mirror_axes,
    node_coordinates,
    nonexterior_mask,
    off_links,
    write_field,
)
from pseudoplap.manufactured import constant_field, separable_trace, sweep_presets


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 9)
    with pytest.raises(ValueError):
        GridSpec(2, 8)  # even
    with pytest.raises(ValueError):
        GridSpec(2, 7)  # too small
    with pytest.raises(ValueError):
        GridSpec(2, 9, "torus")


def test_spacing_exact():
    g = GridSpec(1, 9)
    assert g.spacing == 2.0 / 8.0
    assert g.axis_coords()[0] == -1.0 and g.axis_coords()[-1] == 1.0


def brute_force_masks(grid, idx):
    """The module docstring's definition, node by node: (closed, interior)."""
    c = grid.axis_coords()

    def in_set(i, closed):
        if min(i) < 0 or max(i) >= grid.nodes_per_axis:
            return False
        x = [c[k] for k in i]
        if grid.shape == "cube":
            return closed or max(abs(t) for t in x) < 1.0
        r2 = sum(t * t for t in x)
        return r2 <= 1.0 if closed else r2 < 1.0

    neighbours = [tuple(k + s * (a == ax) for a, k in enumerate(idx))
                  for ax in range(grid.dimension) for s in (-1, 1)]
    return in_set(idx, True), in_set(idx, False) and all(in_set(nb, True) for nb in neighbours)


@pytest.mark.parametrize("nodes", [9, 17])
@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_classify_matches_definition(dim, shape, nodes):
    g = GridSpec(dim, nodes, shape)
    closed, interior = nonexterior_mask(g), interior_mask(g)
    for idx in itertools.product(range(nodes), repeat=dim):
        assert (closed[idx], interior[idx]) == brute_force_masks(g, idx), idx


def test_classify_1d_endpoints_boundary():
    g = GridSpec(1, 9)
    boundary = boundary_mask(g)
    assert boundary[0] and boundary[-1]
    assert interior_mask(g)[1:-1].all()


def test_classify_2d_corner_exterior_origin_interior():
    g = GridSpec(2, 9)
    assert not nonexterior_mask(g)[-1, -1]  # (1, 1), |x| = sqrt(2)
    assert interior_mask(g)[4, 4]  # origin


def test_classification_total_and_deterministic():
    # each node is interior, boundary or exterior, and the cached masks are
    # the same read-only arrays on every call
    for dim, shape in itertools.product((1, 2, 3), ("ball", "cube")):
        g = GridSpec(dim, 9 if dim == 3 else 17, shape)
        closed, interior, boundary = nonexterior_mask(g), interior_mask(g), boundary_mask(g)
        assert closed is nonexterior_mask(g) and interior is interior_mask(g)
        assert np.array_equal(boundary, boundary_mask(g))
        assert np.array_equal(boundary | interior, closed)
        assert not (boundary & interior).any()
        for mask in (closed, interior):
            with pytest.raises(ValueError, match="read-only"):
                mask[(0,) * dim] = True


def test_cube_has_no_exterior():
    g = GridSpec(2, 9, "cube")
    assert nonexterior_mask(g).all()
    assert boundary_mask(g)[0, 3]
    assert interior_mask(g)[1:-1, 1:-1].all()


@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("dim, nodes", [(1, 17), (2, 19), (3, 11), (3, 35)])
def test_node_rule_on_boxes_matches_whole_grid(dim, nodes, shape):
    # a box cut from the grid's axes gets the grid's squared radii bit for
    # bit, and the grid's classes wherever all its neighbours are in the box
    g = GridSpec(dim, nodes, shape)
    combine = np.maximum if shape == "cube" else np.add
    whole = grid.radius_squared([g.axis_coords() ** 2] * dim, combine)
    whole_closed, whole_interior = grid.node_masks(g)
    rng = np.random.default_rng(nodes)
    for _ in range(20):
        box = tuple(slice(lo, hi) for lo, hi in
                    (np.sort(rng.choice(nodes + 1, 2, replace=False)) for _ in range(dim)))
        r2 = grid.radius_squared([g.axis_coords()[axis] ** 2 for axis in box], combine)
        assert np.array_equal(r2, whole[box])
        closed, interior = grid.node_rule(r2)
        assert np.array_equal(closed, whole_closed[box])
        core = (slice(1, -1),) * dim
        assert np.array_equal(interior[core], whole_interior[box][core])
        interior[core] = False
        assert not interior.any()  # a node on a face of the box never is


@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("dim, nodes", [(1, 17), (2, 19), (3, 11)])
def test_off_links_match_sliced_masks(dim, nodes, shape):
    # flat link j sits at the compact position of node j when j is not the
    # last node of its row along the axis; the others wrap, and are off even
    # on the cube, where both their ends are finite face nodes
    g = GridSpec(dim, nodes, shape)
    for ax, (off, links) in enumerate(zip(off_links(g, ()), stencil_reference.link_masks(g))):
        want = np.ones(g.node_shape, dtype=bool)
        want[(slice(None),) * ax + (slice(0, nodes - 1),)] = ~links
        assert np.array_equal(off, want.reshape(-1)[:off.size])


def test_disk_area_fraction():
    g = GridSpec(2, 129)
    in_ball = nonexterior_mask(g).mean()
    assert abs(in_ball - np.pi / 4.0) < 0.02
    # the strict interior count converges to the same limit from below
    frac_int = interior_mask(g).mean()
    assert frac_int < in_ball < np.pi / 4.0 + 0.02


def test_field_roundtrip_bitwise(tmp_path):
    # 17 significant digits: float() of every cell gives back the double written
    rng = np.random.default_rng(0)
    for g in (GridSpec(2, 9), GridSpec(1, 9), GridSpec(2, 9, "cube"), GridSpec(3, 9)):
        mask = nonexterior_mask(g)
        vals = np.where(mask, rng.standard_normal(g.node_shape), np.nan)
        path = tmp_path / "f.csv"
        write_field(path, ScalarField(g, vals))
        header, *lines = path.read_text().splitlines()
        assert header == ",".join(f"x{i + 1}" for i in range(g.dimension)) + ",value"
        back = np.array([[float(t) for t in line.split(",")] for line in lines])
        idx = np.argwhere(mask)
        assert np.array_equal(back[:, :-1], node_coordinates(g, idx).reshape(len(idx), -1))
        assert np.array_equal(back[:, -1], vals[mask])


# -0.0, the smallest subnormal, %g's switch to an exponent between 1e-4 and
# 1e-5 and its 17-digit limit between 1e16 and 1e17, then negative and large values
SPECIAL_VALUES = [-0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e17, -1e-5, -1e17, 1.7976931348623157e308,
                  -2.2250738585072014e-308, 0.1, -1.0 / 3.0, 123456789.125, -5e-5]


@pytest.mark.parametrize("block", ["one", "non-divisor", "count", "above-count"])
@pytest.mark.parametrize("shape", ["ball", "cube"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_write_field_matches_reference(tmp_path, monkeypatch, dim, shape, block):
    g = GridSpec(dim, 17 if dim == 1 else 9, shape)
    mask = nonexterior_mask(g)
    count = int(mask.sum())
    rng = np.random.default_rng(dim)
    noise = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    vals = np.full(g.node_shape, np.nan)
    vals[mask] = np.concatenate([SPECIAL_VALUES, noise])[:count]
    rows = {"one": 1, "non-divisor": next(k for k in range(7, count) if count % k),
            "count": count, "above-count": count + 5}[block]
    monkeypatch.setattr(grid, "_BLOCK_ROWS", rows)
    # the field, then copies made mirror-exact along axis 0 and along every
    # axis, which are written from their mirror boxes' values
    m = (g.nodes_per_axis - 1) // 2
    for axes in ((), (0,), tuple(range(dim))):
        v = vals.copy()
        for ax in axes:  # the lower half along ax becomes the flip of the upper one
            lower = (slice(None),) * ax + (slice(0, m),)
            v[lower] = np.flip(v, ax)[lower]
        assert mirror_axes(g, v) == axes
        field = ScalarField(g, v)
        write_field(tmp_path / "blocks.csv", field)
        field_writer_reference.write_field(tmp_path / "reference.csv", field)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_write_field_validates_before_truncating(tmp_path, monkeypatch):
    g = GridSpec(2, 9)
    vals = np.where(nonexterior_mask(g), 1.0, np.nan)
    node = tuple(int(i) for i in np.argwhere(boundary_mask(g))[0])
    vals[node] = np.nan
    path = tmp_path / "solution.csv"
    path.write_bytes(b"x1,x2,value\n0,0,1\n")
    opened = []
    monkeypatch.setattr(grid, "open", lambda *args, **kw: opened.append(args), raising=False)
    with pytest.raises(ValueError, match=re.escape(str(node))):
        write_field(path, ScalarField(g, vals))
    assert opened == []
    assert path.read_bytes() == b"x1,x2,value\n0,0,1\n"


def test_exterior_values_are_unset_marker():
    g = GridSpec(2, 9)
    f = ScalarField.from_function(g, lambda pts: np.ones(len(pts)))
    assert np.isnan(f.values[0, 0])
    assert f.values[4, 4] == 1.0


def test_validate_finite_names_node():
    g = GridSpec(1, 9)
    vals = np.zeros(9)
    vals[3] = np.inf
    with pytest.raises(ValueError, match=r"\(3,\)"):
        ScalarField(g, vals).validate_finite()


def boundary_array(g, data):
    """The node array of the boundary data on the boundary band, NaN elsewhere."""
    vals = np.full(g.node_shape, np.nan)
    vals[boundary_mask(g)] = data(node_coordinates(g, np.argwhere(boundary_mask(g))))
    return vals


def off_both_planes(g, mask):
    """The first node of the mask that lies on no mirror plane."""
    m = (g.nodes_per_axis - 1) // 2
    return next(tuple(i) for i in np.argwhere(mask) if (i != m).all())


@pytest.mark.parametrize("seed", [0, 1])
def test_mirror_axes_of_the_sweep_presets(seed):
    # the constants, checkerboard and radial ramp are mirror-exact along both
    # axes, tilt (a function of x_1 alone) along axis 1 only, and the
    # jittered Gaussians along neither
    g = GridSpec(2, 65)
    zero = np.where(boundary_mask(g), 0.0, np.nan)
    axes = {name: mirror_axes(g, f.values, zero)
            for name, f in sweep_presets(g, np.random.default_rng(seed))}
    assert axes.pop("tilt") == (1,)
    for name in ("gauss_center", "gauss_offset", "gauss_narrow"):
        assert axes.pop(name) == (), name
    assert set(axes.values()) == {(0, 1)}, axes


@pytest.mark.parametrize("dim, shape", [(1, "ball"), (2, "cube"), (3, "ball")])
def test_mirror_axes_one_ulp_off_reduces_no_axis(dim, shape):
    g = GridSpec(dim, 17, shape)
    f = constant_field(g, 0.3).values
    trace = boundary_array(g, separable_trace(3.0))
    every = tuple(range(dim))
    assert mirror_axes(g) == every
    assert mirror_axes(g, f, trace) == every
    for values, mask in ((f, interior_mask(g)), (trace, boundary_mask(g))):
        node = off_both_planes(g, mask)
        kept = values[node]
        values[node] = np.nextafter(kept, np.inf)
        assert mirror_axes(g, f, trace) == ()
        values[node] = kept


@pytest.mark.parametrize("n", [35, 67])
def test_mirror_axes_rounded_coordinates_reduce_no_axis(n):
    # linspace rounds these coordinates asymmetrically, so even a constant
    # field and the grid alone reduce no axis
    g = GridSpec(2, n)
    assert mirror_axes(g) == ()
    assert mirror_axes(g, constant_field(g, 1.0).values) == ()


@pytest.mark.parametrize("dim, shape", [(1, "ball"), (2, "cube"), (3, "ball")])
def test_multiplicities_count_the_whole_grid(dim, shape):
    # summed over the mirror box, the node and link multiplicities count the
    # whole grid's nodes and on-links
    g = GridSpec(dim, 17, shape)
    for axes in ((), (0,), tuple(range(dim))):
        nodes, links = grid.multiplicities(g, axes)
        assert nodes.sum() == g.nodes_per_axis ** dim
        for box_off, full_off, mult in zip(off_links(g, axes), off_links(g, ()), links):
            assert (mult[box_off] == 0).all()
            assert mult.sum() == (~full_off).sum()
