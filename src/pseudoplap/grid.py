"""Uniform node-centered grids on [-1,1]^N with unit-ball masking and field output.

The grid always has an odd number of nodes per axis so the origin is a node.
Every node is classified exactly once, by the read-only (closed, interior)
masks that node_masks caches per grid, as interior, boundary, or exterior:

* interior: in the open unit ball and all 2N axis neighbours in the closed ball
  (for cube-shaped domains: all coordinates strictly inside (-1, 1)),
* boundary: in the closed ball but not interior (the "boundary band" on which
  Dirichlet data is imposed),
* exterior: outside the closed ball.

Fields store one value per node; exterior nodes carry NaN as an explicit
"unset" marker, never zero, so that a stencil straying outside the domain
poisons the result instead of silently reading zeros.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Node-centered grid on [-1,1]^N, N in {1,2,3}, with n odd nodes per axis."""

    dimension: int
    nodes_per_axis: int
    shape: str = "ball"

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        n = self.nodes_per_axis
        if n < 9 or n % 2 == 0:
            raise ValueError(f"nodes_per_axis must be odd and >= 9, got {n}")
        if self.shape not in ("ball", "cube"):
            raise ValueError(f"shape must be 'ball' or 'cube', got {self.shape!r}")

    @property
    def spacing(self) -> float:
        return 2.0 / (self.nodes_per_axis - 1)

    @property
    def node_shape(self) -> tuple:
        return (self.nodes_per_axis,) * self.dimension

    def axis_coords(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.nodes_per_axis)


def radius_squared(squares, combine=np.add) -> np.ndarray:
    """Per node of the box whose axis i takes the squared coordinates
    squares[i], the sum (Euclidean norm) or, with np.maximum, the max of the
    x_i^2, taken in axis order; a box cut from the grid's axes gets the whole
    grid's values there, bit for bit."""
    return functools.reduce(combine, np.ix_(*squares))


def node_rule(r2: np.ndarray) -> tuple:
    """(closed, interior) masks of a block of squared radii r2 (Euclidean or
    max norm): closed is r2 <= 1, interior is r2 < 1 with every axis
    neighbour in closed.  A node on a face of the block lacks a neighbour
    and is never interior; on the whole grid those are the nodes on the faces
    of [-1,1]^N, where r2 >= 1."""
    closed = r2 <= 1.0
    interior = np.zeros(r2.shape, dtype=bool)
    core = (slice(1, -1),) * r2.ndim
    inner = interior[core]
    np.less(r2[core], 1.0, out=inner)
    for ax in range(r2.ndim):
        for side in (slice(None, -2), slice(2, None)):  # neighbours at -h and +h
            inner &= closed[core[:ax] + (side,) + core[ax + 1:]]
    return closed, interior


def axis_strides(shape: tuple) -> tuple:
    """Per axis, the flat offset of one step along it in a C-ordered array of
    this shape: the product of the trailing extents.

    The link layout of every stencil: along an axis of stride s, the link
    j -> j + s joins flat node j to its neighbour, for j < size - s; link
    arrays are indexed by j.  A link from the last node of a row along the
    axis wraps to the first node of the next row and is no link of the grid.
    """
    strides, s = [], 1
    for extent in reversed(shape):
        strides.append(s)
        s *= extent
    return tuple(reversed(strides))


@functools.lru_cache(maxsize=64)
def node_masks(grid: GridSpec) -> tuple:
    """The grid's read-only (closed, interior) masks: node_rule on its
    squared radii, Euclidean for a ball and max norm for a cube."""
    combine = np.maximum if grid.shape == "cube" else np.add
    masks = node_rule(radius_squared([grid.axis_coords() ** 2] * grid.dimension, combine))
    for m in masks:
        m.setflags(write=False)
    return masks


def mirror_axes(grid: GridSpec, *node_arrays) -> tuple:
    """The axes along which the grid and every given float node array are
    mirror-exact: the squared axis coordinates equal their reverse (x2 ==
    x2[::-1], true for every n = 2^k + 1 and for no other n of 9 .. 599,
    where linspace rounds) and each array equals its flip along the axis bit
    for bit.  Then the node masks are mirror-symmetric too."""
    x2 = grid.axis_coords() ** 2
    if not np.array_equal(x2, x2[::-1]):
        return ()
    bits = [a.view(np.uint64) for a in node_arrays]
    return tuple(ax for ax in range(grid.dimension)
                 if all(np.array_equal(b, np.flip(b, ax)) for b in bits))


def mirror_box(grid: GridSpec, axes: tuple) -> tuple:
    """The slices of the mirror box of `axes`: nodes m .. n-1 along each of
    them (m = (n-1)/2, the mirror plane), all n along the others."""
    m = (grid.nodes_per_axis - 1) // 2
    return tuple(slice(m, None) if ax in axes else slice(None) for ax in range(grid.dimension))


@functools.lru_cache(maxsize=64)
def off_links(grid: GridSpec, axes: tuple) -> tuple:
    """Per axis, over the flat links (see axis_strides) of the mirror box of
    `axes` (the whole grid for ()), those that carry no flux: a link that
    wraps across a row, or one with an exterior end node."""
    ok = nonexterior_mask(grid)[mirror_box(grid, axes)]
    masks = []
    for s, extent in zip(axis_strides(ok.shape), ok.shape):
        flat = ok.ravel()
        wraps = np.arange(flat.size - s) // s % extent == extent - 1
        m = wraps | ~(flat[:-s] & flat[s:])
        m.setflags(write=False)
        masks.append(m)
    return tuple(masks)


def unfold(axes: tuple, box_values: np.ndarray) -> np.ndarray:
    """The node array whose mirror box of `axes` holds box_values and which
    equals its flip along each of them (box_values itself for no axis)."""
    for ax in axes:  # the flip less its last entry, the mirror plane, goes first
        flipped = np.flip(box_values, ax)[(slice(None),) * ax + (slice(0, -1),)]
        box_values = np.concatenate((flipped, box_values), axis=ax)
    return box_values


@functools.lru_cache(maxsize=64)
def multiplicities(grid: GridSpec, axes: tuple) -> tuple:
    """(nodes, links): how many nodes or links of the whole grid each one of
    the mirror box of `axes` stands for, read-only and flat like off_links.
    A node counts 2 for each of the axes off whose mirror plane it lies, and
    a link as its upper node (m -> m+1 along a reduced axis stands for
    m-1 -> m too), but 0 if off.  Powers of 2, so scaling by them is exact."""
    nodes = np.ones(nonexterior_mask(grid)[mirror_box(grid, axes)].shape)
    for ax in axes:
        nodes[(slice(None),) * ax + (slice(1, None),)] *= 2.0
    links = [np.where(off, 0.0, nodes.reshape(-1)[s:])
             for s, off in zip(axis_strides(nodes.shape), off_links(grid, axes))]
    nodes = nodes.reshape(-1)
    for m in [nodes] + links:
        m.setflags(write=False)
    return nodes, tuple(links)


def interior_mask(grid: GridSpec) -> np.ndarray:
    return node_masks(grid)[1]


def boundary_mask(grid: GridSpec) -> np.ndarray:
    closed, interior = node_masks(grid)
    return closed & ~interior


def nonexterior_mask(grid: GridSpec) -> np.ndarray:
    return node_masks(grid)[0]


def node_coordinates(grid: GridSpec, multi_index: np.ndarray) -> np.ndarray:
    """Coordinates of nodes given as a (k, N) integer multi-index array."""
    c = grid.axis_coords()
    return c[np.asarray(multi_index)]


@dataclass
class ScalarField:
    """Node-valued function on a grid; exterior nodes hold NaN (unset)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.node_shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.node_shape}"
            )

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "ScalarField":
        """Evaluate a vectorized callable fn(points (k,N)) -> (k,) on the non-exterior nodes."""
        idx = np.argwhere(nonexterior_mask(grid))
        pts = node_coordinates(grid, idx)
        vals = np.full(grid.node_shape, np.nan)
        vals[tuple(idx.T)] = np.asarray(fn(pts), dtype=float)
        return cls(grid, vals)

    def sup_norm(self, where: str = "nonexterior") -> float:
        mask = interior_mask(self.grid) if where == "interior" else nonexterior_mask(self.grid)
        if not mask.any():
            return 0.0
        return float(np.nanmax(np.abs(self.values[mask])))

    def validate_finite(self) -> None:
        """Check the core invariant: finite on interior and boundary nodes."""
        mask = nonexterior_mask(self.grid)
        bad = mask & ~np.isfinite(self.values)
        if bad.any():
            node = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"non-finite value at non-exterior node {node}")


# Rows per formatted block: a few hundred KB of text and cell objects per block, whatever the grid.
_BLOCK_ROWS = 4096


def write_field(path, field: ScalarField) -> None:
    """Write one row per non-exterior node: x1,...,xN,value with 17 significant digits.

    The n axis coordinates are formatted once, as "%.17g," strings, and so
    are the values on the mirror box of a field's mirror_axes, unfolded;
    both are gathered per node (kept as flat indices, 1/N of the memory of
    multi-indices).  Each block of _BLOCK_ROWS rows is then one `%` call on
    the row template repeated, so no Python call is made per cell.  `%.17g`
    writes the same text as the per-cell `f"{x:.17g}"`
    (tests/field_writer_reference.py), so the file is byte-identical to that
    writer's.  The field is validated before the file is opened, so a
    non-finite field leaves any old file as it was.
    """
    field.validate_finite()
    grid = field.grid
    mask = nonexterior_mask(grid)  # boolean indexing and flatnonzero are lexicographic
    axes = mirror_axes(grid, field.values)
    if axes:
        box = mirror_box(grid, axes)
        vals = field.values[box][mask[box]].tolist()
        text = np.empty(mask[box].shape, dtype=object)
        text[mask[box]] = ("%.17g\n" * len(vals) % tuple(vals)).split("\n")[:-1]
        vals = unfold(axes, text)[mask]
    else:
        vals = field.values[mask]
    nodes = np.flatnonzero(mask)
    coords = np.array(["%.17g," % c for c in grid.axis_coords()], dtype=object)
    template = "%s" * grid.dimension + ("%s\n" if axes else "%.17g\n")
    header = ",".join(f"x{i + 1}" for i in range(grid.dimension)) + ",value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(nodes), _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, len(nodes))
            cells = np.empty((hi - lo, grid.dimension + 1), dtype=object)
            cells[:, :-1] = coords[np.column_stack(np.unravel_index(nodes[lo:hi], mask.shape))]
            cells[:, -1] = vals[lo:hi]
            fh.write(template * (hi - lo) % tuple(cells.ravel().tolist()))
