"""Closed-form and manufactured reference solutions, plus named f/boundary presets.

The 1D closed form solves (|u'|^{p-2} u')' = (p-1) c on (-1,1) with zero
endpoint values:

    u(x) = ((p-1) c)^{1/(p-1)} (|x|^q - 1) / q,   q = p/(p-1).

Summing copies per axis gives the separable reference u*(x) = sum_i w(x_i)
whose right-hand side is the constant N c; its trace supplies compatible
Dirichlet data on the cube.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, ScalarField, nonexterior_mask
from .operators import check_exponent


def closed_form_1d(p: float, c: float = 1.0):
    """Returns (u, u') for the symmetric 1D problem with f = c > 0."""
    check_exponent(p)
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    q = p / (p - 1.0)
    amp = ((p - 1.0) * c) ** (1.0 / (p - 1.0))
    if not np.isfinite(amp):  # u would be inf * 0 = NaN at |x| = 1
        raise ValueError(f"c = {c} is too large: ((p-1) c)^(1/(p-1)) overflows")

    def u(x):
        x = np.asarray(x, dtype=float)
        return amp * (np.abs(x) ** q - 1.0) / q

    def du(x):
        x = np.asarray(x, dtype=float)
        return amp * np.abs(x) ** (1.0 / (p - 1.0)) * np.sign(x)

    return u, du


def separable_reference(p: float, N: int, c: float = 1.0):
    """Manufactured u*(x) = sum_i w(x_i), which is separable_trace(p, c);
    solves the equation with f = N c."""
    return separable_trace(p, c), N * c


def constant_boundary(value: float):
    def fn(points):
        points = np.atleast_2d(points)
        return np.full(len(points), float(value))

    return fn


zero_boundary = constant_boundary(0.0)


def separable_trace(p: float, c: float = 1.0):
    """u*(x) = sum_i w(x_i) with w the 1D closed form: as Dirichlet data it
    matches the separable reference on the boundary band."""
    w, _ = closed_form_1d(p, c)

    def fn(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return w(points).sum(axis=1)

    return fn


def constant_field(grid: GridSpec, value: float) -> ScalarField:
    return ScalarField.from_function(grid, lambda pts: np.full(len(pts), float(value)))


def check_sigma(sigma: float) -> None:
    """A Gaussian's width: sigma > 0 with 2 sigma^2 a finite normal float,
    so that exp(-d^2 / (2 sigma^2)) is 1 at the centre, not 0/0."""
    if not np.finfo(float).tiny <= 2.0 * sigma * sigma < np.inf or not sigma > 0:
        raise ValueError(f"sigma must be > 0 with 2 sigma^2 a finite normal float, got {sigma}")


def gaussian_field(grid: GridSpec, amp: float = 1.0, center=None, sigma: float = 0.3) -> ScalarField:
    check_sigma(sigma)
    if center is None:
        center = np.zeros(grid.dimension)
    center = np.asarray(center, dtype=float)

    def fn(pts):
        d2 = ((np.atleast_2d(pts) - center) ** 2).sum(axis=1)
        return amp * np.exp(-d2 / (2.0 * sigma**2))

    return ScalarField.from_function(grid, fn)


def checkerboard_field(grid: GridSpec, amp: float = 1.0) -> ScalarField:
    """Sign-alternating field amp * (-1)^(i1+...+iN) on non-exterior nodes."""
    parity = np.indices(grid.node_shape).sum(axis=0)
    vals = amp * np.where(parity % 2 == 0, 1.0, -1.0)
    out = np.where(nonexterior_mask(grid), vals, np.nan)
    return ScalarField(grid, out)


def radial_ramp_field(grid: GridSpec, amp: float = 1.0) -> ScalarField:
    def fn(pts):
        return amp * np.sqrt((np.atleast_2d(pts) ** 2).sum(axis=1))

    return ScalarField.from_function(grid, fn)


F_PRESETS = ("constant", "separable", "gaussian", "checkerboard", "radial_ramp")
BOUNDARY_PRESETS = ("zero", "constant", "separable_trace")


def make_f_field(grid: GridSpec, preset: str, value: float = 1.0, p: float = 3.0,
                 sigma: float = 0.3) -> ScalarField:
    if preset == "constant":
        return constant_field(grid, value)
    if preset == "separable":
        _, f_const = separable_reference(p, grid.dimension, value)
        return constant_field(grid, f_const)
    if preset == "gaussian":
        return gaussian_field(grid, amp=value, sigma=sigma)
    if preset == "checkerboard":
        return checkerboard_field(grid, amp=value)
    if preset == "radial_ramp":
        return radial_ramp_field(grid, amp=value)
    raise ValueError(f"unknown f preset {preset!r}; expected one of {F_PRESETS}")


def make_boundary(preset: str, value: float = 0.0, p: float = 3.0):
    if preset == "zero":
        return zero_boundary
    if preset == "constant":
        return constant_boundary(value)
    if preset == "separable_trace":
        return separable_trace(p, value)
    raise ValueError(f"unknown boundary preset {preset!r}; expected one of {BOUNDARY_PRESETS}")


def sweep_presets(grid: GridSpec, rng) -> list:
    """Ten deterministic-shape f presets with small seeded jitter, for the
    regularity sweep.  Jitter (centers within +-0.05, amplitudes +-1%) keeps
    the max ratio stable across seeds while still exercising reseeding."""
    jit = lambda: 1.0 + 0.01 * (2.0 * rng.random() - 1.0)
    off = lambda: 0.05 * (2.0 * rng.random(grid.dimension) - 1.0)
    presets = [
        ("const_1", constant_field(grid, 1.0 * jit())),
        ("const_neg", constant_field(grid, -1.0 * jit())),
        ("const_4", constant_field(grid, 4.0 * jit())),
        ("gauss_center", gaussian_field(grid, amp=2.0 * jit(), center=off(), sigma=0.35)),
        ("gauss_offset", gaussian_field(grid, amp=-1.5 * jit(),
                                        center=0.3 * np.ones(grid.dimension) + off(),
                                        sigma=0.25)),
        ("gauss_narrow", gaussian_field(grid, amp=3.0 * jit(), center=off(), sigma=0.15)),
        ("checkerboard", checkerboard_field(grid, amp=0.5 * jit())),
        ("radial_ramp", radial_ramp_field(grid, amp=1.0 * jit())),
        ("separable", constant_field(grid, float(grid.dimension) * jit())),
        ("tilt", ScalarField.from_function(
            grid, lambda pts, a=jit(): a * (np.atleast_2d(pts)[:, 0] + 0.5))),
    ]
    return presets
