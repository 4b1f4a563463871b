"""Numerical laboratory for the anisotropic pseudo-p-Laplace equation.

Grids over [-1,1]^N masked to the unit ball, a convex-energy Dirichlet
solver, the explicit radial barrier with its L-infinity bound, a discrete
comparison check, the small symmetric-matrix machinery behind the interior
regularity estimates, and empirical Hölder/Lipschitz seminorm measurement.
"""

__version__ = "0.1.0"
