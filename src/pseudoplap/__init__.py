"""Numerical laboratory for the anisotropic pseudo-p-Laplace equation.

Grids over [-1,1]^N masked to the unit ball, a convex-energy Dirichlet
solver, the explicit radial barrier with its L-infinity bound, a discrete
comparison check, the small symmetric-matrix machinery behind the interior
regularity estimates, and empirical Hölder/Lipschitz seminorm measurement.
"""

__version__ = "0.1.0"

from .grid import GridSpec, NodeClass, ScalarField, classify_nodes, interior_ball_nodes
from .grid import read_field, write_field
from .operators import apply_divergence, apply_nondivergence
from .operators import homogeneity_check
from .solver import EnergyProblem, SolveConfig, SolveReport, energy, energy_gradient
from .solver import solve_dirichlet
from .barrier import BarrierParams, barrier_field, comparison_check, linf_bound_check
from .barrier import min_barrier_M, verify_supersolution
from .moduli import HolderModulus, LipschitzModulus
from .jets import JetMatrices, build_jet_matrices, check_eq_n_epsilon, feasible_pair_sample
from .jets import index_set, min_eig_bound_check, pair_conclusions_check, sample_pair_conclusions
from .jets import test_vector
from .claims import RegimeParams, claims_check, regime_params, zt_check
from .regularity import ExperimentRecord, estimate_constant, holder_seminorm
from .regularity import lipschitz_seminorm

__all__ = [name for name in dir() if not name.startswith("_")]
