"""The serial eigenvalue-bound sampler, kept as the bitwise reference for
`lemmas.min_eig_rows`.

It draws, screens and checks one draw at a time: min_eig_bound_check, the
one-jet call of the stacked check, builds each H on its own, and its stack of
one matrix runs through `eig.jacobi_eigvals`, which the shipped sampler
calls on the stacked matrices of each branch and N.
"""

import numpy as np

from pseudoplap.jets import min_eig_bound_check
from pseudoplap.lemmas import lipschitz_modulus
from pseudoplap.moduli import HolderModulus


def min_eig_rows(rng: np.random.Generator, samples: int):
    """`samples` accepted draws per branch (small p, then large p) of the eigenvalue bound.

    Rows: branch, p, N, gamma, s, rayleigh, bound, slack, rel_slack.
    """
    rows = []
    worst = np.inf
    for branch in ("small", "large"):
        done = 0
        while done < samples:
            N = int(rng.integers(1, 4))
            gamma = float(rng.uniform(0.1, 0.9))
            if branch == "small":
                p = float(rng.uniform(2.05, 4.0))
                if rng.random() < 0.3:  # Lipschitz moduli satisfy the same bound
                    modulus = lipschitz_modulus(float(rng.uniform(0.05, 0.45)))
                else:
                    modulus = HolderModulus(gamma)
                s = 10.0 ** rng.uniform(-4.0, -0.33)
                eps = None
            else:
                p = float(rng.uniform(4.0, 8.0))
                modulus = HolderModulus(gamma)
                eps = (1.0 - gamma) / (2.0 * max(p - 4.0, 0.25))
                s = 10.0 ** rng.uniform(-6.0, -1.5)
            x = rng.standard_normal(N)
            x *= s / np.linalg.norm(x)
            try:
                ray, bound, slack = min_eig_bound_check(x, p, eps, modulus)
            except ValueError:
                continue  # rejected sample (empty index set / damped inequality fails)
            rel = slack / max(1.0, abs(bound))
            worst = min(worst, rel)
            rows.append([branch, p, N, gamma, s, ray, bound, slack, rel])
            done += 1
    return rows, worst
