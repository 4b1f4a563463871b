"""The serial eigenvalue-bound sampler, kept as the bitwise reference for
`lemmas.min_eig_rows`.

It draws each block as the shipped sampler does, one vector call per
variable, but screens and checks one draw at a time: min_eig_bound_check,
the one-point call of the stacked screen and check, builds each H on its
own, and its stack of one matrix runs through `eig.jacobi_eigvals`, which
the shipped sampler calls on the stacked matrices of each block and N.
Each draw gets its own modulus object, with scalar parameters.
"""

import numpy as np

from pseudoplap.eig import vector_norm
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
            k = samples - done
            N = rng.integers(1, 4, size=k).tolist()
            gamma = rng.uniform(0.1, 0.9, size=k).tolist()
            if branch == "small":
                p = rng.uniform(2.05, 4.0, size=k).tolist()
                lipschitz = (rng.random(k) < 0.3).tolist()
                tau = rng.uniform(0.05, 0.45, size=k).tolist()
                s = (10.0 ** rng.uniform(-4.0, -0.33, size=k)).tolist()
            else:
                p = rng.uniform(4.0, 8.0, size=k).tolist()
                lipschitz = [False] * k
                s = (10.0 ** rng.uniform(-6.0, -1.5, size=k)).tolist()
            X = rng.standard_normal((k, 3))
            for j in range(k):
                if lipschitz[j]:
                    modulus = lipschitz_modulus(tau[j])
                else:
                    modulus = HolderModulus(gamma[j])
                eps = None if branch == "small" \
                    else (1.0 - gamma[j]) / (2.0 * max(p[j] - 4.0, 0.25))
                x = X[j, :N[j]]
                x = x * (s[j] / vector_norm(x))
                try:
                    ray, bound, slack = min_eig_bound_check(x, p[j], eps, modulus)
                except ValueError:
                    continue  # rejected sample (empty index set / damped inequality fails)
                rel = slack / max(1.0, abs(bound))
                worst = min(worst, rel)
                rows.append([branch, p[j], N[j], gamma[j], s[j], ray, bound, slack, rel])
                done += 1
    return rows, worst
