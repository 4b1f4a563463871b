"""The doubling-pair block sampler evaluated one pair at a time, as a bitwise reference.

`feasible_pair_conclusions` below draws from the rng in the order the
shipped one does (jets of each N in order of first appearance, then rounds
over the jets still pending, each drawing S and its radius factor), but
takes each jet of the stack alone, as the one-jet stack `stack.take([k])`
cut to its N axes, builds it alone, scales S by `eig.spectral_norm`, and
tests each pair with the one-jet call `jets.pair_conclusions_check`.
"""

from dataclasses import replace

import numpy as np

from pseudoplap import jets
from pseudoplap.eig import spectral_norm


def alone(stack, k):
    """Jet k of the Jets stack as a one-jet stack, x cut to its N axes."""
    one = stack.take([k])
    return replace(one, x=one.x[:, :int(one.N[0])])


def feasible_pair_conclusions(stack, rng):
    ones = [alone(stack, k) for k in range(len(stack))]
    out = [None] * len(ones)
    by_n = {}
    for k, one in enumerate(ones):
        by_n.setdefault(int(one.N[0]), []).append(k)
    for n, ks in by_n.items():
        pending = list(ks)
        for _ in range(jets._PAIR_DRAWS):
            draws = []
            for k in pending:
                S = jets._direction(rng, n)
                draws.append((S, rng.uniform(0.0, 1.0) if S.any() else 0.0))
            for k, (S, u) in zip(pending, draws):
                jm = jets._jet_matrices(ones[k])
                H1 = jets._stack_matrices(ones[k])[0][0]
                M = float(ones[k].M[0])
                s_norm, ht_norm = spectral_norm(S), spectral_norm(jm.Htilde[0])
                if s_norm > 0.0:
                    S = S * (u * (M / 4.0) * ht_norm / s_norm)
                X = (2.0 * M + 1.0) * np.eye(n) - 2.0 * M * ht_norm * np.eye(n) + S
                try:
                    rep = jets.pair_conclusions_check(X, jm)
                except ValueError as err:  # the jet passed Jets.large_branch: the squeeze failed
                    assert "block squeeze" in str(err)
                    continue
                if rep.norm_sum <= 6.0 * M * spectral_norm(H1) * (1.0 + 1e-12):
                    out[k] = rep
            pending = [k for k in pending if out[k] is None]
            if not pending:
                break
        else:
            raise RuntimeError("no feasible pair")
    return out
