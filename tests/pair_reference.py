"""The doubling-pair block sampler evaluated one pair at a time, as a bitwise reference.

`feasible_pair_conclusions` below draws from the rng in the order the
shipped one does (jets of each N in order of first appearance, then rounds
over the jets still pending, each drawing S and its radius factor), but
takes each jet of the stack alone as a RadialJet, builds it alone, scales S
by `eig.spectral_norm`, and tests each pair with the one-jet call
`jets.pair_conclusions_check`.
"""

import numpy as np

from pseudoplap import jets
from pseudoplap.eig import spectral_norm


def feasible_pair_conclusions(stack, ps, eps, rng):
    rs = stack.radial()
    out = [None] * len(rs)
    by_n = {}
    for k, r in enumerate(rs):
        by_n.setdefault(r.N, []).append(k)
    for ks in by_n.values():
        pending = list(ks)
        for _ in range(jets._PAIR_DRAWS):
            draws = []
            for k in pending:
                S = jets._direction(rng, rs[k].N)
                draws.append((S, rng.uniform(0.0, 1.0) if S.any() else 0.0))
            for k, (S, u) in zip(pending, draws):
                jm = jets._assemble(rs[k], ps[k])
                n, M = jm.N, jm.M
                s_norm, ht_norm = spectral_norm(S), spectral_norm(jm.Htilde)
                if s_norm > 0.0:
                    S = S * (u * (M / 4.0) * ht_norm / s_norm)
                X = (2.0 * M + 1.0) * np.eye(n) - 2.0 * M * ht_norm * np.eye(n) + S
                try:
                    rep = jets.pair_conclusions_check(X, X, jm, eps[k])
                except ValueError as err:  # rs[k] passed pair_jet, so only the squeeze fails
                    assert "block squeeze" in str(err)
                    continue
                if rep.norm_sum <= 6.0 * M * spectral_norm(jm.H1) * (1.0 + 1e-12):
                    out[k] = rep
            pending = [k for k in pending if out[k] is None]
            if not pending:
                break
        else:
            raise RuntimeError("no feasible pair")
    return out
