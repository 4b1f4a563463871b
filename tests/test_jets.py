from dataclasses import fields

import numpy as np
import pytest

import jacobi_reference
from pair_reference import alone
from pseudoplap import jets
from pseudoplap.claims import DEFAULT_REGIME_P, REGIMES, regime_params
from pseudoplap.eig import jacobi_eigh, jacobi_eigvals, row_dots, spectral_norm
from pseudoplap.jets import (
    Jets,
    _index_sets,
    _stack_matrices,
    _test_vectors,
    build_jet_matrices,
    feasible_pair_sample,
    feasible_pairs,
    jet_scalars,
    min_eig_bound_check,
    pair_conclusions_check,
)
from pseudoplap.moduli import HolderModulus, LipschitzModulus, stacked


def random_point(rng, N, s):
    x = rng.standard_normal(N)
    return x * (s / np.linalg.norm(x))


def scalar(jm, name):
    """The scalar `name` of the one jet of jm, as a Python float."""
    return float(getattr(jm.jets, name)[0])


def h1_of(jm):
    """The H1 of the one jet of jm."""
    return _stack_matrices(jm.jets)[0][0]


def concat(ones):
    """One Jets stack of the one-jet stacks ones, all of one N, in order."""
    return Jets(*(np.concatenate([getattr(one, f.name) for one in ones]) for f in fields(Jets)))


def test_jet_matrices_1d_example():
    mod = HolderModulus(0.5)
    jm = build_jet_matrices(np.array([0.5]), 10.0, 3.0, mod)
    assert abs(h1_of(jm)[0, 0] - (-(0.25) * 0.5**-1.5)) < 1e-14
    assert abs(jm.Theta[0, 0, 0] - mod.omega_prime(0.5) ** 0.5) < 1e-14


def assemble_reference(one):
    """H1, Htilde, Theta and H of the one-jet stack one by the formulas on 2D
    arrays: the reference for _stack_matrices, for the stacked
    H = Theta @ Htilde @ Theta of min_eig_checks, and for
    build_jet_matrices."""
    x = one.x[0]
    s, wp, wpp, iota, p = (float(v[0]) for v in (one.s, one.wp, one.wpp, one.iota, one.p))
    unit = x / s
    H1 = (wpp - wp / s) * np.outer(unit, unit) + (wp / s) * np.eye(len(x))
    Htilde = H1 + 2.0 * iota * (H1 @ H1)
    Theta = np.diag(np.abs(wp * x / s) ** ((p - 2.0) / 2.0))
    return H1, Htilde, Theta, Theta @ Htilde @ Theta


@pytest.mark.parametrize("N", [1, 2, 3])
def test_stacked_matrices_match_one_jet_formulas(N):
    # p = 3 and p = 6 give numpy's sqrt and square exponents, the others pow
    rng = np.random.default_rng(N)
    jms = []
    for k in range(200):
        x = random_point(rng, N, 10 ** rng.uniform(-4, -0.5))
        mod = HolderModulus(float(rng.uniform(0.1, 0.9)))
        M = float(rng.uniform(1.5, 50.0))
        p = (3.0, 6.0, 4.0, float(rng.uniform(2.05, 8.0)))[k % 4]
        jms.append(build_jet_matrices(x, M, p, mod))
    H1s, Htildes, Thetas = _stack_matrices(concat([jm.jets for jm in jms]))
    Hs = Thetas @ Htildes @ Thetas  # the stacked H of min_eig_bound_checks
    for k, jm in enumerate(jms):
        H1, Htilde, Theta, H = assemble_reference(jm.jets)
        Ht, Th = jm.Htilde[0], jm.Theta[0]
        for got, alone, want in ((H1s[k], h1_of(jm), H1), (Htildes[k], Ht, Htilde),
                                 (Thetas[k], Th, Theta), (Hs[k], Th @ Ht @ Th, H)):
            assert np.array_equal(got, want) and np.array_equal(alone, want), (k, jm.jets.p)


def test_jet_h1_eigenstructure():
    rng = np.random.default_rng(0)
    mod = HolderModulus(0.4)
    for _ in range(20):
        x = random_point(rng, 3, 10 ** rng.uniform(-3, -0.5))
        jm = build_jet_matrices(x, 5.0, 3.0, mod)
        s = np.linalg.norm(x)
        w, V = jacobi_eigh(h1_of(jm))
        expected = np.sort([mod.omega_second(s), mod.omega_prime(s) / s,
                            mod.omega_prime(s) / s])
        assert np.abs(np.sort(w) - expected).max() < 1e-12 * max(1, np.abs(expected).max())


def test_jet_iota_normalization():
    rng = np.random.default_rng(1)
    for N in (1, 2, 3):  # in 1D, |H1| is |w''| alone
        for M in (1.5, 10.0, 200.0):
            x = random_point(rng, N, 0.05)
            jm = build_jet_matrices(x, M, 3.0, HolderModulus(0.5))
            assert abs(scalar(jm, "iota") * spectral_norm(h1_of(jm)) * 4.0 * M - 1.0) < 1e-12


def test_jet_htilde_closed_form():
    rng = np.random.default_rng(2)
    for mod in (HolderModulus(0.3), HolderModulus(0.8), LipschitzModulus(0.2, 0.5)):
        for _ in range(10):
            x = random_point(rng, int(rng.integers(1, 4)), 10 ** rng.uniform(-3, -0.7))
            jm = build_jet_matrices(x, float(rng.uniform(1.1, 40)), 3.3, mod)
            s = np.linalg.norm(x)
            unit = x / s
            wp, wpp = float(mod.omega_prime(s)), float(mod.omega_second(s))
            alphaH, betaH = scalar(jm, "alphaH"), scalar(jm, "betaH")
            closed = (betaH * wpp - alphaH * wp / s) * np.outer(unit, unit) \
                + alphaH * (wp / s) * np.eye(len(x))
            rel = np.abs(closed - jm.Htilde[0]).max() / np.abs(jm.Htilde[0]).max()
            assert rel < 1e-12


def test_jet_cached_norms():
    # the norms a pair stack holds for each jet
    rng = np.random.default_rng(12)
    for mod in (HolderModulus(0.3), HolderModulus(0.8), LipschitzModulus(0.2, 0.5)):
        for _ in range(10):
            N = int(rng.integers(1, 5))
            x = random_point(rng, N, 10 ** rng.uniform(-4, -0.7))
            jm = build_jet_matrices(x, float(rng.uniform(1.1, 40)), 3.3, mod)
            h1_norm, ht_norm = jm.h1_norm[0], jm.ht_norm[0]
            assert h1_norm == spectral_norm(h1_of(jm))
            assert ht_norm == spectral_norm(jm.Htilde[0])
            s = np.linalg.norm(x)
            wp, wpp = float(mod.omega_prime(s)), float(mod.omega_second(s))
            # in 1D only the radial eigenvalue exists
            h1 = max(abs(wpp), wp / s) if N > 1 else abs(wpp)
            alphaH, betaH = scalar(jm, "alphaH"), scalar(jm, "betaH")
            ht = max(abs(betaH * wpp), alphaH * wp / s) if N > 1 else abs(betaH * wpp)
            assert abs(h1_norm - h1) <= 1e-12 * h1
            assert abs(ht_norm - ht) <= 1e-12 * ht


def test_alpha_beta_ranges():
    rng = np.random.default_rng(3)
    for _ in range(200):
        mod = HolderModulus(float(rng.uniform(0.1, 0.9))) if rng.random() < 0.5 \
            else LipschitzModulus(float(rng.uniform(0.05, 0.45)), 0.4)
        N = int(rng.integers(1, 4))
        x = random_point(rng, N, 10 ** rng.uniform(-4, -0.7))
        M = float(rng.uniform(1.001, 100))
        jm = build_jet_matrices(x, M, 4.0, mod)
        alphaH, betaH = scalar(jm, "alphaH"), scalar(jm, "betaH")
        # alpha damps the tangential eigenvalue w'/s, which 1D does not have:
        # there iota = 1/(4M|w''|) bounds only beta, to exactly 1 - 1/(2M)
        assert 1.0 < alphaH and (N == 1 or alphaH <= 1.5)
        assert 0.5 <= betaH <= 1.5  # upper edge derived from 2 iota |w''| <= 1/2
        if N == 1:
            assert abs(betaH - (1.0 - 0.5 / M)) <= 1e-15


def test_block_norm_identity():
    rng = np.random.default_rng(4)
    x = random_point(rng, 2, 0.1)
    M = 7.0
    jm = build_jet_matrices(x, M, 3.0, HolderModulus(0.5))
    H1 = h1_of(jm)
    A = M * np.block([[H1, -H1], [-H1, H1]])
    assert abs(spectral_norm(A) - 2.0 * M * spectral_norm(h1_of(jm))) < 1e-10 * spectral_norm(A)


@pytest.mark.parametrize("M", [1.0, 0.5, -2.0, np.nan])
def test_jet_entry_points_reject_M_at_most_one(M):
    mod = HolderModulus(0.5)
    x = np.array([0.05, 0.02])
    with pytest.raises(ValueError, match="M must be > 1"):
        feasible_pairs(jet_scalars(x[None], None, M, 3.0, None, mod), np.random.default_rng(0))
    with pytest.raises(ValueError, match="M must be > 1"):
        build_jet_matrices(x, M, 3.0, mod)


def test_build_rejects_bad_inputs():
    mod = HolderModulus(0.5)
    with pytest.raises(ValueError):
        build_jet_matrices(np.zeros(2), 10.0, 3.0, mod)
    with pytest.raises(ValueError):
        build_jet_matrices(np.array([0.5]), 1.0, 3.0, mod)  # M must be > 1
    with pytest.raises(ValueError):
        build_jet_matrices(np.array([1.2]), 10.0, 3.0, mod)
    lip = LipschitzModulus(0.25, 0.72)
    with pytest.raises(ValueError):
        build_jet_matrices(np.array([lip.s0 * 0.999 + 0.01]), 10.0, 3.0, lip)


def axes_of(x, eps):
    """The large branch's index set of the one point x, as a mask: the
    stacked _index_sets of a one-point stack."""
    x = np.asarray(x, dtype=float)[None]
    return _index_sets(x, np.sqrt(row_dots(x, x)), np.array([x.shape[1]]), eps)[0]


def vector_of(x, p, axes=None):
    """The test vector of the one point x at p on the axes mask, x != 0 by
    default: the stacked _test_vectors of a one-point stack."""
    x = np.asarray(x, dtype=float)
    axes = x != 0.0 if axes is None else axes
    return _test_vectors(x[None], np.array([p]), axes[None])[0]


def test_index_set_examples():
    assert axes_of(np.array([0.3]), 0.7).tolist() == [True]
    x = np.array([0.1, 0.1])
    s = np.linalg.norm(x)
    manual = [i for i in range(2) if abs(x[i]) >= s**1.1]
    assert np.flatnonzero(axes_of(x, 0.1)).tolist() == manual and manual == []
    assert axes_of(np.array([0.5, 1e-9]), 0.5).tolist() == [True, False]


def test_index_set_nonempty_guarantee():
    rng = np.random.default_rng(5)
    for _ in range(200):
        N = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.01, 1.0))
        x = random_point(rng, N, 10 ** rng.uniform(-4, -0.5))
        if N * np.linalg.norm(x) ** (2 * eps) <= 1.0:
            assert axes_of(x, eps).any()


def test_test_vector_p4_signs():
    x = np.array([0.3, -0.2])
    w = vector_of(x, 4.0)
    assert np.allclose(w, np.sign(x))


def test_test_vector_arithmetic_example():
    x = np.array([0.04, 0.03])
    w = vector_of(x, 3.0)
    assert np.allclose(w, [0.2, np.sqrt(0.03)], atol=1e-12)
    assert abs(w @ w - 0.07) < 1e-15
    s = np.linalg.norm(x)  # = 0.05
    assert w @ w <= s ** (4.0 - 3.0) * 2.0 ** 0.5 + 1e-15  # small-p norm bound


def test_test_vector_norm_bounds_random():
    rng = np.random.default_rng(6)
    for _ in range(300):
        N = int(rng.integers(1, 4))
        x = random_point(rng, N, 10 ** rng.uniform(-3, -0.3))
        s = np.linalg.norm(x)
        p = float(rng.uniform(2.05, 4.0))
        w = vector_of(x, p)
        assert w @ w <= s ** (4 - p) * N ** ((p - 2) / 2) * (1 + 1e-12)
        p = float(rng.uniform(4.0 + 1e-6, 8.0))
        eps = float(rng.uniform(0.05, 0.5))
        axes = axes_of(x, eps)
        if axes.any():
            w = vector_of(x, p, axes)
            assert w @ w <= axes.sum() * s ** ((4 - p) * (1 + eps)) * (1 + 1e-12)


def test_test_vector_zero_component():
    w = vector_of(np.array([0.3, 0.0]), 3.5)
    assert w[1] == 0.0 and np.isfinite(w).all()
    w4 = vector_of(np.array([0.3, 0.0]), 4.0)
    assert w4[1] == 0.0
    x = np.array([0.1, 1e-8])
    assert vector_of(x, 6.0, axes_of(x, 0.3))[1] == 0.0  # restricted support


def test_min_eig_bound_1d_equality():
    # scalar case: lambda_min(H) = (w')^{p-2} (w'' + 2 iota w''^2) = beta w'' (w')^{p-2}
    mod = HolderModulus(0.5)
    ray, bound, slack = min_eig_bound_check(np.array([0.3]), 3.0, None, mod)
    assert abs(slack) < 1e-12 * abs(bound)
    assert abs(ray - bound) < 1e-12 * abs(bound)


def test_min_eig_bound_2d_example():
    ray, bound, slack = min_eig_bound_check(np.array([0.05, 0.02]), 3.0, None,
                                            HolderModulus(0.5))
    assert slack >= -1e-9 * abs(bound)
    assert ray <= bound + 1e-12 * abs(bound)


@pytest.mark.parametrize("branch,n_samples", [("small", 300), ("large", 300)])
def test_min_eig_bound_random_sweep(branch, n_samples):
    rng = np.random.default_rng(7)
    done = 0
    while done < n_samples:
        N = int(rng.integers(1, 4))
        gamma = float(rng.uniform(0.1, 0.9))
        mod = HolderModulus(gamma)
        if branch == "small":
            p = float(rng.uniform(2.05, 4.0))
            eps = None
            s = 10 ** rng.uniform(-4, -0.33)
        else:
            p = float(rng.uniform(4.0, 8.0))
            eps = (1 - gamma) / (2 * max(p - 4, 0.25))
            s = 10 ** rng.uniform(-6, -1.5)
        x = random_point(rng, N, s)
        try:
            ray, bound, slack = min_eig_bound_check(x, p, eps, mod)
        except ValueError:
            continue
        assert slack >= -1e-9 * max(1.0, abs(bound))
        lam_min = bound - slack
        assert lam_min <= ray + 1e-9 * max(1.0, abs(ray))  # Rayleigh dominates the minimum
        done += 1


def test_min_eig_eps_selects_the_branch():
    # no eps selects the small branch, a given eps the large one
    mod, x = HolderModulus(0.5), np.array([0.05, 0.02])
    with pytest.raises(ValueError, match="requires p <= 4"):
        min_eig_bound_check(x, 5.0, None, mod)
    with pytest.raises(ValueError, match="requires p >= 4"):
        min_eig_bound_check(x, 3.0, 0.1, mod)


def test_min_eig_large_branch_requires_precondition():
    mod = HolderModulus(0.5)
    # nonempty index set but the damped inequality fails at this radius
    with pytest.raises(ValueError, match="N-epsilon"):
        min_eig_bound_check(np.array([0.5, 0.1]), 6.0, 0.1, mod)
    # |x_i| = s / sqrt(2) < s^{1 + eps}: no axis enters the index set
    with pytest.raises(ValueError, match="index set is empty"):
        min_eig_bound_check(np.array([0.5, 0.5]) / np.sqrt(2.0), 6.0, 0.1, mod)


def test_large_branch_passes_small_p_and_requires_eps():
    # in a stack that mixes p < 4 without eps and p >= 4 with eps, the p < 4
    # jets pass, also at a point where the large branch fails; a p >= 4 jet
    # passes only with a nonempty index set and eq N-epsilon
    mod = HolderModulus(0.5)
    x = np.array([[0.5, 0.1], [0.5, 0.1], [0.5, 0.5] / np.sqrt(2.0), [0.01, 0.0], [0.01, 0.0]])
    stack = jet_scalars(x, None, 1.0, [3.0, 6.0, 6.0, 6.0, 3.5], [None, 0.1, 0.1, 0.3, None],
                        mod)
    axes, ok = stack.large_branch()
    assert ok.tolist() == [True, False, False, True, True]
    assert axes.any(axis=1)[1:4].tolist() == [True, False, True]
    with pytest.raises(ValueError, match="p >= 4 requires eps"):
        jet_scalars(x[:2], None, 1.0, [3.0, 4.0], None, mod).large_branch()


def one_jet(x, mod, eps):
    """The Jets of the one point x at M = 1, the eigenvalue bound's damping,
    at p = 4 and eps."""
    return jet_scalars(x[None], None, 1.0, 4.0, eps, mod)


def test_eq_n_epsilon_1d_reduction():
    mod = HolderModulus(0.5)
    x = np.array([0.01])
    eps = 0.3
    jm = build_jet_matrices(x, 1.0 + 1e-12, 3.0, mod)  # iota ~ 1/(4 |H1|)
    s = 0.01
    lhs = scalar(jm, "betaH") * mod.omega_second(s) * (1 - s ** (2 * eps)) \
        + scalar(jm, "alphaH") * s ** (2 * eps) * mod.omega_prime(s) / s
    manual = lhs <= mod.omega_second(s) / 4.0
    assert one_jet(x, mod, eps).eq_n_epsilon() == [manual]


def test_eq_n_epsilon_holds_below_selector_threshold():
    from pseudoplap.claims import regime_params

    rng = np.random.default_rng(12)
    params = regime_params("holder_large_p", 6.0, 2, gamma=0.5)
    mod = HolderModulus(0.5)
    for _ in range(100):
        s = params.delta_N * 10 ** rng.uniform(-1.0, -0.01)
        x = random_point(rng, 2, s)
        assert one_jet(x, mod, params.eps).eq_n_epsilon().all()
    assert not one_jet(np.array([0.6, 0.6]), mod, 0.9).eq_n_epsilon().any()


def squeeze(X, jm):
    """The stacked squeeze of the one pair (X, X) at jm: (ok, margins, norm_sum)."""
    ok, margins, norm_sum = jets._pair_squeeze_checks(X[None], jm)
    return bool(ok[0]), tuple(float(m[0]) for m in margins), float(norm_sum[0])


def test_feasible_pair_unperturbed_always_feasible():
    rng = np.random.default_rng(8)
    for _ in range(30):
        N = int(rng.integers(1, 4))
        x = random_point(rng, N, 10 ** rng.uniform(-3, -1))
        M = float(rng.uniform(1.001, 60))
        jm = build_jet_matrices(x, M, 3.0, HolderModulus(0.5))
        c = 2 * M + 1
        X = c * np.eye(N) - 2 * M * spectral_norm(jm.Htilde[0]) * np.eye(N)
        ok, (_, _, scale), _ = squeeze(X, jm)
        assert ok
        assert min(_full_squeeze(X, X, jm)) >= -1e-10 * scale


def test_feasible_pair_sample_properties():
    rng = np.random.default_rng(9)
    for _ in range(50):
        N = int(rng.integers(1, 4))
        x = random_point(rng, N, 10 ** rng.uniform(-3, -1))
        M = float(rng.uniform(1.5, 60))
        mod = HolderModulus(0.6)
        jm = build_jet_matrices(x, M, 3.0, mod)
        X = feasible_pair_sample(jm, rng)
        ok, (_, _, scale), _ = squeeze(X, jm)
        assert ok
        assert min(_full_squeeze(X, X, jm)) >= -1e-10 * scale
        c = 2 * M + 1
        norm_sum = 2 * spectral_norm(X - c * np.eye(N))
        assert norm_sum <= 6 * M * spectral_norm(h1_of(jm)) * (1 + 1e-10)


def test_pair_conclusions_example():
    rng = np.random.default_rng(10)
    mod = HolderModulus(0.5)
    x = random_point(rng, 2, 0.01)
    M = 10.0
    jm = build_jet_matrices(x, M, 3.0, mod)
    c = 2 * M + 1
    X = c * np.eye(2) - 2 * M * spectral_norm(jm.Htilde[0]) * np.eye(2)
    rep = pair_conclusions_check(X, jm)
    assert rep.slack_all > 0 and rep.slack_small > 0 and rep.slack_norm > 0


def test_pair_conclusions_1d_scalar_reduction():
    mod = HolderModulus(0.5)
    x = np.array([0.02])
    M = 5.0
    jm = build_jet_matrices(x, M, 3.0, mod)
    c = 2 * M + 1
    ht = float(jm.Htilde[0, 0, 0])
    X = np.array([[c - 2 * M * abs(ht)]])
    rep = pair_conclusions_check(X, jm)
    # hand arithmetic: eigenvalues are scalars
    theta2 = float(jm.Theta[0, 0, 0]) ** 2
    lam_all = M ** (3 - 2) * theta2 * 2 * (c - 2 * M * abs(ht))
    assert abs(rep.lambda_all_max - lam_all) < 1e-9 * abs(lam_all)
    assert rep.min_relative_slack() >= -1e-9


def test_pair_conclusions_rejects_infeasible():
    mod = HolderModulus(0.5)
    x = np.array([0.05, 0.01])
    M = 4.0
    jm = build_jet_matrices(x, M, 3.0, mod)
    c = 2 * M + 1
    bad = c * np.eye(2) + 3 * M * spectral_norm(jm.Htilde[0]) * np.eye(2)
    with pytest.raises(ValueError, match="block squeeze"):
        pair_conclusions_check(bad, jm)


def _pair_candidates(rng):
    """(regime, one-jet Jets) that pass Jets.large_branch: every regime at
    N = 1, 2, 3, at its default p and, for the large-p regimes, at p = 4
    exactly, where both branches' bounds apply."""
    out = []
    for regime in REGIMES:
        p_list = [DEFAULT_REGIME_P[regime]] + ([] if regime.endswith("small_p") else [4.0])
        for N in (1, 2, 3):
            for p in p_list:
                params = regime_params(regime, p, N)
                for _ in range(4):
                    s = params.delta_N * 10 ** rng.uniform(-1.5, -0.1) if params.eps \
                        else 10 ** rng.uniform(-4, -1.5)
                    try:
                        one = jet_scalars(random_point(rng, N, s)[None], None,
                                          float(rng.uniform(1.5, 50)), p, params.eps,
                                          params.modulus())
                    except ValueError:
                        continue
                    if one.large_branch()[1][0]:
                        out.append((regime, one))
    return out


def test_stacked_pair_checks_match_scalar_path():
    # the pair points, squeeze margins and conclusions of a stack that mixes
    # regimes and exponents must equal, bit for bit, what one-jet calls give
    # each jet on the same S; and every eigenvalue must be the reference's
    rng = np.random.default_rng(41)
    cands = _pair_candidates(rng)
    # 1D lipschitz_large_p fails eq_n_epsilon on every draw
    assert {(regime, int(one.N[0])) for regime, one in cands} \
        == {(regime, N) for regime in REGIMES for N in (1, 2, 3)} - {("lipschitz_large_p", 1)}
    assert 4.0 in {float(one.p[0]) for _, one in cands}
    seen = set()
    for N in (1, 2, 3):
        group = [c for c in cands if c[1].N[0] == N]
        st = jets._jet_matrices(concat([one for _, one in group]))
        S = np.array([jets._direction(rng, N) for _ in group])
        u = rng.uniform(0.0, 4.0, len(group))  # beyond 1, a pair may fail the squeeze
        X = jets._pair_points(st, S, u)
        ok, (lower, upper, scale), norm_sum = jets._pair_squeeze_checks(X, st)
        reps = jets._pair_conclusions_checks(X, st, norm_sum)
        for k, (_, one) in enumerate(group):
            jm = jets._jet_matrices(one)  # the jet alone
            M, p = float(one.M[0]), float(one.p[0])
            h1_norm, ht_norm = spectral_norm(h1_of(jm)), spectral_norm(jm.Htilde[0])
            assert (st.h1_norm[k], st.ht_norm[k]) == (h1_norm, ht_norm)
            Sk = S[k] * (u[k] * (M / 4.0) * ht_norm / spectral_norm(S[k]))
            c = 2.0 * M + 1.0
            assert (X[k] == c * np.eye(N) - 2.0 * M * ht_norm * np.eye(N) + Sk).all()
            assert squeeze(X[k], jm) == (ok[k], (lower[k], upper[k], scale[k]), norm_sum[k])
            B = X[k] - c * np.eye(N)
            wb = jacobi_reference.jacobi_eigh(B)[0]
            upper_ref = jacobi_reference.jacobi_eigh(2.0 * M * jm.Htilde[0] - B)[0][0]
            assert lower[k] == wb[0] + 6.0 * M * h1_norm
            assert upper[k] == min(-wb[-1], upper_ref)
            assert norm_sum[k] == 2.0 * np.abs(wb).max()
            if ok[k]:
                rep = pair_conclusions_check(X[k], jm)
                assert reps[k] == rep
                Theta = jm.Theta[0]
                weighted = M ** (p - 2.0) * Theta
                lam = jacobi_reference.jacobi_eigh(weighted @ (X[k] + X[k]) @ Theta)[0]
                lam1 = jacobi_reference.jacobi_eigh(
                    weighted @ (X[k] + X[k] - 2.0 * c * np.eye(N)) @ Theta)[0][0]
                assert rep.lambda_all_max == lam[-1]
                assert rep.slack_small is not None or rep.slack_large is not None
                for bound, slack in ((rep.bound_small, rep.slack_small),
                                     (rep.bound_large, rep.slack_large)):
                    assert slack is None or slack == bound - lam1
            seen.add(bool(ok[k]))
    assert seen == {True, False}


def test_jet_eq_n_epsilon_matches_check():
    # alphaH and betaH do not depend on p, so the jet at (x, M) of any p
    # decides eq N-epsilon; a stack that mixes N decides it as each jet alone
    rng = np.random.default_rng(14)
    mod = HolderModulus(0.7)
    x, N, M, p, eps, alone_ok = np.zeros((50, 3)), [], [], [], [], []
    for k in range(50):
        N.append(int(rng.integers(1, 4)))
        x[k, :N[-1]] = random_point(rng, N[-1], 10 ** rng.uniform(-6, -0.5))
        M.append(float(rng.uniform(1.5, 50)))
        eps.append(float(rng.uniform(0.05, 0.9)))
        p.append(float(rng.uniform(4, 8)))
        jm = build_jet_matrices(x[k, :N[-1]], M[-1], p[-1], mod, eps[-1])
        alone_ok += jm.jets.eq_n_epsilon().tolist()
    assert jet_scalars(x, N, M, p, eps, mod).eq_n_epsilon().tolist() == alone_ok
    assert set(alone_ok) == {True, False}


def _full_squeeze(X, Y, jm):
    """Both sides of the block squeeze as 2N x 2N eigen-tests: (lower, upper)."""
    n, M = len(X), scalar(jm, "M")
    c = 2 * M + 1
    zero = np.zeros((n, n))
    D = np.block([[X - c * np.eye(n), zero], [zero, Y - c * np.eye(n)]])
    Ht = jm.Htilde[0]
    lower = jacobi_eigh(D + 6 * M * spectral_norm(h1_of(jm)) * np.eye(2 * n))[0][0]
    upper = jacobi_eigh(M * np.block([[Ht, -Ht], [-Ht, Ht]]) - D)[0][0]
    return lower, upper


def _random_pair_point(rng, N, M, jm, radius):
    """(2M+1) Id - 2M |Htilde| Id + S with |S| = radius * M |Htilde|."""
    A = rng.standard_normal((N, N))
    S = 0.5 * (A + A.T)
    ht_norm = spectral_norm(jm.Htilde[0])
    S *= radius * M * ht_norm / spectral_norm(S)
    return (2 * M + 1) * np.eye(N) - 2 * M * ht_norm * np.eye(N) + S


@pytest.fixture
def jets_eig_shapes(monkeypatch):
    """The shape of every stack that pseudoplap.jets hands to jacobi_eigvals."""
    shapes = []

    def shaped(a):
        shapes.append(a.shape)
        return jacobi_eigvals(a)

    monkeypatch.setattr("pseudoplap.jets.jacobi_eigvals", shaped)
    return shapes


@pytest.mark.parametrize("N", [1, 2, 3])
def test_pair_split_matches_full_squeeze(N, jets_eig_shapes):
    # the stacked N x N squeeze of 100 pairs (X, X) against the 2N x 2N tests
    rng = np.random.default_rng(20 + N)
    jms, X = [], []
    for _ in range(100):
        mod = HolderModulus(float(rng.uniform(0.2, 0.8))) if rng.random() < 0.5 \
            else LipschitzModulus(0.2, 0.5)
        M = float(rng.uniform(1.5, 50))
        jm = build_jet_matrices(random_point(rng, N, 10 ** rng.uniform(-3, -0.7)), M,
                                float(rng.uniform(2.5, 7)), mod)
        # radius (M/4) |Htilde| is the sampler's; beyond about 2M |Htilde| a side fails
        X.append(_random_pair_point(rng, N, M, jm, float(rng.uniform(0.0, 4.0))))
        jms.append(jm)
    st = jets._jet_matrices(concat([jm.jets for jm in jms]))
    jets_eig_shapes.clear()
    ok, (lower, upper, scale), norm_sum = jets._pair_squeeze_checks(np.array(X), st)
    assert jets_eig_shapes == [(100, N, N)] * 2  # every eigen-test is N x N
    for k, jm in enumerate(jms):
        full_lower, full_upper = _full_squeeze(X[k], X[k], jm)
        assert abs(lower[k] - full_lower) <= 1e-12 * scale[k]
        assert abs(upper[k] - full_upper) <= 1e-12 * scale[k]
        tol = -1e-10 * scale[k]
        assert ok[k] == (full_lower >= tol and full_upper >= tol)
        c = 2 * scalar(jm, "M") + 1
        assert norm_sum[k] == 2 * spectral_norm(X[k] - c * np.eye(N))
    assert set(ok.tolist()) == {True, False}


def test_pair_screen_matches_one_point_calls():
    # a block that mixes N and holds rejected draws has each draw's scalars,
    # bit for bit, and Jets.large_branch's verdict of that draw alone
    rng = np.random.default_rng(43)
    seen = set()
    for regime in REGIMES:
        x, N, M, p, moduli, eps = np.zeros((60, 3)), [], [], [], [], []
        for k in range(60):
            N.append(int(rng.integers(1, 4)))
            p.append(DEFAULT_REGIME_P[regime])
            params = regime_params(regime, p[-1], N[-1])
            s = min(0.9, params.delta_N * 10 ** rng.uniform(-1.5, 0.5)) if params.eps \
                else 10 ** rng.uniform(-4, -1.5)
            x[k, :N[-1]] = random_point(rng, N[-1], s)
            M.append(float(rng.uniform(1.5, 50)))
            moduli.append(params.modulus())
            eps.append(params.eps)
        block = jet_scalars(x, N, M, p, eps, stacked(moduli))
        ok = block.large_branch()[1]
        for k in range(len(block)):
            one = jet_scalars(x[k:k + 1, :N[k]], None, [M[k]], [p[k]], [eps[k]], moduli[k])
            assert one.large_branch()[1][0] == ok[k]
            for f in fields(Jets):
                assert getattr(alone(block, k), f.name).tobytes() \
                    == getattr(one, f.name).tobytes(), (k, f.name)
        seen.update(ok.tolist())
    assert seen == {True, False}
