import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoplap import claims
from pseudoplap.claims import (
    DEFAULT_REGIME_P,
    REGIMES,
    ClaimsReport,
    check_sweep_cap,
    claims_checks,
    claims_scale_sweep,
    evaluate_claims_sweep,
    regime_params,
    zt_check,
)


def test_regime_params_holder_small_example():
    rp = regime_params("holder_small_p", 3.0, 2, gamma=0.5)
    assert rp.tau_hat == pytest.approx(2.0)
    assert rp.tau1 == pytest.approx(0.5)
    assert rp.tau2 == pytest.approx(1.5)
    assert rp.exponents_ordered()


def test_regime_params_lipschitz_large_example():
    rp = regime_params("lipschitz_large_p", 6.0, 2)
    assert rp.tau == pytest.approx(1.0 / 8.0)
    assert rp.gamma == pytest.approx(0.75)
    assert rp.eps == pytest.approx(3.0 / 32.0)
    assert rp.tau_hat == pytest.approx(1.0 - 1.0 / 8.0 - 2.0 * 3.0 / 32.0)
    assert rp.tau_hat == pytest.approx(0.6875)
    # constraint chain: tau < 1/(p-2), gamma > tau (p-2), tau/2 < eps < (g/2 - tau)/(p-4)
    assert 0 < rp.tau < 1.0 / 4.0
    assert rp.gamma > rp.tau * 4.0
    assert rp.tau / 2.0 < rp.eps < (rp.gamma / 2.0 - rp.tau) / 2.0


def test_regime_params_holder_large_example():
    rp = regime_params("holder_large_p", 5.0, 2, gamma=0.9)
    assert rp.eps == pytest.approx(0.05)
    assert rp.tau_hat == pytest.approx(0.1 * 3.0 + 1.1 - 0.05)
    assert rp.tau_hat == pytest.approx(1.35)


def test_regime_params_rejects_mismatch():
    with pytest.raises(ValueError):
        regime_params("holder_small_p", 5.0, 2)
    with pytest.raises(ValueError):
        regime_params("lipschitz_large_p", 3.0, 2)
    with pytest.raises(ValueError):
        regime_params("lipschitz_small_p", 3.0, 2, gamma=0.5)
    with pytest.raises(ValueError):
        regime_params("nonsense", 3.0, 2)
    for gamma in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"gamma must be in \(0,1\), got"):
            regime_params("holder_large_p", 5.0, 2, gamma=gamma)


def test_exponent_ordering_sweep():
    for regime in REGIMES:
        small = regime.endswith("small_p")
        ps = np.linspace(2.1, 4.0, 9) if small else np.linspace(4.0, 8.0, 9)
        for p in ps:
            for N in (1, 2, 3):
                if regime.startswith("holder"):
                    for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
                        rp = regime_params(regime, float(p), N, gamma=gamma)
                        assert rp.tau1 < rp.tau_hat and rp.tau2 < rp.tau_hat, (regime, p, gamma)
                else:
                    rp = regime_params(regime, float(p), N)
                    assert rp.tau1 < rp.tau_hat and rp.tau2 < rp.tau_hat, (regime, p)


def test_zt_trivial_cases():
    Z = np.array([[0.3, -0.4]])
    assert zt_check(Z, Z, 0.5, 3.0)[0] == pytest.approx(0.0)
    slack = zt_check(Z, -Z, 1.0, 3.0)[0]  # lhs = 0, rhs > 0
    assert slack > 0.0


def test_zt_theta_range():
    Z = np.ones((1, 2))
    with pytest.raises(ValueError):
        zt_check(Z, Z, 0.0, 3.0)
    with pytest.raises(ValueError):
        zt_check(Z, Z, 0.9, 2.5)  # theta > p - 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_zt_random(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 4))
    p = float(rng.uniform(2.05, 8.0))
    theta = float(rng.uniform(1e-3, 1.0)) * min(1.0, p - 2.0)
    Z = rng.standard_normal((1, N)) * 10.0 ** rng.uniform(-3, 2)
    T = rng.standard_normal((1, N)) * 10.0 ** rng.uniform(-3, 2)
    slack = zt_check(Z, T, theta, p)[0]
    rhs = slack + abs(np.linalg.norm(Z) ** (p - 2) - np.linalg.norm(T) ** (p - 2))
    assert slack >= -1e-12 * max(1.0, rhs)


def zt_draws(rng, count, N, p):
    """count random (Z, T, theta) of dimension N at the exponents p (one, or
    one per draw), as zt_rows scales them."""
    Z, T = (rng.standard_normal((count, N)) * 10.0 ** rng.uniform(-3, 2, (count, 1))
            for _ in range(2))
    theta = rng.uniform(1e-3, 1.0, count) * np.minimum(1.0, p - 2.0)
    return Z, T, theta


def plain_zt(z, t, theta, p):
    """(slack, rhs) of the power-gap inequality on plain Python floats."""
    nz, nt = math.sqrt(sum(v * v for v in z)), math.sqrt(sum(v * v for v in t))
    nd = math.sqrt(sum((a - b) ** 2 for a, b in zip(z, t)))
    rhs = max(1.0, p - 2.0) * nd ** theta * (nz + nt) ** (p - 2.0 - theta)
    return rhs - abs(nz ** (p - 2.0) - nt ** (p - 2.0)), rhs


@pytest.mark.parametrize("N", [1, 2, 3])
def test_zt_stack_rows_equal_one_row_calls(N):
    rng = np.random.default_rng(N)
    p = rng.uniform(2.05, 8.0, 50)
    Z, T, theta = zt_draws(rng, 50, N, p)
    stacked = zt_check(Z, T, theta, p)
    assert stacked.shape == (50,)
    one = [zt_check(z[None], t[None], float(th), float(pk)).tolist()
           for z, t, th, pk in zip(Z, T, theta, p)]
    assert repr(stacked.tolist()) == repr(sum(one, []))


@pytest.mark.parametrize("p", [2.05, 2.0500001, 7.9999999, 8.0])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_zt_stack_agrees_with_plain_floats(N, p):
    Z, T, theta = zt_draws(np.random.default_rng(int(100 * p) + N), 200, N, p)
    for z, t, th, slack in zip(Z.tolist(), T.tolist(), theta.tolist(),
                               zt_check(Z, T, theta, p).tolist()):
        want, rhs = plain_zt(z, t, th, p)
        assert abs(slack - want) <= 1e-12 * max(1.0, abs(want), rhs), (z, t, th)


@pytest.mark.parametrize("N", [1, 2])
def test_zt_zero_padding_keeps_the_slack(N):
    Z, T, theta = zt_draws(np.random.default_rng(10 + N), 100, N, 4.5)
    pad = np.zeros((100, 3 - N))
    padded = zt_check(np.hstack([Z, pad]), np.hstack([T, pad]), theta, 4.5)
    assert np.array_equal(padded, zt_check(Z, T, theta, 4.5))


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("name, bad", [("p", 2.0), ("p", np.nan), ("theta", 0.0),
                                       ("theta", 0.6), ("theta", np.nan)])
def test_zt_bad_member_raises(k, name, bad):
    Z, T, _ = zt_draws(np.random.default_rng(k), 4, 2, 2.5)
    args = {"theta": np.full(4, 0.25), "p": np.full(4, 2.5)}
    args[name][k] = bad  # theta 0.6 exceeds p - 2 = 0.5
    with pytest.raises(ValueError, match=f"{name} must be .*sample {k}"):
        zt_check(Z, T, **args)


def test_zt_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape"):
        zt_check(np.ones((3, 2)), np.ones((3, 3)), 0.5, 3.0)
    with pytest.raises(ValueError, match="shape"):
        zt_check(np.ones((2, 2, 2)), np.ones((2, 2, 2)), 0.5, 3.0)
    with pytest.raises(ValueError, match="shape"):  # one sample is a one-row stack
        zt_check(np.ones(2), np.ones(2), 0.5, 3.0)


def test_claims_lipschitz_gradient_window():
    # with x0 = xbar the gradient qx collapses to q, whose norm M w'(s) sits
    # in [M/4, 5M/4]
    rng = np.random.default_rng(0)
    params = regime_params("lipschitz_small_p", 2.6, 2)
    M = 10.0
    x_bar = np.zeros(2)
    y_bar = x_bar - np.array([1e-2, 0.0])
    rep, = claims_checks([(x_bar, y_bar, x_bar)], M, params, rng)
    assert rep.s == pytest.approx(1e-2)
    assert M / 4.0 <= M * params.modulus().omega_prime(rep.s) <= 5.0 * M / 4.0


def test_claims_lipschitz_cap_enforced():
    rng = np.random.default_rng(1)
    params = regime_params("lipschitz_small_p", 2.6, 2)
    far = np.array([0.9, 0.0])
    with pytest.raises(ValueError, match="cap"):
        claims_checks([(far, far - np.array([1e-3, 0.0]), np.zeros(2))], 10.0, params, rng)


def _raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("M", [10.0, 1000.0])
@pytest.mark.parametrize("regime", REGIMES)
def test_check_sweep_cap_raises_as_the_sweep_does(regime, M, N):
    params = regime_params(regime, DEFAULT_REGIME_P[regime], N)
    scales = [1e-1, 1e-2, 1e-3, 1e-4]
    checked = _raised(check_sweep_cap, params, M, scales)
    assert checked == _raised(claims_scale_sweep, params, M, scales, np.random.default_rng(N))
    # at M = 1000 the largest scale puts ybar outside the Lipschitz cap
    assert (checked is not None) == (M == 1000.0 and regime.startswith("lipschitz"))


def test_claims_1d_ratio_negative():
    rng = np.random.default_rng(2)
    params = regime_params("holder_small_p", 3.0, 1, gamma=0.5)
    x_bar = np.array([0.01])
    y_bar = np.array([0.01 - 1e-3])
    rep, = claims_checks([(x_bar, y_bar, np.zeros(1))], 10.0, params, rng)
    assert rep.ratio1 < 0.0
    assert rep.ratio2 is None  # no second eigenvalue in 1D


def test_claims_two_point_drift_example():
    rng = np.random.default_rng(3)
    params = regime_params("holder_small_p", 3.0, 2, gamma=0.5)
    reports = claims_scale_sweep(params, 10.0, [1e-2, 1e-4], rng)
    verdict = evaluate_claims_sweep(reports)
    med = verdict["ratio1_by_scale"]
    scales = sorted(med)
    ratio = abs(med[scales[0]]) / abs(med[scales[1]])
    assert ratio < 4.0 and 1.0 / ratio < 4.0


@pytest.mark.parametrize("regime", ["holder_small_p", "holder_large_p",
                                    "lipschitz_small_p"])
def test_claims_sweep_passes_for_regime(regime):
    rng = np.random.default_rng(4)
    params = regime_params(regime, DEFAULT_REGIME_P[regime], 2)
    reports = claims_scale_sweep(params, 10.0, [1e-1, 1e-2, 1e-3, 1e-4], rng)
    verdict = evaluate_claims_sweep(reports)
    assert verdict["sign_ok"], verdict["detail"]
    assert verdict["ok"], verdict["detail"]


def test_claims_ratio2_cap_slack_is_relative_1e9():
    # a ratio2 within 1e-9 of its cap, relatively, passes; 2e-9 beyond fails,
    # with every other part of the verdict passing
    def report(s, ratio2, cap):
        return ClaimsReport(regime="holder_small_p", p=3.0, N=2, M=10.0, s=s, ratio1=-1.0,
                            ratio2=ratio2, ratio2_cap=cap, ratio3=0.5, in_delta=True,
                            eq_n_epsilon_ok=None)

    cap = -3.0
    for excess, ok in ((0.5e-9, True), (2e-9, False)):
        ratio2 = cap + excess * abs(cap)
        verdict = evaluate_claims_sweep([report(1e-2, -4.0, cap), report(1e-3, ratio2, cap)])
        assert verdict["ok"] is ok and verdict["sign_ok"]
        assert verdict["detail"].endswith(f"ratio2_cap_ok={ok}")


def test_claims_report_flags():
    rng = np.random.default_rng(5)
    params = regime_params("holder_large_p", 5.0, 2)
    reports = claims_scale_sweep(params, 10.0, [1e-1, 1e-5], rng)
    by_scale = {round(np.log10(r.s)): r for r in reports}
    assert by_scale[-1].eq_n_epsilon_ok is False  # far above the selector threshold
    assert by_scale[-5].in_delta or by_scale[-5].s >= 0.5 * params.delta_N


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("regime", REGIMES)
def test_claims_stack_matches_one_point_calls(monkeypatch, regime, N):
    # at N = 2 and 3 every first pair draw of the sweep is feasible, so the
    # stack's one round consumes the rng as one-point calls in check order do
    params = regime_params(regime, DEFAULT_REGIME_P[regime], N)
    scales = [1e-1, 1e-2, 1e-3, 1e-4]
    stacked = claims_scale_sweep(params, 10.0, scales, np.random.default_rng(N))
    one = claims.claims_checks
    monkeypatch.setattr(claims, "claims_checks", lambda points, M, params, rng: [
        rep for point in points for rep in one([point], M, params, rng)])
    assert repr(claims_scale_sweep(params, 10.0, scales, np.random.default_rng(N))) \
        == repr(stacked)
