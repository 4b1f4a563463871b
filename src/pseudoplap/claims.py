"""Regime parameter selectors and the empirical scaffold for the eigenvalue claims.

Four regimes cover {Hölder, Lipschitz} x {2 < p <= 4, p >= 4}.  Each selects
a modulus (s^gamma, or s - omega0 s^{1+tau}), an auxiliary exponent eps for
p > 4, a smallness threshold delta_N, and the three exponents tau_hat, tau1,
tau2 with tau1, tau2 < tau_hat.  The claims scaffold builds, at x = xbar - ybar,
the gradient triple

    q   = M w'(|x|) x/|x|,   qx = q + 2M (xbar - x0),   qy = q - 2M (ybar - x0),

draws a feasible doubling pair (X, Y), and reports three dimensionless ratios

    ratio1 = lambda_1(M^{p-2} Th (X+Y) Th) / (M^{p-1} |x|^{-tau_hat})   (should be < 0),
    ratio2 = max_{i>=2} lambda_i(...)      / (M^{p-1} |x|^{-tau1})      (bounded above),
    ratio3 = [||qx|^{p-2}-|q|^{p-2}| |X| + ||qy|^{p-2}-|q|^{p-2}| |Y|]
                                           / (M^{p-1} |x|^{-tau2})      (bounded above).

The unnamed constants multiplying these scales are never quantified, so the
checks are empirical: sign, caps, and drift across scales rather than fixed
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eig import spectral_norms, vector_norm
from .jets import feasible_pairs, jet_scalars, theta_spectra
from .moduli import HolderModulus, LipschitzModulus, Modulus

REGIMES = ("holder_small_p", "holder_large_p", "lipschitz_small_p", "lipschitz_large_p")

DEFAULT_GAMMA = {"holder_small_p": 0.5, "holder_large_p": 0.8}
DEFAULT_REGIME_P = {
    "holder_small_p": 3.0,
    "holder_large_p": 5.0,
    "lipschitz_small_p": 2.6,
    "lipschitz_large_p": 6.0,
}
# Stands in for the unquantified Hölder constant in the Lipschitz regimes'
# doubled-maximum cap (C_EMP |xbar-ybar|^gamma / M)^{1/2}; see claims_checks.
C_EMP = 10.0


@dataclass(frozen=True)
class RegimeParams:
    regime: str
    p: float
    N: int
    gamma: float
    tau: float | None
    omega0: float | None
    eps: float | None
    delta_N: float
    tau_hat: float
    tau1: float
    tau2: float

    def modulus(self) -> Modulus:
        if self.regime.startswith("holder"):
            return HolderModulus(self.gamma)
        return LipschitzModulus(self.tau, self.omega0)

    def exponents_ordered(self) -> bool:
        return self.tau1 < self.tau_hat and self.tau2 < self.tau_hat


def regime_params(regime: str, p: float, N: int, gamma: float | None = None) -> RegimeParams:
    """Concrete admissible parameters for one regime; rejects regime/p mismatches."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if N not in (1, 2, 3):
        raise ValueError(f"N must be 1, 2 or 3, got {N}")
    small = regime.endswith("small_p")
    if small and not 2.0 < p <= 4.0:
        raise ValueError(f"{regime} requires 2 < p <= 4, got p = {p}")
    if not small and not p >= 4.0:
        raise ValueError(f"{regime} requires p >= 4, got p = {p}")

    if regime.startswith("holder"):
        if gamma is None:
            gamma = DEFAULT_GAMMA[regime]
        HolderModulus(gamma)  # raises unless 0 < gamma < 1
        tau = omega0 = None
        if small:
            eps = None
            tau_hat = (1.0 - gamma) * (p - 2.0) + 2.0 - gamma
            tau2 = (1.0 - gamma) * max(p - 3.0, 0.0) + 2.0 - gamma
            delta_n = (gamma / 8.0) ** (1.0 / (1.0 - gamma))
        else:
            eps = (1.0 - gamma) / (2.0 * (p - 4.0)) if p > 4.0 else 0.5
            tau_hat = (1.0 - gamma) * (p - 2.0) + 2.0 - gamma - (p - 4.0) * eps
            tau2 = (1.0 - gamma) * (p - 3.0) + 2.0 - gamma
            delta_n = math.exp(
                (-math.log(2.0 * N * (4.0 - gamma)) + math.log(1.0 - gamma)) / (2.0 * eps)
            )
        tau1 = (1.0 - gamma) * (p - 2.0)
        return RegimeParams(regime, p, N, gamma, tau, omega0, eps, delta_n,
                            tau_hat, tau1, tau2)

    if gamma is not None:
        raise ValueError("gamma is selected internally for the Lipschitz regimes")
    if small:
        m = min(0.5, (p - 2.0) / 2.0)
        tau = m / 2.0
        gamma = (1.0 + tau / m) / 2.0
        eps = None
        tau_hat = 1.0 - tau
        tau2 = 1.0 - min(1.0, p - 2.0) * gamma / 2.0
        omega0 = 0.15 / (1.0 + tau)
        delta_n = min((0.5 / (omega0 * (1.0 + tau))) ** (1.0 / tau), 1.0)
    else:
        tau = 1.0 / (2.0 * (p - 2.0))
        gamma = max(0.75, (1.0 + tau * (p - 2.0)) / 2.0)
        lo = tau / 2.0
        hi = (gamma / 2.0 - tau) / (p - 4.0) if p > 4.0 else 2.0 * tau
        eps = 0.5 * (lo + hi)
        if not lo < eps < max(hi, lo + 2 * tau):
            raise ValueError("no admissible eps; constraints incompatible")
        tau_hat = 1.0 - tau - (p - 4.0) * eps
        tau2 = 1.0 - gamma / 2.0
        omega0 = 0.15 / (1.0 + tau)
        first = math.exp(
            (math.log(omega0 * (1.0 + tau) * tau)
             - math.log(2.0 * N * (omega0 * tau * (1.0 + tau) + 3.0))) / (2.0 * eps - tau)
        ) if 2.0 * eps - tau > 0 else 1.0
        second = math.exp(-math.log(2.0 * omega0 * (1.0 + tau)) / tau)
        delta_n = min(first, second)
    tau1 = 0.0
    return RegimeParams(regime, p, N, gamma, tau, omega0, eps, delta_n,
                        tau_hat, tau1, tau2)


def zt_check(Z, T, theta, p) -> np.ndarray:
    """Slack rhs - lhs of ||Z|^{p-2} - |T|^{p-2}| <= max(1, p-2) |Z-T|^th (|Z|+|T|)^{p-2-th}
    for each of S samples, as an (S,) array.

    Z and T hold the samples' vectors as rows, shape (S, n); theta and p are
    scalars or one per sample, shape (S,).  Zero axes add exact zeros to
    every norm, so a sample of fewer axes may be zero-padded to n.  Every
    exponent is applied as an array, so row k equals, bit for bit, the
    one-row call on row k.
    Raises ValueError, naming the first bad sample, unless every p > 2 and
    every theta is in (0, min(1, p-2)], or unless Z and T share one shape
    (S, n).
    """
    Z = np.asarray(Z, dtype=float)
    T = np.asarray(T, dtype=float)
    if Z.shape != T.shape or Z.ndim != 2:
        raise ValueError(f"Z and T must share a shape (S, n), got {Z.shape} and {T.shape}")
    p, theta = (np.broadcast_to(np.asarray(v, dtype=float), (len(Z),)) for v in (p, theta))
    bad = np.flatnonzero(~(p > 2.0))
    if bad.size:
        raise ValueError(f"p must be > 2, got {p[bad[0]]} (sample {bad[0]})")
    bad = np.flatnonzero(~((0.0 < theta) & (theta <= np.minimum(1.0, p - 2.0))))
    if bad.size:
        k = bad[0]
        raise ValueError(f"theta must be in (0, min(1, p-2)], got {theta[k]} at p = {p[k]} "
                         f"(sample {k})")
    nz, nt, nd = (np.sqrt((V * V).sum(axis=1)) for V in (Z, T, Z - T))
    lhs = np.abs(nz ** (p - 2.0) - nt ** (p - 2.0))
    rhs = np.maximum(1.0, p - 2.0) * nd ** theta * (nz + nt) ** (p - 2.0 - theta)
    return rhs - lhs


@dataclass(frozen=True)
class ClaimsReport:
    regime: str
    p: float
    N: int
    M: float
    s: float
    ratio1: float
    ratio2: float | None
    ratio2_cap: float | None
    ratio3: float
    in_delta: bool
    eq_n_epsilon_ok: bool | None


def _check_cap(params: RegimeParams, M: float, s: float, x_off: float, y_off: float) -> None:
    """Raise ValueError when a Lipschitz regime's doubled point at separation
    s = |xbar-ybar| has x_off = |xbar-x0| or y_off = |ybar-x0| above the
    doubled-maximum cap (C_EMP s^gamma / M)^{1/2}; the Hölder regimes have no cap."""
    if not params.regime.startswith("lipschitz"):
        return
    cap = math.sqrt(C_EMP * s**params.gamma / M)
    for name, off in (("xbar", x_off), ("ybar", y_off)):
        if off > cap * (1.0 + 1e-9):
            raise ValueError(
                f"{params.regime} at |xbar-ybar| = {s:.3g}: |{name} - x0| = {off:.3g} exceeds "
                f"the doubled-maximum cap (C_EMP |xbar-ybar|^gamma / M)^(1/2) = {cap:.3g}"
            )


def claims_checks(points, M: float, params: RegimeParams, rng) -> list:
    """The claim ratios at each doubled point (xbar, ybar, x0) of points, in order.

    Lipschitz regimes require |xbar-x0| and |ybar-x0| at most
    (C_EMP |xbar-ybar|^gamma / M)^{1/2}, mirroring the penalty-term bound at
    a doubled maximum (_check_cap).  Every point is checked before
    jet_scalars takes the scalars of all the jets at xbar - ybar as one
    stack and feasible_pairs, which requires M > 1, draws their pairs; one
    jets.theta_spectra call takes every spectrum of M^{p-2} Th (X+Y) Th,
    and one spectral_norms call every |X| (= |Y|).
    """
    p, n = params.p, params.N
    points = [tuple(np.asarray(v, dtype=float) for v in point) for point in points]
    zs = []
    for x_bar, y_bar, x0 in points:
        z = x_bar - y_bar
        s = float(vector_norm(z))
        if s == 0.0:
            raise ValueError("xbar and ybar must differ")
        if len(z) != n:
            raise ValueError(f"points have dimension {len(z)}, params expect {n}")
        _check_cap(params, M, s, vector_norm(x_bar - x0), vector_norm(y_bar - x0))
        zs.append(z)
    jets = jet_scalars(zs, None, M, p, params.eps, params.modulus())
    ss = jets.s.tolist()
    eq_ok = jets.eq_n_epsilon().tolist() if p > 4.0 and params.eps is not None \
        else [None] * len(ss)
    grads = []
    for s, wp, z, (x_bar, y_bar, x0) in zip(ss, jets.wp.tolist(), zs, points):
        q = M * wp * z / s
        grads.append((q, q + 2.0 * M * (x_bar - x0), q - 2.0 * M * (y_bar - x0)))
    jm, X, _ = feasible_pairs(jets, rng)

    mp2 = M ** (p - 2.0)
    lams = theta_spectra(jm, X + X)
    x_norms = spectral_norms(X)
    reports = []
    for s, (q, qx, qy), lam, x_norm, theta_sq, ok in zip(ss, grads, lams, x_norms,
                                                          jm.theta_norm_sq(), eq_ok):
        denom = lambda expo: M ** (p - 1.0) * s ** (-expo)
        ratio1 = float(lam[0] / denom(params.tau_hat))
        if n > 1:
            ratio2 = float(lam[1:].max() / denom(params.tau1))
            ratio2_cap = float(2.0 * (2.0 * M + 1.0) * mp2 * theta_sq / denom(params.tau1))
        else:
            ratio2 = ratio2_cap = None
        nq, nqx, nqy = (float(vector_norm(v)) for v in (q, qx, qy))
        lhs = abs(nqx ** (p - 2.0) - nq ** (p - 2.0)) * x_norm \
            + abs(nqy ** (p - 2.0) - nq ** (p - 2.0)) * x_norm
        reports.append(ClaimsReport(
            regime=params.regime, p=p, N=n, M=M, s=s,
            ratio1=ratio1, ratio2=ratio2, ratio2_cap=ratio2_cap,
            ratio3=float(lhs / denom(params.tau2)),
            in_delta=bool(s < 0.5 * params.delta_N), eq_n_epsilon_ok=ok,
        ))
    return reports


def evaluate_claims_sweep(reports) -> dict:
    """Aggregate a scale sweep into the acceptance verdict.

    Requires: ratio1 < 0 for every sample; the per-scale medians of |ratio1|
    and ratio3 each drift by less than a factor 4 across the swept scales;
    every ratio2 sample stays below its derived cap.  Returns the verdict, its
    detail line, the sign test and the per-scale medians of ratio1.
    """
    by_scale: dict = {}
    for rep in reports:
        by_scale.setdefault(rep.s, []).append(rep)
    scales = sorted(by_scale, reverse=True)
    med1 = {s: float(np.median([r.ratio1 for r in by_scale[s]])) for s in scales}
    med3 = {s: float(np.median([r.ratio3 for r in by_scale[s]])) for s in scales}
    sign_ok = all(r.ratio1 < 0.0 for r in reports)
    mags1 = [abs(v) for v in med1.values()]
    drift1 = max(mags1) / min(mags1) if min(mags1) > 0 else np.inf
    mags3 = [abs(v) for v in med3.values()]
    drift3 = max(mags3) / max(min(mags3), 1e-300)
    cap_ok = all(
        r.ratio2 is None or r.ratio2 <= r.ratio2_cap + 1e-9 * abs(r.ratio2_cap)
        for r in reports
    )
    ok = sign_ok and drift1 < 4.0 and drift3 < 4.0 and cap_ok
    detail = (f"sign_ok={sign_ok} drift1={drift1:.2f} drift3={drift3:.2f} "
              f"ratio2_cap_ok={cap_ok}")
    return {
        "ok": bool(ok),
        "detail": detail,
        "sign_ok": bool(sign_ok),
        "ratio1_by_scale": med1,
    }


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / vector_norm(vec)


def _sweep_offset(params: RegimeParams, M: float, s: float) -> float:
    """|xbar - x0| of the sweep's doubled point at separation s."""
    if params.regime.startswith("lipschitz"):
        return 0.5 * math.sqrt(C_EMP * s**params.gamma / M)
    return 0.05


def check_sweep_cap(params: RegimeParams, M: float, scales) -> None:
    """Raise the ValueError of _check_cap that claims_scale_sweep would raise
    at these scales, without drawing: its points put xbar at the offset and
    ybar at |offset - s| from x0 along a unit direction."""
    for s in scales:
        off = _sweep_offset(params, M, s)
        _check_cap(params, M, s, off, abs(off - s))


def claims_scale_sweep(params: RegimeParams, M: float, scales, rng) -> list:
    """claims_checks at five doubled points per separation scale, with seeded
    geometry, all of one regime in one call.

    The separation direction is one random unit vector reused at every scale
    (scale-to-scale drift then measures the s-dependence, not directional
    noise), and the x0 offset lies along it, which keeps the gradient-shift
    term leading.  x0 offsets follow the regime: 0.05 for Hölder, half the
    doubled-maximum cap for Lipschitz.
    """
    n = params.N
    direction = _unit(rng.standard_normal(n)) if n > 1 else np.ones(1)
    points = []
    for s in scales:
        x0 = np.zeros(n)
        x_bar = x0 + _sweep_offset(params, M, s) * direction
        points += 5 * [(x_bar, x_bar - s * direction, x0)]
    return claims_checks(points, M, params, rng)
