"""Second-order test matrices for the doubling-of-variables regularity argument.

For a modulus w, the radial function g(x) = w(|x|) has Hessian

    H1(x) = (w'' - w'/|x|) (x/|x|) (x/|x|)^t + (w'/|x|) Id,

with eigenvalues w''(|x|) (radial, simple) and w'(|x|)/|x| (tangential).
With iota = 1/(4 M |H1|) the damped matrix Htilde = H1 + 2 iota H1^2 has the
same eigenvectors and admits the closed form

    Htilde = (beta w'' - alpha w'/|x|) (x/|x|)(x/|x|)^t + alpha (w'/|x|) Id,
    alpha = 1 + 2 iota w'/|x| in (1, 3/2],   beta = 1 + 2 iota w'' in [1/2, 1).

The anisotropic weight Theta = diag(|w' x_i / |x||^{(p-2)/2}) produces
H = Theta Htilde Theta, whose smallest eigenvalue is negative at a
quantified scale: min_eig_bound_check certifies the two-branch bound via
the Rayleigh quotient of an explicit test vector, and pair_conclusions_check
verifies the eigenvalue conclusions for matrix pairs (X, Y) squeezed by the
doubling block inequality

    -6 M |H1| I_2N <= diag(X, Y) - (2M+1) I_2N <= M [[Ht, -Ht], [-Ht, Ht]].

feasible_pair_sample constructs random pairs satisfying that inequality, and
sample_pair_conclusions checks the conclusions of one without testing it twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eig import jacobi_eigh, spectral_norm
from .moduli import Modulus, check_validity

_FEAS_TOL = 1e-10  # relative tolerance of the feasibility eigen-tests


@dataclass(frozen=True)
class JetMatrices:
    """The matrices at x of one jet, with the scalars that built them:
    s = |x|, wp = w'(s) and wpp = w''(s).

    `h1_norm` and `ht_norm` are the spectral norms |H1| and |Htilde|, taken
    once per instance by `spectral_norm` and cached: the pair sampler and the
    conclusions check reuse them on every attempt.  For N >= 2 they agree
    with the closed forms max(|w''|, w'/s) and max(|betaH w''|, alphaH w'/s)
    to rounding; for N = 1 only the radial eigenvalue w'' (betaH w'') exists.
    """

    x: np.ndarray
    M: float
    p: float
    s: float
    wp: float
    wpp: float
    H1: np.ndarray
    iota: float
    Htilde: np.ndarray
    alphaH: float
    betaH: float
    Theta: np.ndarray
    H: np.ndarray

    @property
    def N(self) -> int:
        return len(self.x)

    @cached_property
    def h1_norm(self) -> float:
        return spectral_norm(self.H1)

    @cached_property
    def ht_norm(self) -> float:
        return spectral_norm(self.Htilde)

    def theta_norm_sq(self) -> float:
        return float(np.max(np.diag(self.Theta)) ** 2)

    def eq_n_epsilon(self, eps: float) -> bool:
        """Truth of beta w''(s)(1 - N s^{2e}) + alpha N s^{2e} w'(s)/s <= w''(s)/4.

        alphaH and betaH depend on x, M and the modulus, not on p.
        """
        s, n, wp, wpp = self.s, self.N, self.wp, self.wpp
        lhs = self.betaH * wpp * (1.0 - n * s ** (2.0 * eps)) \
            + self.alphaH * n * s ** (2.0 * eps) * wp / s
        return bool(lhs <= wpp / 4.0)


def _jet(x: np.ndarray, p: float, modulus: Modulus, M: float) -> JetMatrices:
    x = np.asarray(x, dtype=float)
    s = float(np.linalg.norm(x))
    check_validity(modulus, s)
    if s >= 1.0:
        raise ValueError(f"|x| = {s} must be < 1")
    wp = float(modulus.omega_prime(s))
    wpp = float(modulus.omega_second(s))
    unit = x / s
    H1 = (wpp - wp / s) * np.outer(unit, unit) + (wp / s) * np.eye(len(x))
    h1_norm = max(abs(wpp), wp / s)
    iota = 1.0 / (4.0 * M * h1_norm)
    Htilde = H1 + 2.0 * iota * (H1 @ H1)
    alphaH = 1.0 + 2.0 * iota * wp / s
    betaH = 1.0 + 2.0 * iota * wpp
    theta_diag = np.abs(wp * x / s) ** ((p - 2.0) / 2.0)
    Theta = np.diag(theta_diag)
    H = Theta @ Htilde @ Theta
    return JetMatrices(x=x, M=M, p=p, s=s, wp=wp, wpp=wpp, H1=H1, iota=iota,
                       Htilde=Htilde, alphaH=alphaH, betaH=betaH, Theta=Theta, H=H)


def build_jet_matrices(x, M: float, p: float, modulus: Modulus) -> JetMatrices:
    """Assemble H1, Htilde, Theta, H at x with the damping iota = 1/(4 M |H1|)."""
    if not M > 1.0:
        raise ValueError(f"M must be > 1, got {M}")
    if np.linalg.norm(x) == 0.0:
        raise ValueError("x must be nonzero")
    return _jet(x, p, modulus, M)


def index_set(x, eps: float) -> np.ndarray:
    """Axes i with |x_i| >= |x|^{1+eps}; nonempty whenever N |x|^{2 eps} <= 1."""
    x = np.asarray(x, dtype=float)
    s = float(np.linalg.norm(x))
    if s == 0.0:
        raise ValueError("x must be nonzero")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return np.flatnonzero(np.abs(x) >= s ** (1.0 + eps))


def test_vector(x, p: float, idx=None) -> np.ndarray:
    """The vector sum_{i in idx} |x_i|^{(2-p)/2} x_i e_i; idx defaults to the
    axes with x_i != 0.

    Components with x_i = 0 contribute 0 (continuous extension for p < 4,
    convention at p = 4).
    """
    x = np.asarray(x, dtype=float)
    if idx is None:
        idx = x != 0.0
    w = np.zeros_like(x)
    w[idx] = np.abs(x[idx]) ** ((2.0 - p) / 2.0) * x[idx]
    return w


def _large_branch_axes(jm: JetMatrices, eps: float) -> np.ndarray:
    """index_set(x, eps), once the large branch's preconditions hold at jm: the
    set is nonempty and the damped inequality eq_n_epsilon is true."""
    idx = index_set(jm.x, eps)
    if len(idx) == 0:
        raise ValueError("index set is empty")
    if not jm.eq_n_epsilon(eps):
        raise ValueError("damped-inequality precondition (eq N-epsilon) fails at this x")
    return idx


def min_eig_bound_check(x, p: float, eps: float | None, modulus: Modulus,
                        branch: str = "auto"):
    """Certify the negative-eigenvalue bound for H(x) via the Rayleigh quotient.

    Small branch (p <= 4): lambda_min(H) <= N^{1-p/2} beta w'' (w')^{p-2}.
    Large branch (p >= 4): requires a nonempty index set and the damped
    inequality checked by JetMatrices.eq_n_epsilon; then
    lambda_min(H) <= (1 - N s^{2e}) / #I * (w')^{p-2} s^{(p-4)e} w''/4.

    Returns (rayleigh, bound, slack) with slack = bound - lambda_min(H).
    """
    x = np.asarray(x, dtype=float)
    if branch == "auto":
        branch = "small" if p <= 4.0 else "large"
    if branch not in ("small", "large"):
        raise ValueError(f"branch must be 'auto', 'small' or 'large', got {branch!r}")
    if branch == "small" and p > 4.0:
        raise ValueError("small branch requires p <= 4")
    if branch == "large" and p < 4.0:
        raise ValueError("large branch requires p >= 4")
    jm = _jet(x, p, modulus, M=1.0)  # damping 1/(4 |H1|); M plays no role in H's bound
    s, n, wp, wpp = jm.s, jm.N, jm.wp, jm.wpp
    if branch == "small":
        w = test_vector(x, p)
        bound = n ** (1.0 - p / 2.0) * jm.betaH * wpp * wp ** (p - 2.0)
    else:
        if eps is None:
            raise ValueError("large branch requires eps")
        idx = _large_branch_axes(jm, eps)
        w = test_vector(x, p, idx)  # index-restricted (p = 4 included)
        bound = (1.0 - n * s ** (2.0 * eps)) / len(idx) \
            * wp ** (p - 2.0) * s ** ((p - 4.0) * eps) * wpp / 4.0
    rayleigh = float(w @ jm.H @ w) / float(w @ w)
    lam_min = float(jacobi_eigh(jm.H)[0][0])
    slack = bound - lam_min
    return rayleigh, bound, slack


def _doubling_block(A: np.ndarray) -> np.ndarray:
    return np.block([[A, -A], [-A, A]])


def _pair_feasible(X: np.ndarray, Y: np.ndarray, jm: JetMatrices):
    """Eigen-test both sides of the block squeeze; returns (ok, details)."""
    n = jm.N
    M = jm.M
    c = 2.0 * M + 1.0
    h1_norm = jm.h1_norm
    D = np.block([[X - c * np.eye(n), np.zeros((n, n))],
                  [np.zeros((n, n)), Y - c * np.eye(n)]])
    scale = max(1.0, M * jm.ht_norm, 6.0 * M * h1_norm)
    lower = float(jacobi_eigh(D + 6.0 * M * h1_norm * np.eye(2 * n))[0][0])
    upper = float(jacobi_eigh(M * _doubling_block(jm.Htilde) - D)[0][0])
    ok = lower >= -_FEAS_TOL * scale and upper >= -_FEAS_TOL * scale
    return ok, (lower, upper, scale)


def feasible_pair_sample(jm: JetMatrices, rng) -> tuple:
    """Random (X, Y) satisfying the doubling block squeeze at jm, by construction + check.

    X = Y = (2M+1) Id - 2M |Htilde| Id + S with a random symmetric S of norm
    at most (M/4) |Htilde|; feasibility (and the norm consequence
    |X-(2M+1)Id| + |Y-(2M+1)Id| <= 6M|H1|) is verified by eigenvalue tests
    before returning, resampling on failure.
    """
    n, M = jm.N, jm.M
    c = 2.0 * M + 1.0
    ht_norm = jm.ht_norm
    for _ in range(100):
        A = rng.standard_normal((n, n))
        S = 0.5 * (A + A.T)
        s_norm = spectral_norm(S)
        if s_norm > 0.0:
            S *= rng.uniform(0.0, 1.0) * (M / 4.0) * ht_norm / s_norm
        X = c * np.eye(n) - 2.0 * M * ht_norm * np.eye(n) + S
        Y = X.copy()
        ok, _ = _pair_feasible(X, Y, jm)
        if ok and 2.0 * spectral_norm(X - c * np.eye(n)) <= 6.0 * M * jm.h1_norm * (1.0 + 1e-12):
            return X, Y  # Y == X, so 2 |X-cId| is the norm sum, exactly
    raise RuntimeError(
        "no feasible pair in 100 attempts; the unperturbed point is always feasible, "
        "so this indicates a bug"
    )


@dataclass(frozen=True)
class PairConclusions:
    lambda_all_max: float
    bound_all: float
    slack_all: float
    bound_small: float | None
    slack_small: float | None
    bound_large: float | None
    slack_large: float | None
    norm_sum: float
    bound_norm: float
    slack_norm: float

    def min_relative_slack(self) -> float:
        out = np.inf
        for slack, bound in ((self.slack_all, self.bound_all),
                             (self.slack_small, self.bound_small),
                             (self.slack_large, self.bound_large),
                             (self.slack_norm, self.bound_norm)):
            if slack is None:
                continue
            out = min(out, slack / max(1.0, abs(bound)))
        return float(out)


def pair_conclusions_check(X: np.ndarray, Y: np.ndarray, jm: JetMatrices,
                           eps: float | None = None) -> PairConclusions:
    """Verify the eigenvalue conclusions for a pair, after testing that it is feasible.

    Checks, with c = 2M+1 and the weighted matrices A = M^{p-2} Theta(.)Theta:
    every eigenvalue of A(X+Y) is at most 2c M^{p-2} |Theta|^2, the smallest
    eigenvalue of A(X+Y-2c Id) obeys the small-branch bound for p <= 4 and
    the large-branch bound for p >= 4 (the latter needs eps and the damped
    inequality), and |X-cId| + |Y-cId| <= 6M|H1|.
    """
    ok, details = _pair_feasible(X, Y, jm)
    if not ok:
        raise ValueError(f"pair does not satisfy the block squeeze (eigen margins {details})")
    return _conclusions(X, Y, jm, eps)


def sample_pair_conclusions(jm: JetMatrices, rng, eps: float | None = None) -> PairConclusions:
    """pair_conclusions_check of a pair from feasible_pair_sample, which has
    already tested the pair's block squeeze."""
    X, Y = feasible_pair_sample(jm, rng)
    return _conclusions(X, Y, jm, eps)


def _conclusions(X: np.ndarray, Y: np.ndarray, jm: JetMatrices,
                 eps: float | None) -> PairConclusions:
    M, p, n = jm.M, jm.p, jm.N
    s, wp, wpp = jm.s, jm.wp, jm.wpp
    c = 2.0 * M + 1.0
    mp2 = M ** (p - 2.0)
    theta_sq = jm.theta_norm_sq()
    sum_mat = mp2 * jm.Theta @ (X + Y) @ jm.Theta
    shifted = mp2 * jm.Theta @ (X + Y - 2.0 * c * np.eye(n)) @ jm.Theta
    lam_all = jacobi_eigh(sum_mat)[0]
    bound_all = 2.0 * c * mp2 * theta_sq
    slack_all = float(bound_all - lam_all[-1])
    lam1 = float(jacobi_eigh(shifted)[0][0])

    bound_small = slack_small = bound_large = slack_large = None
    if p <= 4.0:
        bound_small = 2.0 * M ** (p - 1.0) * n ** ((2.0 - p) / 2.0) * wp ** (p - 2.0) * wpp
        slack_small = bound_small - lam1
    if p >= 4.0:
        if eps is None:
            raise ValueError("p >= 4 requires eps for the large-branch conclusion")
        idx = _large_branch_axes(jm, eps)
        bound_large = M ** (p - 1.0) * (1.0 - n * s ** (2.0 * eps)) / len(idx) \
            * wp ** (p - 2.0) * s ** ((p - 4.0) * eps) * wpp
        slack_large = bound_large - lam1

    norm_sum = spectral_norm(X - c * np.eye(n)) + spectral_norm(Y - c * np.eye(n))
    bound_norm = 6.0 * M * jm.h1_norm
    return PairConclusions(
        lambda_all_max=float(lam_all[-1]), bound_all=bound_all, slack_all=slack_all,
        bound_small=bound_small, slack_small=slack_small,
        bound_large=bound_large, slack_large=slack_large,
        norm_sum=norm_sum, bound_norm=bound_norm, slack_norm=float(bound_norm - norm_sum),
    )
